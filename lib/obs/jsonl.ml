let ( let* ) = Result.bind

let field k j =
  match Json.member k j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let typed what conv k j =
  let* v = field k j in
  match conv v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S: expected %s" k what)

let int_field = typed "int" Json.to_int
let str_field = typed "string" Json.to_str
let bool_field = typed "bool" (function Json.Bool b -> Some b | _ -> None)
let list_field = typed "list" Json.to_list

let nullable d k j =
  let* v = field k j in
  if v = Json.Null then Ok None else Result.map Option.some (d k j)

let optional d k j =
  match Json.member k j with None | Some Json.Null -> Ok None | Some _ -> nullable d k j

let map_list f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* y = f x in
      go (y :: acc) rest
  in
  go [] l

let write_line oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n'

let read ?(strict = false) decode path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go n acc skipped =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc, skipped)
          | line when String.trim line = "" -> go (n + 1) acc skipped
          | line -> (
            let decoded =
              match Json.parse line with
              | Error msg -> Error ("not valid JSON: " ^ msg)
              | Ok j -> decode j
            in
            match decoded with
            | Ok v -> go (n + 1) (v :: acc) skipped
            | Error msg when strict -> Error (Printf.sprintf "%s: line %d: %s" path n msg)
            | Error _ -> go (n + 1) acc (skipped + 1))
        in
        go 1 [] 0)
