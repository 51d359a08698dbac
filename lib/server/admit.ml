type ticket = {
  tk_tenant : string;
  tk_start_ns : int;
  mutable tk_governor : Core.Governor.t option;
  mutable tk_live : bool;
}

type decision =
  | Admitted of ticket
  | Shed of { retry_after_ms : int; draining : bool }

type t = {
  max_inflight : int;
  tenant_cap : int;
  retry_after_ms : int;
  m : Mutex.t;
  tenants : (string, int) Hashtbl.t; (* in-flight count per tenant (absent = 0) *)
  mutable live : ticket list; (* the in-flight set; short (<= max_inflight) *)
  mutable n_inflight : int;
  mutable drain : bool;
}

let create ~max_inflight ~tenant_inflight ~retry_after_ms () =
  {
    max_inflight = max 1 max_inflight;
    tenant_cap = max 1 tenant_inflight;
    retry_after_ms = max 1 retry_after_ms;
    m = Mutex.create ();
    tenants = Hashtbl.create 16;
    live = [];
    n_inflight = 0;
    drain = false;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let tenant_count t tenant = Option.value ~default:0 (Hashtbl.find_opt t.tenants tenant)

let try_admit t ~tenant =
  locked t (fun () ->
      if t.drain then Shed { retry_after_ms = t.retry_after_ms; draining = true }
      else if t.n_inflight >= t.max_inflight || tenant_count t tenant >= t.tenant_cap then
        Shed { retry_after_ms = t.retry_after_ms; draining = false }
      else begin
        let tk =
          { tk_tenant = tenant; tk_start_ns = !Obs.Clock.now_ns (); tk_governor = None; tk_live = true }
        in
        Hashtbl.replace t.tenants tenant (tenant_count t tenant + 1);
        t.live <- tk :: t.live;
        t.n_inflight <- t.n_inflight + 1;
        Admitted tk
      end)

let attach t tk gov = locked t (fun () -> if tk.tk_live then tk.tk_governor <- Some gov)

let release t tk =
  locked t (fun () ->
      if tk.tk_live then begin
        tk.tk_live <- false;
        tk.tk_governor <- None;
        t.n_inflight <- t.n_inflight - 1;
        (match tenant_count t tk.tk_tenant - 1 with
        | 0 -> Hashtbl.remove t.tenants tk.tk_tenant
        | n -> Hashtbl.replace t.tenants tk.tk_tenant n);
        t.live <- List.filter (fun o -> o != tk) t.live
      end)

let inflight t = locked t (fun () -> t.n_inflight)

let tenant_inflight t tenant = locked t (fun () -> tenant_count t tenant)

let begin_drain t = locked t (fun () -> t.drain <- true)

let draining t = locked t (fun () -> t.drain)

(* Collect the targets under the lock, cancel outside it: the admission
   mutex is held for the scan only. *)
let cancel_where t ~reason pred =
  let targets =
    locked t (fun () ->
        List.filter_map (fun tk -> if tk.tk_live && pred tk then tk.tk_governor else None) t.live)
  in
  List.iter (fun g -> Core.Governor.cancel ~reason g) targets;
  List.length targets

let cancel_all t ~reason = cancel_where t ~reason (fun _ -> true)

let cancel_overdue t ~now_ns ~max_age_ns ~reason =
  cancel_where t ~reason (fun tk -> now_ns - tk.tk_start_ns > max_age_ns)
