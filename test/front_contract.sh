#!/bin/sh
# The front-end contract: omega_cli and omega_serve share one loader, one
# set of engine flags and one exit-code taxonomy, so given the same flags
#   - `omega query` exits with the code of an `omega_serve run --stdio`
#     response to the same query;
#   - a bad failpoint spec exits 2 from both;
#   - --lenient names a malformed line (file:line) from both.
#
#   usage: front_contract.sh OMEGA_CLI OMEGA_SERVE
set -u
cli=$1
serve=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0
fail() {
  echo "front contract: $*" >&2
  failures=$((failures + 1))
}

"$cli" generate --dataset l4all --scale 21 --seed 7 -o "$dir/g.nt" > /dev/null || exit 1
q='(?X) <- APPROX (Librarians, type-, ?X)'

# the response's code, from its fixed leading fields
code_of() { sed -n 's/^{"id":null,"status":"[a-z]*","code":\([0-9]*\),.*/\1/p'; }

for case in "0 --limit 5" "4 --max-tuples 10" "6 --max-states 1" "5 --failpoints scan=1#1"; do
  set -- $case
  want=$1
  shift
  "$cli" query -d "$dir/g.nt" "$@" "$q" > "$dir/cli.out" 2>&1
  got_cli=$?
  got_serve=$(printf '{"query": "%s"}\n' "$q" | "$serve" run --data "$dir/g.nt" --stdio "$@" 2> "$dir/serve.err" | code_of)
  [ "$got_cli" = "$want" ] || fail "omega query $*: exit $got_cli, want $want"
  [ "$got_serve" = "$want" ] || fail "omega_serve run $*: code '$got_serve', want $want"
done

"$cli" query -d "$dir/g.nt" --failpoints nosuch=1 "$q" > /dev/null 2>&1
got=$?
[ "$got" = 2 ] || fail "omega query with a bad failpoint spec: exit $got, want 2"
"$serve" run --data "$dir/g.nt" --stdio --failpoints nosuch=1 < /dev/null > /dev/null 2>&1
got=$?
[ "$got" = 2 ] || fail "omega_serve run with a bad failpoint spec: exit $got, want 2"

cp "$dir/g.nt" "$dir/bad.nt"
echo 'this is not a triple' >> "$dir/bad.nt"
line=$(wc -l < "$dir/bad.nt" | tr -d ' ')
"$cli" query -d "$dir/bad.nt" --lenient --limit 1 "$q" > /dev/null 2> "$dir/cli.err" ||
  fail "omega query --lenient failed"
grep -q "bad.nt:$line:" "$dir/cli.err" || fail "omega query --lenient does not name bad.nt:$line"
"$serve" run --data "$dir/bad.nt" --lenient --stdio < /dev/null > /dev/null 2> "$dir/serve.err" ||
  fail "omega_serve run --lenient failed"
grep -q "bad.nt:$line:" "$dir/serve.err" || fail "omega_serve run --lenient does not name bad.nt:$line"

[ "$failures" = 0 ]
