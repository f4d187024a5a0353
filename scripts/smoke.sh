#!/usr/bin/env bash
# Cross-check smoke of the CLI: the determinant routes behind direct --check
# and inverse --check, which no benchmark workload runs, and two CLI round
# trips.  CI runs this script as its "Cross-check smoke" step.
#
#     bash scripts/smoke.sh
#
# Outputs go to $RUNNER_TEMP when it is set, or else to a temporary
# directory that is removed on exit.  Any failing command or check fails the
# script.
set -eo pipefail
cd "$(dirname "$0")/.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP="$(mktemp -d)"
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
export PYTHONPATH=src
# the JSON document $1 reads "check": "ok"
check_ok() {
  python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["check"] == "ok" else 1)' "$1"
}
# the "checks" map of the JSON document $1 is nonempty and every verdict is "ok"
all_checks_ok() {
  python3 -c 'import json, sys; checks = json.load(open(sys.argv[1]))["checks"]; sys.exit(0 if checks and all(v == "ok" for v in checks.values()) else 1)' "$1"
}
# the inverse result $1 found an operator, and it is the operator document $2
found_document() {
  python3 -c 'import json, sys; result, doc = (json.load(open(p)) for p in sys.argv[1:]); sys.exit(0 if result["found"] is True and result["operator"] == doc else 1)' "$1" "$2"
}
# the real entry point, main() on sys.argv: the help of the whole parser and
# of one verb's, and a one-verb parser's error, whose usage line names
# every verb
for argv in "-h" "verify -h"; do
  python3 -m bochner $argv > "$RUNNER_TEMP/help.txt"
  head -n 1 "$RUNNER_TEMP/help.txt" | grep -q '^usage: bochner'
done
status=0; COLUMNS=80 python3 -m bochner direct --bogus 2> "$RUNNER_TEMP/bogus.txt" || status=$?; test "$status" -eq 2
python3 -c 'import sys; from bochner.cli import _VERBS; usage = open(sys.argv[1]).readline(); sys.exit(0 if usage == "usage: bochner [-h] {%s} ...\n" % ",".join(_VERBS) else 1)' "$RUNNER_TEMP/bogus.txt"
# an unknown verb, and a document that repeats a key: exit 2, and for the
# document one error line and nothing on standard output
status=0; python3 -m bochner bogus 2> /dev/null || status=$?; test "$status" -eq 2
printf '%s\n' '{"N": 1, "a": [[], ["0", "1"]], "a": [[], ["0", "2"]]}' > "$RUNNER_TEMP/repeated-key.json"
status=0; python3 -m bochner direct --operator "$RUNNER_TEMP/repeated-key.json" > "$RUNNER_TEMP/repeated-key.out" 2> "$RUNNER_TEMP/repeated-key.err" || status=$?; test "$status" -eq 2
test ! -s "$RUNNER_TEMP/repeated-key.out"
test "$(wc -l < "$RUNNER_TEMP/repeated-key.err")" -eq 1
grep -q '^error: .* repeats the key "a" in one object$' "$RUNNER_TEMP/repeated-key.err"
python3 -m bochner direct --shapiro=1,-2,3,1 --nmax 30 --check > "$RUNNER_TEMP/shapiro-direct.json"
check_ok "$RUNNER_TEMP/shapiro-direct.json"
python3 -m bochner direct --preset hermite --nmax 60 --check > /dev/null
# the recursion's real one-term steps (Laguerre) and two-term steps
# (Jacobi) against the determinant route
python3 -m bochner direct --preset laguerre --alpha=7/3 --nmax 60 --check > "$RUNNER_TEMP/laguerre-direct.json"
check_ok "$RUNNER_TEMP/laguerre-direct.json"
python3 -m bochner direct --preset jacobi --alpha=5/2 --beta=-2/7 --nmax 40 --check > "$RUNNER_TEMP/jacobi-direct.json"
check_ok "$RUNNER_TEMP/jacobi-direct.json"
python3 -m bochner direct --preset jacobi --alpha=1/2 --beta=-1/3 --nmax 12 --out "$RUNNER_TEMP/jacobi.json" > /dev/null
python3 -m bochner inverse --check --search --data "$RUNNER_TEMP/jacobi.json" > "$RUNNER_TEMP/inverse.json"
python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["found"] is True else 1)' "$RUNNER_TEMP/inverse.json"
# a non-real order-3 operator: the recursion's complex quotients
# must agree with the determinant route
printf '%s\n' '{"N": 3, "a": [[], ["1/2", "-3"], ["2", "1+1*i", "-1/3*i"], ["0", "1", "-2", "1+1*i"]]}' > "$RUNNER_TEMP/order3.json"
python3 -m bochner direct --check --operator "$RUNNER_TEMP/order3.json" --nmax 16 > "$RUNNER_TEMP/order3-direct.json"
check_ok "$RUNNER_TEMP/order3-direct.json"
# and inverse --search must give back its document
python3 -m bochner direct --operator "$RUNNER_TEMP/order3.json" --nmax 12 --out "$RUNNER_TEMP/order3-data.json" > /dev/null
python3 -m bochner inverse --search --data "$RUNNER_TEMP/order3-data.json" > "$RUNNER_TEMP/order3-inverse.json"
found_document "$RUNNER_TEMP/order3-inverse.json" "$RUNNER_TEMP/order3.json"
# bumped order-3 data, P_6 past the seed rows and P_2 inside them:
# inverse --order 3 and --search, with and without --check, must name the
# entry where the finite-order criterion first breaks on the whole table,
# the reference computed here
for place in "6 1" "2 0"; do
  bumped="$RUNNER_TEMP/order3-bumped-${place// /-}"
  python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); n, j = map(int, sys.argv[3:]); doc["P"][n][j] = "1/12345"; json.dump(doc, open(sys.argv[2], "w"))' "$RUNNER_TEMP/order3-data.json" "$bumped.json" $place
  python3 -c 'import json, sys; from bochner.inverse import deltas_from_eigendata_rec, first_order_violation; from bochner.serialize import eigendata_from_dict; data = eigendata_from_dict(json.load(open(sys.argv[1]))); table = deltas_from_eigendata_rec(data); print(json.dumps({"--order": list(first_order_violation(table, 3)), "--search": list(first_order_violation(table, data.n_max - 1))}))' "$bumped.json" > "$bumped-reference.json"
  for flags in "--order 3" "--order 3 --check" "--search" "--search --check"; do
    status=0; python3 -m bochner inverse $flags --data "$bumped.json" > "$bumped-inverse.json" || status=$?; test "$status" -eq 1
    python3 -c 'import json, sys; result, reference = (json.load(open(p)) for p in sys.argv[1:3]); sys.exit(0 if result["found"] is False and result["first_failure"] == reference[sys.argv[3]] else 1)' "$bumped-inverse.json" "$bumped-reference.json" "${flags%% *}"
  done
done
# a requested order above the operator's trims back to its document
python3 -m bochner inverse --order 5 --data "$RUNNER_TEMP/order3-data.json" > "$RUNNER_TEMP/order3-inverse-5.json"
python3 -c 'import json, sys; result, doc = (json.load(open(p)) for p in sys.argv[1:]); sys.exit(0 if result["found"] is True and result["N"] == 3 and result["operator"] == doc else 1)' "$RUNNER_TEMP/order3-inverse-5.json" "$RUNNER_TEMP/order3.json"
# the oracles on non-real input: the recurrence residual, and the
# eigen-equation of verify with a_0 = 5/2 - i, shifted eigenvalues
python3 -m bochner recurrence --check --operator "$RUNNER_TEMP/order3.json" --nmax 12 > "$RUNNER_TEMP/order3-recurrence.json"
check_ok "$RUNNER_TEMP/order3-recurrence.json"
# a non-real order-2 family of the benchmark's size: the lifted
# sequential solve must give a three-term table the oracle accepts
printf '%s\n' '{"N": 2, "a": [[], ["3/5", "-2/3+1/2*i"], ["1/7", "-5/2", "3/4+2/5*i"]]}' > "$RUNNER_TEMP/order2.json"
python3 -m bochner recurrence --check --operator "$RUNNER_TEMP/order2.json" --nmax 30 > "$RUNNER_TEMP/order2-recurrence.json"
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); sys.exit(0 if doc["check"] == "ok" and doc["p"] == 1 else 1)' "$RUNNER_TEMP/order2-recurrence.json"
# a dense non-real order-4 family: rows 5..24 of the fit take the
# inverse-connection route, checked by the residual oracle
printf '%s\n' '{"N": 4, "a": [[], ["1/2", "-3"], ["2", "1+1*i", "-1/3*i"], ["0", "1", "-2", "1+1*i"], ["1", "-1/2", "3*i", "2", "1/2+1*i"]]}' > "$RUNNER_TEMP/order4.json"
python3 -m bochner recurrence --check --operator "$RUNNER_TEMP/order4.json" --nmax 24 > "$RUNNER_TEMP/order4-recurrence.json"
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); sys.exit(0 if doc["check"] == "ok" and doc["p"] is None else 1)' "$RUNNER_TEMP/order4-recurrence.json"
# the same family no deeper than its order: a table's band is its row
# length, so rows 0..3 of an order-4 table are a full triangle, and
# the fit and both direct routes run on that band, not the order
python3 -m bochner recurrence --check --operator "$RUNNER_TEMP/order4.json" --nmax 3 > "$RUNNER_TEMP/order4-shallow-recurrence.json"
check_ok "$RUNNER_TEMP/order4-shallow-recurrence.json"
python3 -m bochner direct --check --deltas --operator "$RUNNER_TEMP/order4.json" --nmax 3 > "$RUNNER_TEMP/order4-shallow-direct.json"
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); sys.exit(0 if doc["check"] == "ok" and [len(row) for row in doc["delta"]] == [1, 2, 3, 4] else 1)' "$RUNNER_TEMP/order4-shallow-direct.json"
# an order-3 family whose band has an all-zero interior column
# (delta(m, 1) = 0): the mirrored band keeps only columns 2 and 3,
# and rows 5..20 of the fit take the inverse-connection route
printf '%s\n' '{"N": 3, "a": [[], ["0", "1"], ["1", "0", "1"], ["1/3", "0", "0", "2+1*i"]]}' > "$RUNNER_TEMP/zero-column.json"
python3 -m bochner recurrence --check --operator "$RUNNER_TEMP/zero-column.json" --nmax 20 > "$RUNNER_TEMP/zero-column-recurrence.json"
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); sys.exit(0 if doc["check"] == "ok" and doc["p"] is None else 1)' "$RUNNER_TEMP/zero-column-recurrence.json"
# the eigen-equation oracle on the same family, dense and non-real,
# and the inverse search back to its document
python3 -m bochner direct --check --operator "$RUNNER_TEMP/order4.json" --nmax 20 > "$RUNNER_TEMP/order4-direct.json"
check_ok "$RUNNER_TEMP/order4-direct.json"
# direct streams its document: the text must be json.dumps(indent=2)
# of the document it holds, byte for byte, and --out the same bytes
python3 -m bochner direct --deltas --decimal 8 --check --operator "$RUNNER_TEMP/order4.json" --nmax 20 --out "$RUNNER_TEMP/order4-stream-out.json" > "$RUNNER_TEMP/order4-stream.json"
python3 -m bochner direct --preset jacobi --alpha=5/2 --beta=-2/7 --nmax 150 --out "$RUNNER_TEMP/jacobi-stream-out.json" > "$RUNNER_TEMP/jacobi-stream.json"
for doc in order4-stream jacobi-stream; do
  python3 -c 'import json, sys; text = open(sys.argv[1]).read(); sys.exit(0 if text == json.dumps(json.loads(text), indent=2) + "\n" else 1)' "$RUNNER_TEMP/$doc.json"
  cmp "$RUNNER_TEMP/$doc.json" "$RUNNER_TEMP/$doc-out.json"
done
python3 -m bochner direct --operator "$RUNNER_TEMP/order4.json" --nmax 12 --out "$RUNNER_TEMP/order4-data.json" > /dev/null
python3 -m bochner inverse --search --data "$RUNNER_TEMP/order4-data.json" > "$RUNNER_TEMP/order4-inverse.json"
found_document "$RUNNER_TEMP/order4-inverse.json" "$RUNNER_TEMP/order4.json"
# the delta determinant route on dense non-real data, against the recursion
python3 -m bochner inverse --check --search --data "$RUNNER_TEMP/order4-data.json" > "$RUNNER_TEMP/order4-inverse-check.json"
found_document "$RUNNER_TEMP/order4-inverse-check.json" "$RUNNER_TEMP/order4.json"
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["a"][0] = ["5/2-1*i"]; json.dump(doc, open(sys.argv[2], "w"))' "$RUNNER_TEMP/order3.json" "$RUNNER_TEMP/order3-shifted.json"
python3 -m bochner verify --operator "$RUNNER_TEMP/order3-shifted.json" --nmax 12 > "$RUNNER_TEMP/order3-verify.json"
all_checks_ok "$RUNNER_TEMP/order3-verify.json"
# an order-2 operator below --nmax 2 is an input error, not a traceback
status=0; python3 -m bochner verify --preset hermite --nmax 1 || status=$?; test "$status" -eq 2
# and so is an operator file that is not UTF-8
printf '\377\n' > "$RUNNER_TEMP/not-utf8.json"
status=0; python3 -m bochner direct --operator "$RUNNER_TEMP/not-utf8.json" || status=$?; test "$status" -eq 2
# a product form with non-real coefficients, which no benchmark
# workload runs: the closed-form recurrence table must pass both checks
python3 -m bochner verify '--shapiro=1/2+1/3*i,i,2-1/4*i' --nmax 16 > "$RUNNER_TEMP/shapiro-complex.json"
all_checks_ok "$RUNNER_TEMP/shapiro-complex.json"
# every function of the library is run by some verb, or kept for a
# reason the script names
python3 scripts/unreached.py
