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
python -m bochner direct --shapiro=1,-2,3,1 --nmax 30 --check > "$RUNNER_TEMP/shapiro-direct.json"
python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["check"] == "ok" else 1)' "$RUNNER_TEMP/shapiro-direct.json"
python -m bochner direct --preset hermite --nmax 60 --check > /dev/null
# the recursion's real one-term steps (Laguerre) and two-term steps
# (Jacobi) against the determinant route
python -m bochner direct --preset laguerre --alpha=7/3 --nmax 60 --check > "$RUNNER_TEMP/laguerre-direct.json"
python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["check"] == "ok" else 1)' "$RUNNER_TEMP/laguerre-direct.json"
python -m bochner direct --preset jacobi --alpha=5/2 --beta=-2/7 --nmax 40 --check > "$RUNNER_TEMP/jacobi-direct.json"
python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["check"] == "ok" else 1)' "$RUNNER_TEMP/jacobi-direct.json"
python -m bochner direct --preset jacobi --alpha=1/2 --beta=-1/3 --nmax 12 --out "$RUNNER_TEMP/jacobi.json" > /dev/null
python -m bochner inverse --check --search --data "$RUNNER_TEMP/jacobi.json" > "$RUNNER_TEMP/inverse.json"
python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["found"] is True else 1)' "$RUNNER_TEMP/inverse.json"
# a non-real order-3 operator: the recursion's complex quotients
# must agree with the determinant route
printf '%s\n' '{"N": 3, "a": [[], ["1/2", "-3"], ["2", "1+1*i", "-1/3*i"], ["0", "1", "-2", "1+1*i"]]}' > "$RUNNER_TEMP/order3.json"
python -m bochner direct --check --operator "$RUNNER_TEMP/order3.json" --nmax 16 > "$RUNNER_TEMP/order3-direct.json"
python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["check"] == "ok" else 1)' "$RUNNER_TEMP/order3-direct.json"
# and inverse --search must give back its document
python -m bochner direct --operator "$RUNNER_TEMP/order3.json" --nmax 12 --out "$RUNNER_TEMP/order3-data.json" > /dev/null
python -m bochner inverse --search --data "$RUNNER_TEMP/order3-data.json" > "$RUNNER_TEMP/order3-inverse.json"
python3 -c 'import json, sys; result, doc = (json.load(open(p)) for p in sys.argv[1:]); sys.exit(0 if result["found"] is True and result["operator"] == doc else 1)' "$RUNNER_TEMP/order3-inverse.json" "$RUNNER_TEMP/order3.json"
# bumped order-3 data: inverse --order climbs candidate orders on the
# first delta rows, locates its failure on the rows it drew, and must
# name the entry where the two full tables of --check fail
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["P"][6][1] = "1/12345"; json.dump(doc, open(sys.argv[2], "w"))' "$RUNNER_TEMP/order3-data.json" "$RUNNER_TEMP/order3-bumped.json"
status=0; python -m bochner inverse --order 3 --data "$RUNNER_TEMP/order3-bumped.json" > "$RUNNER_TEMP/order3-bumped-rows.json" || status=$?; test "$status" -eq 1
status=0; python -m bochner inverse --order 3 --check --data "$RUNNER_TEMP/order3-bumped.json" > "$RUNNER_TEMP/order3-bumped-tables.json" || status=$?; test "$status" -eq 1
python3 -c 'import json, sys; rows, tables = (json.load(open(p)) for p in sys.argv[1:]); sys.exit(0 if rows["found"] is False and rows["first_failure"] == tables["first_failure"] else 1)' "$RUNNER_TEMP/order3-bumped-rows.json" "$RUNNER_TEMP/order3-bumped-tables.json"
# and so must the search over every testable order
status=0; python -m bochner inverse --search --data "$RUNNER_TEMP/order3-bumped.json" > "$RUNNER_TEMP/order3-bumped-search.json" || status=$?; test "$status" -eq 1
status=0; python -m bochner inverse --search --check --data "$RUNNER_TEMP/order3-bumped.json" > "$RUNNER_TEMP/order3-bumped-search-tables.json" || status=$?; test "$status" -eq 1
python3 -c 'import json, sys; rows, tables = (json.load(open(p)) for p in sys.argv[1:]); sys.exit(0 if rows["found"] is False and rows["first_failure"] == tables["first_failure"] else 1)' "$RUNNER_TEMP/order3-bumped-search.json" "$RUNNER_TEMP/order3-bumped-search-tables.json"
# a requested order above the operator's trims back to its document
python -m bochner inverse --order 5 --data "$RUNNER_TEMP/order3-data.json" > "$RUNNER_TEMP/order3-inverse-5.json"
python3 -c 'import json, sys; result, doc = (json.load(open(p)) for p in sys.argv[1:]); sys.exit(0 if result["found"] is True and result["N"] == 3 and result["operator"] == doc else 1)' "$RUNNER_TEMP/order3-inverse-5.json" "$RUNNER_TEMP/order3.json"
# the oracles on non-real input: the recurrence residual, and the
# eigen-equation of verify with a_0 = 5/2 - i, shifted eigenvalues
python -m bochner recurrence --check --operator "$RUNNER_TEMP/order3.json" --nmax 12 > "$RUNNER_TEMP/order3-recurrence.json"
python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["check"] == "ok" else 1)' "$RUNNER_TEMP/order3-recurrence.json"
# a non-real order-2 family of the benchmark's size: the lifted
# sequential solve must give a three-term table the oracle accepts
printf '%s\n' '{"N": 2, "a": [[], ["3/5", "-2/3+1/2*i"], ["1/7", "-5/2", "3/4+2/5*i"]]}' > "$RUNNER_TEMP/order2.json"
python -m bochner recurrence --check --operator "$RUNNER_TEMP/order2.json" --nmax 30 > "$RUNNER_TEMP/order2-recurrence.json"
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); sys.exit(0 if doc["check"] == "ok" and doc["p"] == 1 else 1)' "$RUNNER_TEMP/order2-recurrence.json"
# a dense non-real order-4 family: rows 5..24 of the fit take the
# inverse-connection route, checked by the residual oracle
printf '%s\n' '{"N": 4, "a": [[], ["1/2", "-3"], ["2", "1+1*i", "-1/3*i"], ["0", "1", "-2", "1+1*i"], ["1", "-1/2", "3*i", "2", "1/2+1*i"]]}' > "$RUNNER_TEMP/order4.json"
python -m bochner recurrence --check --operator "$RUNNER_TEMP/order4.json" --nmax 24 > "$RUNNER_TEMP/order4-recurrence.json"
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); sys.exit(0 if doc["check"] == "ok" and doc["p"] is None else 1)' "$RUNNER_TEMP/order4-recurrence.json"
# the same family no deeper than its order: a table's band is its row
# length, so rows 0..3 of an order-4 table are a full triangle, and
# the fit and both direct routes run on that band, not the order
python -m bochner recurrence --check --operator "$RUNNER_TEMP/order4.json" --nmax 3 > "$RUNNER_TEMP/order4-shallow-recurrence.json"
python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["check"] == "ok" else 1)' "$RUNNER_TEMP/order4-shallow-recurrence.json"
python -m bochner direct --check --deltas --operator "$RUNNER_TEMP/order4.json" --nmax 3 > "$RUNNER_TEMP/order4-shallow-direct.json"
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); sys.exit(0 if doc["check"] == "ok" and [len(row) for row in doc["delta"]] == [1, 2, 3, 4] else 1)' "$RUNNER_TEMP/order4-shallow-direct.json"
# an order-3 family whose band has an all-zero interior column
# (delta(m, 1) = 0): the mirrored band keeps only columns 2 and 3,
# and rows 5..20 of the fit take the inverse-connection route
printf '%s\n' '{"N": 3, "a": [[], ["0", "1"], ["1", "0", "1"], ["1/3", "0", "0", "2+1*i"]]}' > "$RUNNER_TEMP/zero-column.json"
python -m bochner recurrence --check --operator "$RUNNER_TEMP/zero-column.json" --nmax 20 > "$RUNNER_TEMP/zero-column-recurrence.json"
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); sys.exit(0 if doc["check"] == "ok" and doc["p"] is None else 1)' "$RUNNER_TEMP/zero-column-recurrence.json"
# the eigen-equation oracle on the same family, dense and non-real,
# and the inverse search back to its document
python -m bochner direct --check --operator "$RUNNER_TEMP/order4.json" --nmax 20 > "$RUNNER_TEMP/order4-direct.json"
python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["check"] == "ok" else 1)' "$RUNNER_TEMP/order4-direct.json"
# direct streams its document: the text must be json.dumps(indent=2)
# of the document it holds, byte for byte, and --out the same bytes
python -m bochner direct --deltas --decimal 8 --check --operator "$RUNNER_TEMP/order4.json" --nmax 20 --out "$RUNNER_TEMP/order4-stream-out.json" > "$RUNNER_TEMP/order4-stream.json"
python -m bochner direct --preset jacobi --alpha=5/2 --beta=-2/7 --nmax 150 --out "$RUNNER_TEMP/jacobi-stream-out.json" > "$RUNNER_TEMP/jacobi-stream.json"
for doc in order4-stream jacobi-stream; do
  python3 -c 'import json, sys; text = open(sys.argv[1]).read(); sys.exit(0 if text == json.dumps(json.loads(text), indent=2) + "\n" else 1)' "$RUNNER_TEMP/$doc.json"
  cmp "$RUNNER_TEMP/$doc.json" "$RUNNER_TEMP/$doc-out.json"
done
python -m bochner direct --operator "$RUNNER_TEMP/order4.json" --nmax 12 --out "$RUNNER_TEMP/order4-data.json" > /dev/null
python -m bochner inverse --search --data "$RUNNER_TEMP/order4-data.json" > "$RUNNER_TEMP/order4-inverse.json"
python3 -c 'import json, sys; result, doc = (json.load(open(p)) for p in sys.argv[1:]); sys.exit(0 if result["found"] is True and result["operator"] == doc else 1)' "$RUNNER_TEMP/order4-inverse.json" "$RUNNER_TEMP/order4.json"
# the delta determinant route on dense non-real data, against the recursion
python -m bochner inverse --check --search --data "$RUNNER_TEMP/order4-data.json" > "$RUNNER_TEMP/order4-inverse-check.json"
python3 -c 'import json, sys; result, doc = (json.load(open(p)) for p in sys.argv[1:]); sys.exit(0 if result["found"] is True and result["operator"] == doc else 1)' "$RUNNER_TEMP/order4-inverse-check.json" "$RUNNER_TEMP/order4.json"
python3 -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["a"][0] = ["5/2-1*i"]; json.dump(doc, open(sys.argv[2], "w"))' "$RUNNER_TEMP/order3.json" "$RUNNER_TEMP/order3-shifted.json"
python -m bochner verify --operator "$RUNNER_TEMP/order3-shifted.json" --nmax 12 > "$RUNNER_TEMP/order3-verify.json"
python3 -c 'import json, sys; checks = json.load(open(sys.argv[1]))["checks"]; sys.exit(0 if checks and all(v == "ok" for v in checks.values()) else 1)' "$RUNNER_TEMP/order3-verify.json"
# an order-2 operator below --nmax 2 is an input error, not a traceback
status=0; python -m bochner verify --preset hermite --nmax 1 || status=$?; test "$status" -eq 2
# and so is an operator file that is not UTF-8
printf '\377\n' > "$RUNNER_TEMP/not-utf8.json"
status=0; python -m bochner direct --operator "$RUNNER_TEMP/not-utf8.json" || status=$?; test "$status" -eq 2
# a product form with non-real coefficients, which no benchmark
# workload runs: the closed-form recurrence table must pass both checks
python -m bochner verify '--shapiro=1/2+1/3*i,i,2-1/4*i' --nmax 16 > "$RUNNER_TEMP/shapiro-complex.json"
python3 -c 'import json, sys; checks = json.load(open(sys.argv[1]))["checks"]; sys.exit(0 if checks and all(v == "ok" for v in checks.values()) else 1)' "$RUNNER_TEMP/shapiro-complex.json"
# every function of the library is run by some verb, or kept for a
# reason the script names
python3 scripts/unreached.py
