#!/usr/bin/env bash
# End-to-end checks of the stpa-loc command line, run through whatever command
# the arguments name:
#
#   bash tests/console_checks.sh stpa-loc                            # the installed console script
#   PYTHONPATH=src bash tests/console_checks.sh python -m stpa_loc.cli   # the source tree
#
# The package's bundled data is found through `python -c 'import stpa_loc'`, so
# `python` must import the same stpa_loc as the command. The goldens are read
# from the tests/golden/ directory beside this script. It works in a temporary
# directory and exits non-zero at the first failing check.
set -eu

if [ "$#" -eq 0 ]; then
  echo "usage: bash tests/console_checks.sh COMMAND [ARG...]" >&2
  exit 2
fi
cmd=("$@")
golden_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/golden"
if [ -n "${PYTHONPATH:-}" ]; then  # a relative entry, such as src, must survive the cd below
  PYTHONPATH="$(python -c 'import os, sys; print(os.pathsep.join(map(os.path.abspath, sys.argv[1].split(os.pathsep))))' "$PYTHONPATH")"
  export PYTHONPATH
fi
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

model="$(python -c 'import pathlib, stpa_loc; print(pathlib.Path(stpa_loc.__file__).with_name("data") / "chat_monitoring.stpa")')"
"${cmd[@]}" validate "$model"
"${cmd[@]}" prompts "$model" > prompts.tsv
test -s prompts.tsv
# the path loader and the column table: a copy of the bundled catalog gives
# the same prompts, and a thirteenth column in one row is exit 3 and one line
cp "$(dirname "$model")/catalog.tsv" catalog.tsv
STPA_LOC_CATALOG=catalog.tsv "${cmd[@]}" prompts "$model" > copy.tsv
cmp prompts.tsv copy.tsv
sed -i '2s/$/\textra/' catalog.tsv
status=0
STPA_LOC_CATALOG=catalog.tsv "${cmd[@]}" prompts "$model" > /dev/null 2> catalog.err || status=$?
test "$status" -eq 3
test "$(wc -l < catalog.err)" -eq 1
grep -qx 'stpa-loc: error: bad catalog: row 2: expected 12 columns, found 13' catalog.err
scenarios="$(dirname "$model")/chat_monitoring_scenarios.stpa"
# all 12 report goldens: csv, md and json, both directions, with and without losses
for direction in effect-to-cause cause-to-effect; do
  for format in csv md json; do
    for loss in "" --include-loss; do
      golden="$(echo "$direction" | tr - _)${loss:+_loss}.$format"
      "${cmd[@]}" report "$model" "$scenarios" --direction "$direction" --format "$format" $loss > "$golden"
      cmp "$golden" "$golden_dir/$golden"
    done
  done
done
# stdout is UTF-8 whatever encoding Python picks for it
PYTHONIOENCODING=ascii "${cmd[@]}" report "$model" "$scenarios" > ascii.csv
cmp ascii.csv "$golden_dir/effect_to_cause.csv"
# a leading UTF-8 byte order mark is skipped
printf '\357\273\277' | cat - "$model" > bom.stpa
"${cmd[@]}" validate bom.stpa
# every link rule a parsed model can break, one diagnostic each, as the golden
cp "$golden_dir/broken_links.stpa" .
status=0
"${cmd[@]}" validate broken_links.stpa > links.out 2> links.err || status=$?
test "$status" -eq 1
test ! -s links.out
cmp links.err "$golden_dir/broken_links.err"
# an illegal sub-type pairing is named the same whatever the hash seed
for seed in 0 1; do
  status=0
  PYTHONHASHSEED=$seed "${cmd[@]}" report "$model" "$golden_dir/illegal_pairing.stpa" \
    > /dev/null 2> "pairing-$seed.err" || status=$?
  test "$status" -eq 1
done
cmp pairing-0.err pairing-1.err
grep -q 'sub-type not_executed is not legal for type_a' pairing-0.err
# a fresh ledger through the command: the lock and the atomic save
"${cmd[@]}" ledger add ledger.jsonl --model "$model" --id V-1 --description "drift" \
  --component ChatMonitor --severity high --source audit
"${cmd[@]}" ledger exposure ledger.jsonl --model "$model" > exposure.json
grep -q '"open_count": 1' exposure.json
# a full disk under stdout is exit 3 and one error line, also through
# the flush at interpreter exit
status=0
"${cmd[@]}" ucas "$model" > /dev/full 2> full.err || status=$?
test "$status" -eq 3
test "$(wc -l < full.err)" -eq 1
test -z "$(grep Traceback full.err)"
# a closed stdout is exit 3 and one error line, before any command runs
status=0
"${cmd[@]}" validate "$model" >&- 2> closed.err || status=$?
test "$status" -eq 3
test "$(wc -l < closed.err)" -eq 1
test -z "$(grep Traceback closed.err)"
echo "console checks passed: $*"
