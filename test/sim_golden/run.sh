#!/bin/sh
# Golden simulated outputs of the paper's figures and tables.
#
#   test/sim_golden/run.sh check    rerun every command, diff against the
#                                   committed outputs (exit 1 on drift)
#   test/sim_golden/run.sh update   rewrite the committed outputs
#
# Every command runs on a fixed seed in the deterministic simulator, so
# its output must stay byte for byte the same across a refactor that
# claims to change no simulated number. The only wall-clock field any
# of them prints (mcheck's "elapsed") is not in the list.
set -eu

mode=${1:-check}
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
sim="$root/_build/default/bin/newtos_sim.exe"
bench="$root/_build/default/bench/main.exe"

(cd "$root" && dune build bin/newtos_sim.exe bench/main.exe)

# Fresh outputs go under _build/, which the build already owns.
out="$root/_build/sim_golden"
rm -rf "$out"
mkdir -p "$out"

# name|command (run from the repo root)
cmds='crosscheck|sim crosscheck
coalesce|bench coalesce
fig4|sim fig4
fig5|sim fig5
campaign|sim campaign --runs 100
campaign_json|sim campaign --runs 100 --json
campaign_checked|sim campaign --runs 20 --sanitize --protocol --verify-continuous --verify-sample 4 --json
campaign_pf2|sim campaign --runs 20 --pf-shards 2 --json
scaling_r2_pf2|sim scaling --shards 2 --ip-replicas 2 --pf-shards 2 --flows 2 --duration 0.05'

echo "$cmds" | while IFS='|' read -r name cmd; do
  set -- $cmd
  tool=$1
  shift
  case $tool in
    sim) exe=$sim ;;
    bench) exe=$bench ;;
  esac
  # A failing command (a checker verdict) is part of the output too.
  rc=0
  (cd "$root" && "$exe" "$@") > "$out/$name.txt" 2>&1 || rc=$?
  echo "exit $rc" >> "$out/$name.txt"
  if [ "$mode" = update ]; then
    cp "$out/$name.txt" "$here/$name.txt"
    echo "updated $name"
  elif diff -u "$here/$name.txt" "$out/$name.txt"; then
    echo "ok $name"
  else
    echo "DRIFT $name: $cmd"
    touch "$out/failed"
  fi
done
if [ -e "$out/failed" ]; then
  echo "sim-golden: simulated outputs drifted from test/sim_golden/"
  exit 1
fi
