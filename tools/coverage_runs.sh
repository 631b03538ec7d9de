#!/bin/sh
# The coverage run list: everything whose execution the coverage gate
# (tools/coverage.py) counts. Drive a `-O0 --coverage` build with it,
# then run tools/coverage.py on the same build directory.
#
# Usage: tools/coverage_runs.sh <build-dir>
#
# ctest runs without bench_determinism, whose scenarios the tf_bench
# runs below cover; fig07/fig09 are not in the smoke set, and the
# traced, windowed and store-and-forward runs reach the exporters, the
# timeline fault marks and the framing modes that plain smoke skips.

set -e

build="$1"
if [ -z "$build" ] || [ ! -x "$build/bench/tf_bench" ]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "$build" && pwd)
bench="$build/bench/tf_bench"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

ctest --test-dir "$build" -E '^bench_determinism$' \
    -j "$(nproc)" --output-on-failure

"$bench" --smoke --jobs 4 --out "$out"
"$bench" --scenario fig07_ycsb --scenario fig09_elastic --smoke \
    --out "$out"
topos=""
for c in ring chain fullmesh noisy_neighbor; do
    topos="$topos --topo $root/configs/$c.json"
done
"$bench" $topos --jobs 2 --out "$out"
"$bench" --validate $topos
"$bench" --smoke --topo "$root/configs/noisy_neighbor.json" \
    --trace "$out/trace_noisy_neighbor.json" --out "$out"
"$bench" --scenario proto_datapath --smoke --timeline-window 10 \
    --trace "$out/trace_proto.json" --out "$out"
"$bench" --scenario proto_datapath --smoke --timeline-window 10 \
    --cut-through off --trace "$out/trace_proto_sf.json" --out "$out"
"$bench" --scenario fault_soak --smoke --timeline-window 10 --out "$out"
# Draws the fault marks on the timeline in the trace export.
"$bench" --scenario fault_soak --smoke --timeline-window 10 \
    --trace "$out/trace_fault_soak.json" --out "$out"

# The examples resolve configs/ relative to the repository root.
cd "$root"
for e in quickstart logical_server failure_replay link_failover \
         datacenter_sim topo_fabric; do
    "$build/examples/$e" > /dev/null
done
echo "coverage run list done"
