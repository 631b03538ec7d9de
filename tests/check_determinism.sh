#!/bin/sh
# Same-seed determinism cross-check for the point-sharding bench
# harness.
#
# Runs the smoke-sized proto_datapath, fig05_stream, fig07_ycsb,
# fig09_elastic, fault_soak and cache_vs_migration scenarios, plus
# fig01_datacenter, fig06_voltdb_profile, ablation_llc, baseline_swap
# and ablation_autonuma, with --jobs 1, 2 and 4 and requires every
# result document to be byte-identical (--no-wall strips the only
# legitimately varying field). This is the end-to-end guarantee the
# harness promises when it shards a scenario's points over --jobs
# threads: worker count must not be observable in any output —
# including the chaos soak, whose seeded FaultPlans must replay
# identically on every worker layout, the page cache, whose
# fill/flush/provider machinery must not leak scheduling order into
# its stats, and the scale-out points of fig07/fig09, the heaviest
# users of the testbed's Ethernet links.
#
# Usage: check_determinism.sh <path-to-tf_bench>

set -e

bench="$1"
if [ -z "$bench" ] || [ ! -x "$bench" ]; then
    echo "usage: $0 <path-to-tf_bench>" >&2
    exit 2
fi

workdir=$(mktemp -d)
# tf_bench writes a panic's flight dump into its --out directory; move
# any into the working directory, where CI collects them, before the
# scratch tree goes.
trap 'find "$workdir" -name "tf_flight_*.json" -exec mv {} . \; ;
      rm -rf "$workdir"' EXIT

scenarios="proto_datapath fig05_stream fig07_ycsb fig09_elastic"
scenarios="$scenarios fault_soak cache_vs_migration fig01_datacenter"
scenarios="$scenarios fig06_voltdb_profile ablation_llc baseline_swap"
scenarios="$scenarios ablation_autonuma"
for jobs in 1 2 4; do
    mkdir -p "$workdir/j$jobs"
    "$bench" --smoke --no-wall --seed 42 --jobs "$jobs" \
        $(printf -- '--scenario %s ' $scenarios) \
        --out "$workdir/j$jobs" > /dev/null
done

# The switched multi-hop fabric is the newest cross-LP machinery:
# every switch is its own logical process, so a config-driven topology
# exercises LP counts and channel layouts none of the C++ scenarios
# reach. noisy_neighbor funnels two RPC flows through a shared
# oversubscribed egress queue — worker count must not perturb the
# queueing order.
configdir=$(dirname "$0")/../configs
for jobs in 1 2 4; do
    mkdir -p "$workdir/tj$jobs"
    "$bench" --smoke --no-wall --seed 42 --jobs "$jobs" \
        --topo "$configdir/noisy_neighbor.json" \
        --topo "$configdir/ring.json" \
        --out "$workdir/tj$jobs" > /dev/null
done

# Windowed telemetry leg: the timeline sampler schedules real events
# (boundary closes, disarm/re-arm through the merge wake hook), so it
# must itself be invisible to worker count — both the `timeline`
# section in the BENCH JSON and the Perfetto counter tracks in the
# trace file. noisy_neighbor's monitors auto-enable its timeline; the
# soak gets an explicit 10 us window over its per-point series.
for jobs in 1 2 4; do
    mkdir -p "$workdir/tlj$jobs"
    "$bench" --smoke --no-wall --seed 42 --jobs "$jobs" \
        --scenario fault_soak --timeline-window 10 \
        --out "$workdir/tlj$jobs" > /dev/null
    "$bench" --smoke --no-wall --seed 42 --jobs "$jobs" \
        --topo "$configdir/noisy_neighbor.json" \
        --trace "$workdir/tlj$jobs/trace.json" \
        --out "$workdir/tlj$jobs" > /dev/null
done

# Both framing modes must hold the guarantee: cut-through adds the
# early-release set and per-transaction staggered delivery, which is
# exactly the kind of machinery that could leak scheduling order.
# proto_datapath builds its own rig; fig05_stream builds testbeds.
framing="proto_datapath fig05_stream"
for jobs in 1 2 4; do
    mkdir -p "$workdir/sfj$jobs"
    "$bench" --smoke --no-wall --seed 42 --jobs "$jobs" \
        --cut-through off $(printf -- '--scenario %s ' $framing) \
        --out "$workdir/sfj$jobs" > /dev/null
done

status=0
for s in $scenarios; do
    for jobs in 2 4; do
        if ! cmp -s "$workdir/j1/BENCH_$s.json" \
                    "$workdir/j$jobs/BENCH_$s.json"; then
            echo "FAIL: $s differs between --jobs 1 and" \
                 "--jobs $jobs" >&2
            diff "$workdir/j1/BENCH_$s.json" \
                 "$workdir/j$jobs/BENCH_$s.json" | head -20 >&2
            status=1
        fi
    done
done
for t in noisy_neighbor ring; do
    for jobs in 2 4; do
        if ! cmp -s "$workdir/tj1/BENCH_$t.json" \
                    "$workdir/tj$jobs/BENCH_$t.json"; then
            echo "FAIL: --topo $t differs between --jobs 1 and" \
                 "--jobs $jobs" >&2
            diff "$workdir/tj1/BENCH_$t.json" \
                 "$workdir/tj$jobs/BENCH_$t.json" | head -20 >&2
            status=1
        fi
    done
done
for f in BENCH_fault_soak.json BENCH_noisy_neighbor.json trace.json; do
    for jobs in 2 4; do
        if ! cmp -s "$workdir/tlj1/$f" "$workdir/tlj$jobs/$f"; then
            echo "FAIL: timeline leg $f differs between --jobs 1" \
                 "and --jobs $jobs" >&2
            diff "$workdir/tlj1/$f" "$workdir/tlj$jobs/$f" \
                | head -20 >&2
            status=1
        fi
    done
done
if ! grep -q '"ph":"C"' "$workdir/tlj1/trace.json"; then
    echo "FAIL: timeline trace carries no counter-track events" >&2
    status=1
fi
if ! grep -q '"timeline"' "$workdir/tlj1/BENCH_fault_soak.json"; then
    echo "FAIL: --timeline-window produced no timeline section" >&2
    status=1
fi
for s in $framing; do
    for jobs in 2 4; do
        if ! cmp -s "$workdir/sfj1/BENCH_$s.json" \
                    "$workdir/sfj$jobs/BENCH_$s.json"; then
            echo "FAIL: $s (--cut-through off) differs between" \
                 "--jobs 1 and --jobs $jobs" >&2
            diff "$workdir/sfj1/BENCH_$s.json" \
                 "$workdir/sfj$jobs/BENCH_$s.json" | head -20 >&2
            status=1
        fi
    done
    if ! grep -q '"cutThrough": false' "$workdir/sfj1/BENCH_$s.json"; then
        echo "FAIL: $s (--cut-through off) does not record the" \
             "framing in meta" >&2
        status=1
    fi
    # Off must change the results, not only the meta line naming it.
    if grep -v '"cutThrough"' "$workdir/sfj1/BENCH_$s.json" |
        cmp -s - "$workdir/j1/BENCH_$s.json"; then
        echo "FAIL: --cut-through off produced the same $s" \
             "results as the default (flag not reaching its beds?)" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "determinism OK: $scenarios + topo noisy_neighbor/ring" \
         "+ timeline/trace byte-identical at --jobs 1/2/4" \
         "(cut-through on and off)"
fi
exit $status
