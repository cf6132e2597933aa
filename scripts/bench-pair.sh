#!/usr/bin/env bash
# Parent-vs-change benchmark pairs, the way a PR that claims a gain has to
# report them (EXPERIMENTS.md, "Layer chain"): both `embench` binaries
# built once, then alternating `driver` runs on matched seeds, per-metric
# medians, quartiles and win counts, each row checked against its bound in
# BENCHMARK.json (OVER: the change's median is worse than the parent's by
# more than the bound — the rule that rejects a change; SPREAD: not OVER,
# not tied on every pair, but the parent's own q3 - q1 exceeds the bound
# relative to its median, so the host was too noisy to tell and the row is
# unresolved). The closing line names the command that reruns each workload
# with an OVER row.
#
# Usage: scripts/bench-pair.sh <parent-ref> <workload> [pairs]
#        scripts/bench-pair.sh <parent-ref> <workload> trace [n]
#   <parent-ref>  any commit-ish of this repository (HEAD~1, a hash, main)
#   <workload>    sort-mem | sort-file | listrank-par | service-mix, or `all`:
#                 BENCHMARK.json's workloads back to back on the one pair of
#                 builds, in one table (what a gain claim has to report)
#   [pairs]       parent/change pairs to run per workload (default 10)
#   trace [n]     the per-layer half instead: n (default 3) alternations of
#                 `embench trace` per workload, each side's core.wall.*,
#                 core.sim_overhead_x, bsp.ref_job_ms, serial.*, service.*
#                 (0 off service-mix), the job's spread (harness.reps,
#                 harness.job_ms_p90, harness.job_ms_iqr_frac) and the disk
#                 ladder's rungs
#                 (disk.*_stripe_us, disk.sync_ms) run by run with medians,
#                 and `embench compare` of the first alternation's two
#                 layers.json (every exact count must tie). Each run keeps
#                 its own directory, traces/<workload>-<side>-seed<seed>, and
#                 the summary reads back this invocation's seeds only
#
# The change is the working tree as it stands. The parent is exported with
# `git archive` into a scratch directory, both binaries are built into
# target directories there, and every run's `.bench_scratch` (a traced
# run's files: `traces/`, `tmp/`) lands there too: nothing is written
# inside benchmark/ or anywhere else in the checkout. Scratch directory:
# $BENCH_PAIR_DIR, default ${TMPDIR:-/tmp}/em-bench-pair (kept between
# calls, so a second workload reuses the builds). Run length is the
# driver's own: BENCHMARK.json's `run_seconds`. Needs python3 for the
# arithmetic.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ] || { [ $# -eq 4 ] && [ "$3" != trace ]; }; then
    sed -n '2,/^[^#]/s/^# \{0,1\}//p' "$0"
    exit 2
fi
PARENT_REF="$1"
WORKLOAD="$2"
if [ "${3:-}" = trace ]; then
    MODE=trace
    PAIRS="${4:-3}"
else
    MODE=driver
    PAIRS="${3:-10}"
fi

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SCRATCH="${BENCH_PAIR_DIR:-${TMPDIR:-/tmp}/em-bench-pair}"
SECONDS_PER_RUN="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$ROOT/BENCHMARK.json")"
# Seeds no committed row was tuned on; pair i uses BASE_SEED + i on both sides.
BASE_SEED="${BENCH_PAIR_SEED:-4000}"
if [ "$WORKLOAD" = all ]; then
    WORKLOADS="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$ROOT/BENCHMARK.json")"
else
    WORKLOADS="$WORKLOAD"
fi

parent_sha="$(git -C "$ROOT" rev-parse --verify "$PARENT_REF^{commit}")"
mkdir -p "$SCRATCH/bin" "$SCRATCH/runs"

# The parent's source, exported once per commit.
if [ "$(cat "$SCRATCH/parent.sha" 2>/dev/null || true)" != "$parent_sha" ]; then
    rm -rf "$SCRATCH/parent"
    mkdir -p "$SCRATCH/parent"
    git -C "$ROOT" archive "$parent_sha" | tar -x -C "$SCRATCH/parent"
    echo "$parent_sha" >"$SCRATCH/parent.sha"
fi

build() { # <side> <source root>
    echo "building $1 ($2)" >&2
    CARGO_TARGET_DIR="$SCRATCH/target-$1" cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/embench/Cargo.toml"
    cp "$SCRATCH/target-$1/release/embench" "$SCRATCH/bin/embench-$1"
}
build parent "$SCRATCH/parent"
build change "$ROOT"

run_side() { # <workload> <side> <pair index>
    local out="$SCRATCH/runs/$1-$2-$3.json"
    (cd "$SCRATCH" && "bin/embench-$2" driver --workload "$1" \
        --seed "$((BASE_SEED + $3))" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1) >"$out"
    echo "  pair $3 $2: $(python3 -c '
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
print(", ".join("%s %.4g" % (k, v["value"]) for k, v in m.items()))' "$out")" >&2
}

trace_dir() { # <workload> <side> <alternation index>
    echo "$SCRATCH/traces/$1-$2-seed$((BASE_SEED + $3))"
}

trace_side() { # <workload> <side> <alternation index>
    local out
    out="$(trace_dir "$1" "$2" "$3")"
    rm -rf "$out"
    mkdir -p "$out" "$SCRATCH/tmp"
    "$SCRATCH/bin/embench-$2" trace --workload "$1" --seed "$((BASE_SEED + $3))" \
        --seconds "$SECONDS_PER_RUN" --dir "$SCRATCH/tmp" --out "$out" >"$out/stdout.txt"
    echo "  alternation $3 $2: $out/layers.json" >&2
}

if [ "$MODE" = trace ]; then
    for workload in $WORKLOADS; do
        echo "$workload: $PAIRS traced alternations of ${SECONDS_PER_RUN}s runs, parent $parent_sha" >&2
        for i in $(seq 1 "$PAIRS"); do
            if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
            for side in $order; do trace_side "$workload" "$side" "$i"; done
        done
    done
    # shellcheck disable=SC2086 # one argument per workload is the point
    python3 - "$SCRATCH/traces" "$PAIRS" "$BASE_SEED" $WORKLOADS <<'EOF'
import json, statistics, sys
traces, n, base, workloads = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
seeds = [base + i for i in range(1, n + 1)]
def shown(name):
    ladder = name.startswith("disk.") and name.endswith("_stripe_us") or name == "disk.sync_ms"
    spread = ("harness.job_ms_iqr_frac", "harness.job_ms_p90", "harness.reps")
    return ladder or name.startswith(("core.wall.", "serial.", "service.")) or name in ("core.sim_overhead_x", "bsp.ref_job_ms") + spread
for workload in workloads:
    sides = {}
    for side in ("parent", "change"):
        runs = [json.load(open(f"{traces}/{workload}-{side}-seed{seed}/layers.json")) for seed in seeds]
        sides[side] = [next(w for w in r["workloads"] if w["name"] == workload)["metrics"] for r in runs]
    print(f"\n{workload}: {n} traced alternations (seeds {seeds[0]}..{seeds[-1]}), run by run, then [the median]")
    for name in filter(shown, sides["parent"][0]):
        cells = []
        for side in ("parent", "change"):
            values = [m[name]["value"] for m in sides[side] if name in m]
            cells.append(" / ".join(f"{v:.4g}" for v in values) + f"  [{statistics.median(values):.4g}]")
        print(f"  {name:<28} {cells[0]:<44} -> {cells[1]}")
EOF
    for workload in $WORKLOADS; do
        echo
        echo "$workload: embench compare, alternation 1 (exact counts must tie; timings are one run each)"
        "$SCRATCH/bin/embench-change" compare "$(trace_dir "$workload" parent 1)/layers.json" \
            "$(trace_dir "$workload" change 1)/layers.json" || true
    done
    exit 0
fi

for workload in $WORKLOADS; do
    echo "$workload: $PAIRS pairs of ${SECONDS_PER_RUN}s runs, parent $parent_sha" >&2
    rm -f "$SCRATCH/runs/$workload"-*.json
    for i in $(seq 1 "$PAIRS"); do
        # Alternate which side runs first, so drift favours neither.
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do run_side "$workload" "$side" "$i"; done
    done
done

# shellcheck disable=SC2086 # one argument per workload is the point
python3 - "$SCRATCH/runs" "$PAIRS" "$ROOT/BENCHMARK.json" "$PARENT_REF" $WORKLOADS <<'EOF'
import json, shlex, statistics, sys
runs, pairs, spec, parent_ref, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5:]
metrics = json.load(open(spec))["end_to_end"]
better = {m["name"]: m["better"] for m in metrics}
bound = {m["name"]: m["bound"] for m in metrics}
def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]
print(f"\n{pairs} pairs per workload")
print(f"{'workload':<13} {'metric':<17} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'delta':>8} {'bound':>6}  wins/ties/losses")
over, spread = [], []
for workload in workloads:
    sides = {s: [json.load(open(f"{runs}/{workload}-{s}-{i}.json")) for i in range(1, pairs + 1)]
             for s in ("parent", "change")}
    for name, direction in better.items():
        p = [r["metrics"][name]["value"] for r in sides["parent"]]
        c = [r["metrics"][name]["value"] for r in sides["change"]]
        sign = -1 if direction == "lower" else 1
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        ties = sum(x == y for x, y in zip(p, c))
        mp, mc = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        delta = f"{(mc - mp) / mp * 100:+.1f}%" if mp else "n/a"
        # The rule that rejects a change: its median worse than the
        # parent's by more than the metric's bound in BENCHMARK.json.
        worse = sign * (mp - mc) / abs(mp) if mp else (0.0 if mc == mp else float("inf"))
        # Wider than the bound before the change did anything: unresolved,
        # unless every pair ties (a spread across seeds, not noise).
        noise = (p3 - p1) / abs(mp) if mp else (0.0 if p3 == p1 else float("inf"))
        if worse > bound[name]:
            flag = "OVER"
            over.append((workload, f"{workload}/{name} ({delta})"))
        elif noise > bound[name] and ties < pairs:
            flag = "SPREAD"
            spread.append(f"{workload}/{name} ({delta}, parent q3 - q1 {noise * 100:.0f}%)")
        else:
            flag = f"{bound[name] * 100:.0f}%"
        print(f"{workload:<13} {name:<17} {mp:>12.5g} [{p1:.5g}, {p3:.5g}]".ljust(67)
              + f"{mc:>12.5g} [{c1:.5g}, {c3:.5g}]".ljust(36)
              + f"{delta:>8} {flag:>6}  {wins}/{ties}/{pairs - wins - ties}")
    failed = {s: sum(r["failed"] for r in rs) for s, rs in sides.items()}
    attempted = {s: sum(r["attempted"] for r in rs) for s, rs in sides.items()}
    print(f"{workload:<13} failed/attempted: parent {failed['parent']}/{attempted['parent']}, "
          f"change {failed['change']}/{attempted['change']}")
print("a gain counts when the change wins at least 9 pairs in 10 and the medians differ by more "
      "than the parent's q3 - q1; otherwise report the metric as unresolved or unchanged")
print("rows SPREAD (the parent's q3 - q1 wider than the bound: unresolved, not a change): "
      + (", ".join(spread) if spread else "none"))
reruns = dict.fromkeys(w for w, _ in over)
print("rows OVER their BENCHMARK.json bound (the change's median worse than the parent's by more "
      "than the bound): " + (", ".join(row for _, row in over) if over else "none")
      + "".join(f"; rerun: scripts/bench-pair.sh {shlex.quote(parent_ref)} {w} 10" for w in reruns))
EOF
