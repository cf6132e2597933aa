#!/usr/bin/env bash
# Tier-1 where the crate registry is not reachable.
#
# `cargo test` at the repo root needs proptest, criterion and serde in
# source form. Everything else the workspace uses from crates.io (rand,
# crossbeam-channel, parking_lot) has a stand-in under
# benchmark/embench/stubs. This script generates, under target/offline/,
# one throw-away package per library crate ([lib] path pointing at the
# crate's src/lib.rs, normal dependencies only) plus one for the root
# tests/*.rs, all patched onto those stand-ins, runs
# `cargo test --release --offline` on each and on benchmark/embench, and
# prints what it had to skip and why.
#
# Usage: scripts/offline-test.sh [cargo-test-args...]   (e.g. `-- --nocapture`)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$ROOT/target/offline"
STUBS="$ROOT/benchmark/embench/stubs"
# One shared build directory, so each layer crate compiles once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$OUT/build}"

# Library crates whose unit tests compile against the stand-ins.
UNIT_CRATES=(serial disk bsp core service)
# Root integration suites that compile against the stand-ins.
ROOT_SUITES=(cache_modes checkpoint_restart compute_modes cross_executor
    engine_equivalence failure_injection fault_recovery file_backend
    message_alloc_budget par_stress planner_roundtrip reorg_modes
    routing_alloc_budget service thread_leak)

SKIPPED=(
    "em-algos, em-baselines unit tests: the rand stand-in lacks gen/fill/i64 ranges"
    "crates/*/tests/proptest_*.rs: need proptest"
    "em-bench (bins, criterion benches): needs serde, serde_json, criterion"
)

# A [dependencies] table on the given layer crates plus the three
# crates.io names, then the patch onto the stand-ins.
deps_block() {
    local c
    echo "[dependencies]"
    for c in "$@"; do
        echo "em-$c = { path = \"$ROOT/crates/$c\" }"
    done
    cat <<EOF
rand = { version = "0.8", features = ["small_rng"] }
crossbeam-channel = "0.5"
parking_lot = "0.12"

[patch.crates-io]
rand = { path = "$STUBS/rand" }
crossbeam-channel = { path = "$STUBS/crossbeam-channel" }
parking_lot = { path = "$STUBS/parking_lot" }

[profile.release]
debug = "line-tables-only"
EOF
}

# What a crate's unit tests use: the layers below it (em-service's also
# sort with em-algos).
lower_layers() {
    case "$1" in
        serial) echo "" ;;
        disk) echo "serial" ;;
        bsp) echo "serial" ;;
        core) echo "serial disk bsp" ;;
        service) echo "serial disk bsp core algos" ;;
    esac
}

gen_unit_pkg() {
    local c="$1" dir="$OUT/em-$1"
    mkdir -p "$dir"
    {
        cat <<EOF
[package]
name = "em-$c-offline"
version = "0.0.0"
edition = "2021"
publish = false

[lib]
name = "em_$c"
path = "$ROOT/crates/$c/src/lib.rs"

[workspace]

[features]
io-uring = []

EOF
        # shellcheck disable=SC2046 # one word per layer is the point
        deps_block $(lower_layers "$c")
    } >"$dir/Cargo.toml"
}

gen_root_pkg() {
    local dir="$OUT/root-suites" t
    mkdir -p "$dir"
    {
        cat <<EOF
[package]
name = "em-sim-offline"
version = "0.0.0"
edition = "2021"
publish = false

[lib]
name = "em_sim"
path = "$ROOT/src/lib.rs"

[workspace]

[features]
io-uring = []

EOF
        for t in "${ROOT_SUITES[@]}"; do
            printf '[[test]]\nname = "%s"\npath = "%s/tests/%s.rs"\n\n' "$t" "$ROOT" "$t"
        done
        deps_block serial disk bsp core algos baselines service
    } >"$dir/Cargo.toml"
}

FAILED=()
run() {
    local label="$1" manifest="$2"
    shift 2
    echo "=== $label"
    if ! cargo test --release --offline --manifest-path "$manifest" "$@"; then
        FAILED+=("$label")
    fi
}

for c in "${UNIT_CRATES[@]}"; do
    gen_unit_pkg "$c"
    run "em-$c (unit tests)" "$OUT/em-$c/Cargo.toml" --lib "$@"
done
gen_root_pkg
run "root suites: ${ROOT_SUITES[*]}" "$OUT/root-suites/Cargo.toml" --tests "$@"
run "embench" "$ROOT/benchmark/embench/Cargo.toml" --workspace "$@"

echo
echo "=== skipped here (run them with \`cargo test\` on a networked host)"
printf '  - %s\n' "${SKIPPED[@]}"
if [ "${#FAILED[@]}" -gt 0 ]; then
    echo
    echo "=== FAILED"
    printf '  - %s\n' "${FAILED[@]}"
    exit 1
fi
echo
echo "offline tier-1: all runnable suites passed"
