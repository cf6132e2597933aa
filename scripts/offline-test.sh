#!/usr/bin/env bash
# Tier-1 where the crate registry is not reachable.
#
# `cargo test` at the repo root needs rand, crossbeam-channel and
# parking_lot from crates.io; each has a stand-in under
# benchmark/embench/stubs. This script generates, under target/offline/,
# one throw-away package per workspace crate ([lib] path pointing at the
# crate's src/lib.rs, its tests/*.rs and src/bin/*.rs as targets) plus one
# for the root tests/*.rs and examples/*.rs, all patched onto those
# stand-ins, and runs on each what `cargo test` at the root would: unit
# tests, integration tests, the four examples, the four em-bench binaries
# at --smoke scale (their in-process asserts are the payload), and
# benchmark/embench's own tests. Nothing in the repository is skipped.
#
# Usage: scripts/offline-test.sh [cargo-test-args...]   (e.g. `-- --nocapture`)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$ROOT/target/offline"
STUBS="$ROOT/benchmark/embench/stubs"
# One shared build directory, so each layer crate compiles once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$OUT/build}"

CRATES=(serial disk bsp core service algos baselines bench)

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

# The other workspace crates a crate's targets use (dev-dependencies
# included).
uses() {
    case "$1" in
        serial) echo "" ;;
        disk | bsp) echo "serial" ;;
        core | baselines) echo "serial disk bsp" ;;
        algos) echo "serial disk bsp core" ;;
        service) echo "serial disk bsp core algos" ;;
        bench) echo "serial disk bsp core algos baselines service" ;;
    esac
}

# A [[kind]] target per file matching the glob, named after the file.
targets() {
    local kind="$1" f
    shift
    for f in "$@"; do
        [ -e "$f" ] || continue
        printf '[[%s]]\nname = "%s"\npath = "%s"\n\n' "$kind" "$(basename "$f" .rs)" "$f"
    done
}

gen_crate_pkg() {
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

EOF
        targets test "$ROOT/crates/$c"/tests/*.rs
        targets bin "$ROOT/crates/$c"/src/bin/*.rs
        # shellcheck disable=SC2046 # one word per layer is the point
        deps_block $(uses "$c")
    } >"$dir/Cargo.toml"
}

gen_root_pkg() {
    local dir="$OUT/root-suites"
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

EOF
        targets test "$ROOT"/tests/*.rs
        targets example "$ROOT"/examples/*.rs
        deps_block serial disk bsp core algos baselines service
    } >"$dir/Cargo.toml"
}

FAILED=()
# step <label> <command...>: run it, remember the label if it fails.
step() {
    local label="$1"
    shift
    echo "=== $label"
    if ! "$@"; then
        FAILED+=("$label")
    fi
}

test_pkg() {
    local manifest="$1"
    shift
    cargo test --release --offline --manifest-path "$manifest" "$@"
}

# Binaries run from the repo root: `--smoke` documents land in
# target/bench-results/, never in results/.
run_bin() {
    local manifest="$1"
    shift
    (cd "$ROOT" && cargo run --release --offline --quiet --manifest-path "$manifest" "$@")
}

for c in "${CRATES[@]}"; do
    gen_crate_pkg "$c"
    step "em-$c (unit + integration tests)" test_pkg "$OUT/em-$c/Cargo.toml" "$@"
done
for bin in table1 figures traffic chaos; do
    step "em-bench: $bin --smoke" run_bin "$OUT/em-bench/Cargo.toml" --bin "$bin" -- --smoke
done
gen_root_pkg
step "root suites" test_pkg "$OUT/root-suites/Cargo.toml" "$@"
for example in "$ROOT"/examples/*.rs; do
    example="$(basename "$example" .rs)"
    step "example: $example" run_bin "$OUT/root-suites/Cargo.toml" --example "$example"
done
step "embench" cargo test --release --offline \
    --manifest-path "$ROOT/benchmark/embench/Cargo.toml" --workspace "$@"

if [ "${#FAILED[@]}" -gt 0 ]; then
    echo
    echo "=== FAILED"
    printf '  - %s\n' "${FAILED[@]}"
    exit 1
fi
echo
echo "offline tier-1: every suite passed; nothing skipped"
