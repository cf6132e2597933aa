#!/usr/bin/env bash
# Everything in the tree, with no crate registry: the root Cargo.toml
# patches rand, crossbeam-channel and parking_lot onto the stand-ins under
# benchmark/embench/stubs, so these are plain cargo commands — every
# workspace test (unit, integration, property, doc), the four examples, the
# two em-bench binaries at --smoke scale (their in-process asserts are the
# payload) and benchmark/embench's own tests. Nothing is skipped.
#
# Usage: scripts/offline-test.sh [cargo-test-args...]   (e.g. `-- --nocapture`)
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
# One build directory for both workspaces, so nothing is written inside
# benchmark/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"

cargo test --workspace --release --offline "$@"
for example in quickstart gis_pipeline graph_pipeline out_of_core_sort; do
    cargo run --release --offline --quiet --example "$example"
done
# `--smoke` documents land in target/bench-results/, never in results/.
for bin in table1 figures; do
    cargo run --release --offline --quiet -p em-bench --bin "$bin" -- --smoke
done
cargo test --release --offline --manifest-path benchmark/embench/Cargo.toml --workspace "$@"

echo
echo "offline tier-1: every suite passed; nothing skipped"
