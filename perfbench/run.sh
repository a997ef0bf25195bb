#!/usr/bin/env bash
# Runs the mcdla benchmark from the repository root, e.g.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# It builds the benchmark first when the binary is missing or older than
# any Rust source or manifest, and otherwise runs the binary as built.
# `cargo run` would rebuild on every call in a checkout without git
# metadata: the build script of crates/obs watches `.git/HEAD`, and a
# watched file that does not exist always reads as changed.
set -euo pipefail

bin="${CARGO_TARGET_DIR:-perfbench/target}/release/mcdla-perfbench"
if [ ! -x "$bin" ] || [ -n "$(find crates perfbench Cargo.toml Cargo.lock -newer "$bin" \
    \( -name '*.rs' -o -name '*.toml' -o -name Cargo.lock \) -print -quit 2>/dev/null)" ]; then
    cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
fi
exec "$bin" "$@"
