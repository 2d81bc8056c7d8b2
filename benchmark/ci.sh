#!/usr/bin/env bash
# The benchmark's own gate: its unit tests, then the smoke pass (2^3-cell
# systems, minimum operation counts, every workload untraced and traced,
# every correctness check). Under a minute once built; run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml --bin perf -- run --smoke
