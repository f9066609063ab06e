#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# Usage: scripts/ci.sh
#
# Mirrors what a hosted pipeline would run. Fails fast on the cheapest
# check first. Clippy warnings are errors so lints cannot accumulate.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Broken intra-doc links (a renamed or deleted item still named in a
# doc comment) fail the build like lints do.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Re-run the concurrency suites with an explicit worker count: the
# batched executor and the shared history log must behave identically
# whatever SEAMLESS_THREADS says.
echo "==> SEAMLESS_THREADS=2 cargo test -q -p seamless-core --test batch_equivalence --test history_stress"
SEAMLESS_THREADS=2 cargo test -q -p seamless-core --test batch_equivalence --test history_stress

# The golden `SeamlessTuner::tune` fingerprints must hold at any worker
# count: BO acquisition scores its candidate pool on parallel chunks.
# The cached-vs-uncached BayesOpt proposal sequences pin the same
# invariance for EI chunk scoring, BO's remaining fan-out, and the
# k-medoids oracle pins it for the swap candidates scored per worker.
# transfer's unit tests run at both counts too: the cluster index's
# builds score k-medoids swaps over the same workers.
for threads in 1 2; do
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q --test tune_fingerprints"
  SEAMLESS_THREADS="${threads}" cargo test -q --test tune_fingerprints
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p seamless-core --test bo_equivalence"
  SEAMLESS_THREADS="${threads}" cargo test -q -p seamless-core --test bo_equivalence
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p models --test kmedoids_oracle"
  SEAMLESS_THREADS="${threads}" cargo test -q -p models --test kmedoids_oracle
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p seamless-core --lib transfer"
  SEAMLESS_THREADS="${threads}" cargo test -q -p seamless-core --lib transfer
done

# The chaos suite asserts seed-for-seed reproducible fault injection;
# running it at several worker counts proves fault decisions key off the
# global trial index, never the thread that happened to run the trial.
for threads in 1 2 8; do
  echo "==> SEAMLESS_THREADS=${threads} cargo test -q -p seamless-core --test fault_injection"
  SEAMLESS_THREADS="${threads}" cargo test -q -p seamless-core --test fault_injection
done

# The benchmark is a workspace of its own, so the workspace run above
# skips its tests: the span-to-layer map and the agreement of its
# self-time table with trace_summary's. The step only reads perfbench/
# (builds land in its ignored target/), so the tree must stay clean.
echo "==> cargo test --release --offline --manifest-path perfbench/Cargo.toml"
cargo test --release --offline --manifest-path perfbench/Cargo.toml
[ -z "$(git status --porcelain -- perfbench)" ] \
  || { echo "perfbench tests left files behind"; git status --short -- perfbench; exit 1; }

echo "==> cargo build -q -p bench --bins --benches"
cargo build -q -p bench --bins --benches

# Live-telemetry smoke: a chaos-heavy stune run with the flight
# recorder armed must leave Chrome-trace dumps behind, and every dump
# must replay through trace_summary (which parses the trace, rebuilds
# span nesting, and exits non-zero on a malformed file).
echo "==> chaos flight-recorder smoke (stune --chaos --flight-dump + trace_summary)"
flight_dir="$(mktemp -d)"
cargo run -q --bin stune -- tune --workload pagerank --scale tiny \
  --tuner random --budget 12 --batch 4 --chaos 7 \
  --flight-dump "$flight_dir" --sample 2
dumps=("$flight_dir"/flight_*.json)
[ -e "${dumps[0]}" ] || { echo "no flight dump written"; exit 1; }
for dump in "${dumps[@]}"; do
  summary="$(cargo run -q -p bench --bin trace_summary -- "$dump")"
  echo "$summary" | head -n 1
  echo "$summary" | grep -q "# Trace summary" \
    || { echo "trace_summary could not replay $dump"; exit 1; }
done
rm -rf "$flight_dir"

echo "CI OK"
