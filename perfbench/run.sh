#!/usr/bin/env bash
# Builds the `wdm` daemon and the benchmark from source, then runs one
# benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload nsfnet-churn --seed 1 --seconds 10 --trace 0
#
# Cargo output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
# One target directory for both builds, so the shared crates build once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p wdm-cli --bin wdm >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/wdm-perfbench" --wdm "$CARGO_TARGET_DIR/release/wdm" \
  --work "$CARGO_TARGET_DIR/perfbench-work" "$@"
