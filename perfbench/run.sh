#!/usr/bin/env bash
# Builds the concord CLI and this benchmark from source, then runs one
# workload and prints its result as the last line of stdout.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run directories and results go to .perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p concord-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/concord-perfbench" \
  --concord "$CARGO_TARGET_DIR/release/concord" "$@"
