#!/usr/bin/env bash
# Builds the perf ledger (release, offline) and runs it.
#
#   benchmark/run.sh                         every workload, each in its own process
#   benchmark/run.sh --trace 1               ... and the per-layer (traced) runs
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --selfcheck [--trace 1] two full sets of one binary, compared
#
# Prints every metric as `name unit value`; the last line of a --workload run
# is one JSON object. Exits non-zero when a check fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"
exec "$CARGO_TARGET_DIR/release/tvm-perf" --dir "$here" --commit "$commit" "$@"
