#!/usr/bin/env bash
# Builds the benchmark and the solve daemon from the checkout's source,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 40 --trace 0
#
# Build outputs and the Go build cache go to .bench_build/ (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ivc" ]]; then
	echo "perfbench: $root holds no stencilivc source tree to build" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
# Keep every Go tool write (build cache, temp files, telemetry) inside
# the checkout, and never reach for a network toolchain or module proxy.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
(cd "$root" && go build -o "$build/ivc" ./cmd/ivc) >&2
cd "$root"
exec "$build/perfbench" --ivc "$build/ivc" "$@"
