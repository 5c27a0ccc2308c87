#!/usr/bin/env bash
# Builds psbench from the checkout's sources and runs it; run it from the
# repository root:
#
#   bash cmd/psbench/run.sh --workload enclave-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory,
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache, temporary
# files, scratch trees and trace files. The build is offline and uses the
# installed toolchain only.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-build" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C cmd/psbench -o "$out/psbench" .
exec "$out/psbench" -root . -out "$out" "$@"
