#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from the checkout it is
# run in and hands it the driver's arguments. Everything the Go toolchain
# writes (build cache, temporary files, its own counters, the binary) stays
# under .bench_build in that checkout; the benchmark itself writes only under
# bench/out.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config/go/telemetry"
# With a fresh config directory the go command would start its telemetry
# child, which outlives the build; mode "off" starts no process.
echo off >"$build/config/go/telemetry/mode"
env GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$build/primacy-bench" ./bench
exec "$build/primacy-bench" "$@"
