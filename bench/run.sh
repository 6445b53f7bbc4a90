#!/bin/sh
# Builds the benchmark from the root module and runs it from bench/, with the
# Go build cache, temporary files and the toolchain's configuration
# (XDG_CONFIG_HOME) inside the checkout, so that nothing is written outside it.
set -e
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/bench/.build/gocache" GOTMPDIR="$PWD/bench/.build/tmp" XDG_CONFIG_HOME="$PWD/bench/.build/config"
# Telemetry off before the first go command: with a fresh configuration
# directory every go command would otherwise start a detached child of its own
# (the telemetry uploader) that nobody waits for and that outlives the run.
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o bench/.build/bench ./bench
cd bench
exec .build/bench "$@"
