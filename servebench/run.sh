#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash servebench/run.sh --workload tiny-local --seed 1 --seconds 10 --trace 0
#
# Everything it writes (binary, Go build cache, generated inputs, spans) goes
# under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/home"
(
	cd "$here"
	env GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOPATH="$out/go/home" \
		HOME="$out/go/home" XDG_CONFIG_HOME="$out/go/home" \
		GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOSUMDB=off \
		go build -o "$out/servebench" .
)
cd "$root"
exec "$out/servebench" --work "$out/servebench-work" "$@"
