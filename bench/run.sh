#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout root. Everything the build writes (binary, Go build cache) lands
# under .bench_build/, which the root .gitignore names.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/nomap-bench" .)
cd "$root"
exec "$out/nomap-bench" "$@"
