#!/usr/bin/env bash
# Builds cmd/netserve and the benchmark from this checkout, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload hit-heavy --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binaries, state snapshots and span dumps.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/netserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a netcut checkout" >&2
	exit 2
fi

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"

# CGO_ENABLED=0 keeps the build pure Go: no C compiler, and no linker
# temp files outside the build directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOPATH="$build/home/go" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -o "$build/netserve" ./cmd/netserve
(cd perfbench && go build -o "$build/perfbench" .)

# The commit SHA when the checkout is a git work tree, else a digest of
# the Go sources, so every result still names the code it measured.
if [[ -e .git ]] && commit=$(git rev-parse HEAD 2>/dev/null); then
	commit="git:$commit"
else
	commit="tree:$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
exec "$build/perfbench" -netserve "$build/netserve" -work "$build/perfbench-work" -commit "$commit" "$@"
