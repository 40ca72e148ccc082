#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload heat-fine --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build at the root): the Go build
# cache, temporary files, the binary and the traced run's span files.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOPATH=$build/gopath
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

# The revision is recorded when the root is itself a git work tree; the
# ceiling keeps git from finding an enclosing repository instead.
rev=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null \
	git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" --rev "$rev" --spans-dir "$build/spans" "$@"
