#!/usr/bin/env bash
# End-to-end benchmark of the svcd admission daemon. Run from the root of
# the repository:
#
#   bash svcdbench/run.sh --workload paper-online --seed 1 --seconds 20 --trace 0
#
# Builds svcd and the harness into .bench_build (the Go build cache and
# temporary files stay there too), then runs the harness, whose last
# line of output is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/svcd" || ! -f "$root/svcdbench/go.mod" ]]; then
	echo "svcdbench: run from the repository root (svcd sources not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/svcd" ./cmd/svcd
(cd "$root/svcdbench" && go build -o "$out/svcdbench" .)
exec "$out/svcdbench" -svcd "$out/svcd" -work "$out/work" "$@"
