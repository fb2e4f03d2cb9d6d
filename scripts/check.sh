#!/usr/bin/env bash
# check.sh — the repo's verification gate: vet, project lint (svclint),
# build, race-enabled tests, the nested svcdbench module's vet and tests,
# and a race storm with runtime invariant assertions compiled in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> svclint ./... (project invariant analyzers, incl. the v2 whole-program quartet: lockorder, durabilitycheck, errflow, goroutinelife)"
go run ./cmd/svclint ./...

# The same suite through go vet's unitchecker protocol: one package per
# process with a degraded single-package graph — both modes must be
# clean (see docs/INVARIANTS.md, escape hatches).
echo "==> go vet -vettool=svclint ./... (unitchecker mode)"
svclint_bin=$(mktemp /tmp/svclint.XXXXXX)
trap 'rm -f "$svclint_bin"' EXIT
go build -o "$svclint_bin" ./cmd/svclint
go vet -vettool="$svclint_bin" ./...

# Optional external linters: used when the toolchain is present, never
# a hard dependency of the gate (offline/container builds lack them).
if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck ./..."
  staticcheck ./...
else
  echo "==> staticcheck not installed; skipping"
fi
if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck ./..."
  govulncheck ./...
else
  echo "==> govulncheck not installed; skipping"
fi

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# svcdbench is a nested module: the root ./... never compiles it.
echo "==> svcdbench: go vet ./... && go test ./..."
(cd svcdbench && go vet ./... && go test ./...)

# The storm test under -tags invariants additionally asserts Eq. 4
# occupancy after every commit and staging-order == log-order in the
# WAL's group commit (see docs/INVARIANTS.md).
echo "==> go test -race -tags invariants (storm + wal)"
go test -race -tags invariants -run 'TestOptimisticStormInvariants' ./internal/core/
go test -race -tags invariants ./internal/wal/

echo "OK"
