#!/bin/sh
# CI entry point: delegates to `make check` (build + `dune runtest`,
# whose cram tests include the journaled profile and explore campaigns
# and a live daemon, + the chaos, observed-explore and durability shell
# smokes).
# The Makefile is the single source of truth for what CI runs.
set -eu
cd "$(dirname "$0")"

make check

echo "ci: all checks passed"
