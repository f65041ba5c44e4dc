#!/bin/sh
# CI entry point: tier-1, the same line as `make check`.
set -eu
cd "$(dirname "$0")"
dune build && dune runtest
