.PHONY: build test check bench clean

build:
	dune build

test:
	dune runtest

# Tier-1: the build and every test, the cram tests of test/*.t included
# (the chaos, observed-explore and durability campaigns are test/chaos.t
# and test/durability.t).
check:
	dune build && dune runtest

bench:
	dune exec bench/main.exe

clean:
	dune clean
