.PHONY: all build test smoke durability-smoke check bench clean

all: build

build:
	dune build

test:
	dune runtest

# Two smoke campaigns through the CLI, each run twice so the second run
# resumes from the first's journal (the journaled profile and explore
# campaigns are the cram test test/campaign.t, part of `dune runtest`):
#   1. a chaos campaign (10% fault injection into the SUT itself), whose
#      journal must then pass fsck (doc/harden.md);
#   2. an observed explore (--trace/--metrics, doc/obsv.md) whose trace
#      must validate and whose journal+metrics must render the HTML
#      dashboard, from the fresh journal and again after a resume.
smoke: build
	rm -f /tmp/conferr-chaos.jsonl
	rm -f /tmp/conferr-obsv.jsonl /tmp/conferr-trace.json \
	  /tmp/conferr-metrics.prom /tmp/conferr-report.html
	dune exec bin/main.exe -- chaos --sut postgres --jobs 2 --timeout 0.5 \
	  --journal /tmp/conferr-chaos.jsonl --stats
	dune exec bin/main.exe -- fsck /tmp/conferr-chaos.jsonl
	dune exec bin/main.exe -- chaos --sut postgres --jobs 2 --timeout 0.5 \
	  --journal /tmp/conferr-chaos.jsonl --resume --stats
	dune exec bin/main.exe -- explore --sut postgres --jobs 2 \
	  --budget 48 --batch 16 --journal /tmp/conferr-obsv.jsonl \
	  --trace /tmp/conferr-trace.json --metrics /tmp/conferr-metrics.prom
	dune exec bin/main.exe -- report --check-trace /tmp/conferr-trace.json
	dune exec bin/main.exe -- report --journal /tmp/conferr-obsv.jsonl \
	  --metrics /tmp/conferr-metrics.prom --html /tmp/conferr-report.html
	test -s /tmp/conferr-metrics.prom
	test -s /tmp/conferr-report.html
	dune exec bin/main.exe -- explore --sut postgres --jobs 2 \
	  --budget 48 --batch 16 --journal /tmp/conferr-obsv.jsonl --resume \
	  --trace /tmp/conferr-trace.json --metrics /tmp/conferr-metrics.prom
	dune exec bin/main.exe -- report --journal /tmp/conferr-obsv.jsonl \
	  --html /tmp/conferr-report.html
	test -s /tmp/conferr-report.html

# Durability smoke (doc/exec.md, doc/harden.md): the v3 segmented
# journal under storage chaos, end to end through the CLI.
#   1. a seeded disk-chaos campaign (--disk, 10% fault rate) at --jobs 4
#      into a --segment-bytes store must terminate (complete, or abort
#      on the first raising fault — either way exit <= 1);
#   2. fsck --repair must heal the store and the JSON report must then
#      say "clean":true;
#   3. a chaos-off --resume must complete and re-execute nothing that
#      was already durable (the resumed journal fscks clean with every
#      scenario exactly once — profile re-verifies via fsck);
#   4. a daemon started with --inject-disk-fault must fail only the
#      faulted campaign (c0001 failed, journal-fault metric exposed)
#      while its co-tenant completes (c0002 done).
durability-smoke: build
	rm -rf /tmp/conferr-dura.v3 /tmp/conferr-dura-state \
	  /tmp/conferr-dura.port /tmp/conferr-dura-fsck.json
	set -e; \
	BIN=_build/default/bin/main.exe; \
	$$BIN chaos --sut postgres --jobs 4 --timeout 0.5 --chaos-rate 0.1 \
	  --journal /tmp/conferr-dura.v3 --segment-bytes 4096 --disk \
	  || test $$? -le 1
	dune exec bin/main.exe -- fsck --repair /tmp/conferr-dura.v3
	dune exec bin/main.exe -- fsck --format json /tmp/conferr-dura.v3 \
	  > /tmp/conferr-dura-fsck.json
	grep -q '"clean":true' /tmp/conferr-dura-fsck.json
	dune exec bin/main.exe -- chaos --sut postgres --jobs 4 --timeout 0.5 \
	  --journal /tmp/conferr-dura.v3 --segment-bytes 4096 --resume --stats
	dune exec bin/main.exe -- fsck /tmp/conferr-dura.v3
	set -e; \
	BIN=_build/default/bin/main.exe; \
	$$BIN serve --port 0 --port-file /tmp/conferr-dura.port \
	  --state-dir /tmp/conferr-dura-state --jobs 2 --segment-bytes 4096 \
	  --inject-disk-fault & \
	DPID=$$!; \
	for i in $$(seq 1 50); do \
	  test -s /tmp/conferr-dura.port && break; sleep 0.1; \
	done; \
	test -s /tmp/conferr-dura.port || { kill $$DPID; exit 1; }; \
	PORT=$$(cat /tmp/conferr-dura.port); \
	$$BIN submit --port $$PORT --sut mini_pg --seed 7; \
	$$BIN submit --port $$PORT --sut mini_pg --seed 7; \
	$$BIN watch --port $$PORT c0002 > /dev/null; \
	$$BIN status --port $$PORT c0001 | grep -q failed; \
	$$BIN status --port $$PORT c0002 | grep -q done; \
	$$BIN get --port $$PORT /metrics | grep -q conferr_journal_faults_total; \
	kill -TERM $$DPID; \
	wait $$DPID

# The lint, analyze, infer, repair and serve smokes are cram tests
# (test/{lint,analyze,infer,repair,serve}.t), part of `dune runtest`.
check: build test smoke durability-smoke

bench:
	dune exec bench/main.exe

clean:
	dune clean
