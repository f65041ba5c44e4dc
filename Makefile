.PHONY: all build test smoke lint-smoke analyze-smoke serve-smoke \
  infer-smoke repair-smoke durability-smoke check bench clean

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

# Static-analysis smoke (doc/lint.md):
#   1. every SUT's stock configuration — and the checked-in copies under
#      examples/configs/ — must lint clean;
#   2. a validator-gap scan over a fresh postgres campaign journal must
#      find gaps (exit 1), be byte-identical for --jobs 1 and --jobs 4,
#      and render the dashboard's validator-gaps panel + gap metrics.
lint-smoke: build
	rm -f /tmp/conferr-lint.jsonl /tmp/conferr-gaps-j1.txt \
	  /tmp/conferr-gaps-j4.txt /tmp/conferr-gaps.html /tmp/conferr-gaps.prom
	for sut in postgres mysql apache bind djbdns appserver; do \
	  dune exec bin/main.exe -- lint --sut $$sut --fail-on warn || exit 1; \
	done
	dune exec bin/main.exe -- lint --sut postgres --fail-on warn \
	  examples/configs/postgresql.conf
	dune exec bin/main.exe -- lint --sut bind --fail-on warn \
	  examples/configs/named.conf examples/configs/example.com.zone \
	  examples/configs/0.0.10.in-addr.arpa.zone
	dune exec bin/main.exe -- profile --sut postgres --jobs 2 \
	  --journal /tmp/conferr-lint.jsonl
	dune exec bin/main.exe -- gaps --sut postgres \
	  --journal /tmp/conferr-lint.jsonl > /tmp/conferr-gaps-j1.txt; \
	  test $$? -eq 1
	dune exec bin/main.exe -- gaps --sut postgres --jobs 4 \
	  --journal /tmp/conferr-lint.jsonl > /tmp/conferr-gaps-j4.txt; \
	  test $$? -eq 1
	cmp /tmp/conferr-gaps-j1.txt /tmp/conferr-gaps-j4.txt
	dune exec bin/main.exe -- gaps --sut postgres \
	  --journal /tmp/conferr-lint.jsonl --html /tmp/conferr-gaps.html \
	  --metrics /tmp/conferr-gaps.prom > /dev/null; test $$? -eq 1
	grep -q "Validator gaps" /tmp/conferr-gaps.html
	grep -q conferr_gap_total /tmp/conferr-gaps.prom

# Corpus-analysis smoke (doc/lint.md, dataflow section):
#   1. every SUT's stock configuration set must analyze clean (no
#      relation violations, no taint, no dangling references);
#   2. the paper's pg cross-parameter fault (max_fsm_pages and
#      max_fsm_relations both individually in range but mutually
#      inconsistent) must be caught *statically* as a relation
#      violation naming both ConfPaths, byte-identically for --jobs 1
#      and --jobs 4;
#   3. --format sarif must emit schema-tagged SARIF 2.1.0 carrying the
#      relation result and its related location;
#   4. --html/--metrics must render the corpus-analysis panel and the
#      conferr_dataflow_findings_total counter;
#   5. gaps --deep over a fresh pg campaign must reclassify the silent
#      acceptances that gap-claiming rules predicted: the base scan
#      exits 1 with silent-acceptance rows, the deep scan drives them
#      to zero.
analyze-smoke: build
	rm -rf /tmp/conferr-analyze
	mkdir -p /tmp/conferr-analyze
	for sut in postgres mysql apache bind djbdns appserver; do \
	  dune exec bin/main.exe -- analyze --sut $$sut --fail-on warn || exit 1; \
	done
	sed -e 's/max_fsm_pages = 153600/max_fsm_pages = 1500/' \
	  -e 's/max_fsm_relations = 1000/max_fsm_relations = 20000/' \
	  examples/configs/postgresql.conf \
	  > /tmp/conferr-analyze/postgresql.conf
	dune exec bin/main.exe -- analyze --sut postgres \
	  /tmp/conferr-analyze/postgresql.conf \
	  > /tmp/conferr-analyze/j1.txt; test $$? -eq 1
	grep -q "PG-REL-FSM" /tmp/conferr-analyze/j1.txt
	grep -q "/max_fsm_pages" /tmp/conferr-analyze/j1.txt
	grep -q "/max_fsm_relations" /tmp/conferr-analyze/j1.txt
	dune exec bin/main.exe -- analyze --sut postgres --jobs 4 \
	  /tmp/conferr-analyze/postgresql.conf \
	  > /tmp/conferr-analyze/j4.txt; test $$? -eq 1
	cmp /tmp/conferr-analyze/j1.txt /tmp/conferr-analyze/j4.txt
	dune exec bin/main.exe -- analyze --sut postgres --format sarif \
	  /tmp/conferr-analyze/postgresql.conf \
	  > /tmp/conferr-analyze/out.sarif; test $$? -eq 1
	grep -q '"version":"2.1.0"' /tmp/conferr-analyze/out.sarif
	grep -q 'sarif-2.1.0' /tmp/conferr-analyze/out.sarif
	grep -q 'relatedLocations' /tmp/conferr-analyze/out.sarif
	dune exec bin/main.exe -- analyze --sut postgres \
	  --html /tmp/conferr-analyze/report.html \
	  --metrics /tmp/conferr-analyze/metrics.prom \
	  /tmp/conferr-analyze/postgresql.conf > /dev/null; test $$? -eq 1
	grep -q "Corpus analysis" /tmp/conferr-analyze/report.html
	grep -q conferr_dataflow_findings_total /tmp/conferr-analyze/metrics.prom
	dune exec bin/main.exe -- profile --sut postgres --jobs 2 \
	  --journal /tmp/conferr-analyze/campaign.jsonl > /dev/null
	dune exec bin/main.exe -- gaps --sut postgres \
	  --journal /tmp/conferr-analyze/campaign.jsonl \
	  > /tmp/conferr-analyze/gaps-base.txt; test $$? -eq 1
	dune exec bin/main.exe -- gaps --sut postgres --deep \
	  --journal /tmp/conferr-analyze/campaign.jsonl \
	  > /tmp/conferr-analyze/gaps-deep.txt
	! grep -Eq "silent-acceptance +0$$" /tmp/conferr-analyze/gaps-base.txt
	grep -Eq "silent-acceptance +0$$" /tmp/conferr-analyze/gaps-deep.txt

# Service-mode smoke (doc/serve.md): a real daemon on an ephemeral port.
#   1. submit a mini-postgres campaign through the client and stream its
#      progress events to completion;
#   2. the daemon's journal must equal a one-shot CLI journal for the
#      same campaign modulo wall-clock fields (the determinism contract);
#   3. /metrics must expose the serve counters and /dashboard must serve
#      the live HTML report;
#   4. SIGTERM must drain gracefully: exit 0 and an fsck-clean journal.
# The daemon runs the already-built binary directly — a second dune
# invocation would contend on the build lock while the daemon lives.
serve-smoke: build
	rm -rf /tmp/conferr-serve-state /tmp/conferr-serve.port \
	  /tmp/conferr-serve-cli.jsonl /tmp/conferr-serve-dash.html
	set -e; \
	BIN=_build/default/bin/main.exe; \
	$$BIN serve --port 0 --port-file /tmp/conferr-serve.port \
	  --state-dir /tmp/conferr-serve-state --jobs 2 & \
	DPID=$$!; \
	for i in $$(seq 1 50); do \
	  test -s /tmp/conferr-serve.port && break; sleep 0.1; \
	done; \
	test -s /tmp/conferr-serve.port || { kill $$DPID; exit 1; }; \
	PORT=$$(cat /tmp/conferr-serve.port); \
	$$BIN get --port $$PORT /healthz; \
	$$BIN submit --port $$PORT --sut mini_pg --seed 7; \
	$$BIN watch --port $$PORT c0001 > /dev/null; \
	$$BIN status --port $$PORT c0001; \
	$$BIN results --port $$PORT c0001 > /dev/null; \
	$$BIN profile --sut mini_pg --seed 7 \
	  --journal /tmp/conferr-serve-cli.jsonl > /dev/null; \
	$$BIN journal-diff /tmp/conferr-serve-state/c0001.jsonl \
	  /tmp/conferr-serve-cli.jsonl; \
	$$BIN get --port $$PORT /metrics | grep -q conferr_serve_submissions_total; \
	$$BIN get --port $$PORT /dashboard > /tmp/conferr-serve-dash.html; \
	grep -q "<!doctype html" /tmp/conferr-serve-dash.html; \
	kill -TERM $$DPID; \
	wait $$DPID; \
	$$BIN fsck /tmp/conferr-serve-state/c0001.jsonl

# Inference smoke (doc/infer.md):
#   1. record fresh campaign journals (postgres typos; bind typos +
#      RFC 1912 semantic faults) and mine each back into candidate
#      constraints; both reports must recover a majority of the
#      hand-written rule ids ("majority: yes") — exit 1 is fine, the
#      inferred and hand-written sets legitimately differ;
#   2. the report must be byte-identical for --jobs 1 and --jobs 4;
#   3. --emit-rules must write a rule file conferr lint --rules accepts,
#      and the mined rules must lint the stock configuration clean;
#   4. the dashboard must render the inferred-constraints panel and the
#      metrics snapshot must carry the inference counters.
infer-smoke: build
	rm -f /tmp/conferr-infer-pg.jsonl /tmp/conferr-infer-bind.jsonl \
	  /tmp/conferr-infer-sem.jsonl /tmp/conferr-infer-j1.txt \
	  /tmp/conferr-infer-j4.txt /tmp/conferr-infer-bind.txt \
	  /tmp/conferr-infer.html /tmp/conferr-infer.prom \
	  /tmp/conferr-infer-rules.json
	dune exec bin/main.exe -- profile --sut postgres --jobs 2 \
	  --journal /tmp/conferr-infer-pg.jsonl > /dev/null
	dune exec bin/main.exe -- profile --sut bind --jobs 2 \
	  --journal /tmp/conferr-infer-bind.jsonl > /dev/null
	dune exec bin/main.exe -- semantic --sut bind --jobs 2 \
	  --journal /tmp/conferr-infer-sem.jsonl > /dev/null
	dune exec bin/main.exe -- infer --sut postgres \
	  --journal /tmp/conferr-infer-pg.jsonl > /tmp/conferr-infer-j1.txt; \
	  test $$? -le 1
	grep -q "majority: yes" /tmp/conferr-infer-j1.txt
	dune exec bin/main.exe -- infer --sut postgres --jobs 4 \
	  --journal /tmp/conferr-infer-pg.jsonl > /tmp/conferr-infer-j4.txt; \
	  test $$? -le 1
	cmp /tmp/conferr-infer-j1.txt /tmp/conferr-infer-j4.txt
	dune exec bin/main.exe -- infer --sut bind \
	  --journal /tmp/conferr-infer-bind.jsonl \
	  --journal /tmp/conferr-infer-sem.jsonl \
	  --emit-rules /tmp/conferr-infer-rules.json \
	  --html /tmp/conferr-infer.html \
	  --metrics /tmp/conferr-infer.prom > /tmp/conferr-infer-bind.txt; \
	  test $$? -le 1
	grep -q "majority: yes" /tmp/conferr-infer-bind.txt
	grep -q "Inferred constraints" /tmp/conferr-infer.html
	grep -q conferr_infer_candidates_total /tmp/conferr-infer.prom
	dune exec bin/main.exe -- lint --sut bind --fail-on warn \
	  --rules /tmp/conferr-infer-rules.json
	dune exec bin/main.exe -- infer --sut postgres \
	  --journal /tmp/conferr-infer-pg.jsonl \
	  --emit-rules /tmp/conferr-infer-rules.json > /dev/null; test $$? -le 1
	dune exec bin/main.exe -- lint --sut postgres --fail-on warn \
	  --rules /tmp/conferr-infer-rules.json

# Repair smoke (doc/repair.md): break the stock postgres and bind
# configurations, synthesize repairs, and verify them end to end.
#   1. a directive-name typo in postgresql.conf must be repaired back
#      to stock (exit 0) and --apply must rewrite the file so
#      `lint --fail-on warn` then exits 0;
#   2. a cross-parameter fault (max_fsm_pages / max_fsm_relations both
#      in range but mutually inconsistent) must be repaired by a
#      multi-edit candidate grouped by a mined co-occurrence cluster;
#   3. a typo'd named.conf must be repaired for bind;
#   4. journal-mode repair of a recorded pg campaign must exit 0
#      (everything repairable) and report byte-identical text for
#      --jobs 1 vs --jobs 4.
repair-smoke: build
	rm -rf /tmp/conferr-repair-typo /tmp/conferr-repair-cross \
	  /tmp/conferr-repair-bind
	rm -f /tmp/conferr-repair.jsonl \
	  /tmp/conferr-repair-j1.txt /tmp/conferr-repair-j4.txt \
	  /tmp/conferr-repair.html /tmp/conferr-repair.prom
	mkdir -p /tmp/conferr-repair-typo /tmp/conferr-repair-cross \
	  /tmp/conferr-repair-bind
	sed 's/max_connections/max_connektions/' \
	  examples/configs/postgresql.conf \
	  > /tmp/conferr-repair-typo/postgresql.conf
	dune exec bin/main.exe -- repair --sut postgres --apply \
	  /tmp/conferr-repair-typo/postgresql.conf
	dune exec bin/main.exe -- lint --sut postgres --fail-on warn \
	  /tmp/conferr-repair-typo/postgresql.conf
	cmp examples/configs/postgresql.conf \
	  /tmp/conferr-repair-typo/postgresql.conf
	sed -e 's/max_fsm_pages = 153600/max_fsm_pages = 1500/' \
	  -e 's/max_fsm_relations = 1000/max_fsm_relations = 20000/' \
	  examples/configs/postgresql.conf \
	  > /tmp/conferr-repair-cross/postgresql.conf
	dune exec bin/main.exe -- repair --sut postgres \
	  /tmp/conferr-repair-cross/postgresql.conf \
	  | grep -q "cluster: {max_fsm_pages"
	sed 's/recursion/recursino/' examples/configs/named.conf \
	  > /tmp/conferr-repair-bind/named.conf
	dune exec bin/main.exe -- repair --sut bind \
	  /tmp/conferr-repair-bind/named.conf
	dune exec bin/main.exe -- profile --sut postgres --jobs 2 \
	  --journal /tmp/conferr-repair.jsonl > /dev/null
	dune exec bin/main.exe -- repair --sut postgres --jobs 1 \
	  --journal /tmp/conferr-repair.jsonl > /tmp/conferr-repair-j1.txt
	dune exec bin/main.exe -- repair --sut postgres --jobs 4 \
	  --journal /tmp/conferr-repair.jsonl > /tmp/conferr-repair-j4.txt
	cmp /tmp/conferr-repair-j1.txt /tmp/conferr-repair-j4.txt
	dune exec bin/main.exe -- repair --sut postgres \
	  --journal /tmp/conferr-repair.jsonl \
	  --html /tmp/conferr-repair.html \
	  --metrics /tmp/conferr-repair.prom > /dev/null
	grep -q "Repairs" /tmp/conferr-repair.html
	grep -q conferr_repair_targets_total /tmp/conferr-repair.prom

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

check: build test smoke lint-smoke analyze-smoke serve-smoke infer-smoke \
  repair-smoke durability-smoke

bench:
	dune exec bench/main.exe

clean:
	dune clean
