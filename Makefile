# One-keystroke entry points for the tier-1 verify, the paper
# benchmarks, and a dependency-free lint floor. Everything runs from
# the repo root with src/ on the path — no install required.

PYTHON ?= python
PYTHONPATH_SRC = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))
# bench-smoke writes fresh timings to BENCH_TIMINGS (gitignored);
# bench-check gates them against the committed BENCH_BASELINE.  The
# default deliberately differs from the baseline path so a casual
# `make bench-smoke` can never clobber the committed baseline —
# refresh it explicitly with `make bench-smoke BENCH_TIMINGS=bench-smoke-timings.json`.
BENCH_TIMINGS ?= bench-smoke-current.json
BENCH_BASELINE ?= bench-smoke-timings.json
# bench-layers writes the per-layer ledger of every perfbench workload
# here (gitignored), keyed by workload.
BENCH_LAYERS ?= bench-layers-current.json
BENCH_LAYER_WORKLOADS = plain-server force-library fleet-drain
SERVE_SMOKE_STORE ?= .serve-smoke

.PHONY: test test-determinism test-chaos bench bench-batch bench-force \
        bench-interp bench-index bench-cluster bench-smoke bench-check \
        bench-layers serve-smoke gateway-smoke profile lint ci all help

help:
	@echo "make test        - tier-1 verify: full pytest suite (-x -q)"
	@echo "make test-determinism - differential suite: replay backends, worker counts, resume across backends, corpus stores, resume merge, the offline boundary, front ends and repack, the shared boot classpath bit-identical; dump sizes equal to the render, one decode per collected instruction; replay collectors merge like plain ones, symbols at exit equal symbols at the step; one service's digest memo equals a fresh service per job; the DEX encoders, opcode facts, verifier and body writer equal the code they replaced"
	@echo "make test-chaos  - seeded faults vs gateway + worker fleet (exactly-once, byte-identical artifacts), store crash consistency, the segment log and degraded reveals"
	@echo "make bench       - regenerate every paper table/figure (pytest-benchmark)"
	@echo "make bench-batch - batch-service throughput: serial vs parallel, cold vs warm cache"
	@echo "make bench-force - force-execution exploration: serial vs process, fifo vs rarity-first"
	@echo "make bench-interp- interpreter fast path: steps/sec, cold/warm/invalidation-storm, +/- collector"
	@echo "make bench-index - corpus index: cold vs warm cross-app dedup on a ~80%-shared corpus"
	@echo "make bench-cluster - LSH nearest vs linear scan (>=10x @ recall >=0.95) + reveal-and-label throughput"
	@echo "make bench-smoke - every benchmark once in quick mode (--benchmark-disable); timing JSON to $(BENCH_TIMINGS)"
	@echo "make bench-check - gate $(BENCH_TIMINGS) against the committed $(BENCH_BASELINE) (>25% total regression fails)"
	@echo "make bench-layers - traced perfbench ledger of all three workloads (seed 1, 20 s) to $(BENCH_LAYERS); not gated"
	@echo "make serve-smoke - submit two jobs, drain them with serve, assert clean shutdown and the journal"
	@echo "make gateway-smoke - gateway + 2 fleet workers: HTTP submit, fetch artifact, diff vs in-process"
	@echo "make profile     - cProfile one service reveal_one, as a front end runs it; print top-20 cumulative (tools/profile_reveal.py)"
	@echo "make lint        - byte-compile everything (syntax floor; uses pyflakes when present)"
	@echo "make ci          - exactly what the CI workflow runs: lint + test + test-determinism + test-chaos + bench-smoke + bench-check + serve-smoke + gateway-smoke"

test:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -x -q

# The differential determinism suite on its own: both replay backends
# (serial, and process at 1..8 workers) must produce bit-identical
# exploration, collection and archives, a resume on the process
# backend must explore as a serial resume does, resume's absorb-based
# archive merge must match the JSON-level reference merge, a reveal must give
# the same DEX and APK from the live collector as from its saved
# collection files (the offline boundary), the library and the service
# must reveal the same APK bytes, with repack building what the
# serialise-and-reread copy it replaced built (front ends and repack),
# runtimes sharing the one read-only boot classpath must reveal and
# unpack what runtimes building their own framework specs did (the
# shared boot classpath), and the corpus stores must write the same
# bytes at any worker count
# (cluster families) and replay index bodies byte-identically to fresh
# emission (index dedup).  The dump size counted from the collector
# must equal the length of the collection files' render, on generated
# collectors and wherever the differentials above read an archive's
# files (dump sizes), and a reveal must decode each collected
# instruction once, at collection, and write the reassembled DEX
# without a remap (decode budget).  A replay collector, which logs first
# visits and decides each frame at method exit against the engine's
# trees, must merge like a plain collector on every exit and patch case,
# and each symbol it resolves at exit must equal the one a listener
# resolved at the step (replay collector).  A service that keeps its
# corpus index, and the index the digests it computed, across jobs must
# reveal and store what a fresh service per job over the same store
# directories does, and so must a two-thread server (service lifetime).
# The DEX back end's per-opcode tables must give what the code they
# replaced gave: each format's encoder the units, exception type and
# message of the old chain of format tests, each opcode fact its old
# string rule, the verifier the old verifier's problems in the same
# order (DroidBench reveals and one mutation per check), and a
# recording body writer the old writer's ops, so the index's bodies
# keep their bytes (per-opcode tables).
# Part of `make test` too; this target exists so CI (and bisects) can
# run the contract in isolation with verbose per-case output.
test-determinism:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest tests/core/test_determinism.py \
		tests/core/test_replay_spec.py tests/core/test_resume_backends.py \
		tests/cluster/test_cluster_pipeline.py::TestWorkerCountDeterminism \
		tests/index/test_index_pipeline.py::TestWarmCorpusDedup \
		tests/index/test_index_pipeline.py::TestServiceLifetime \
		tests/core/test_collection_sizes.py \
		tests/core/test_decode_budget.py \
		tests/core/test_replay_collector.py \
		tests/dex/test_formats.py::TestEncodersAgainstTheReferenceChain \
		tests/dex/test_formats.py::TestOpcodeFacts \
		tests/dex/test_verify.py::TestAgainstTheReferenceVerifier \
		tests/core/test_body_writer.py -q

# The chaos suite on its own: deterministic seeded fault schedules
# (store I/O, network, worker kills) against a live gateway and a
# two-worker fleet; every schedule must complete every job exactly
# once with byte-identical artifacts.  Failing runs print the full
# schedule, seed included, so they can be replayed.  Alongside: every
# store reopening after crash debris, the segment log's append,
# typed-row and compaction contracts under both corpus stores, and a
# reveal degrading, never failing, when an optional store fails to
# open or a store write fails mid-reveal.  Part of `make test` too;
# this target exists for CI and for replaying one schedule in
# isolation.
test-chaos:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest tests/service/test_chaos.py \
		tests/service/test_crash_consistency.py \
		tests/service/test_segment_log.py \
		tests/service/test_degradation.py -q

# bench_*.py does not match pytest's default collection pattern, so the
# bench targets widen it explicitly.
bench:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/ -o python_files='bench_*.py' --benchmark-only -s

bench-batch:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_batch_throughput.py --benchmark-only -s

bench-force:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_force_execution.py -o python_files='bench_*.py' --benchmark-only -s

bench-interp:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_interpreter_dispatch.py -o python_files='bench_*.py' --benchmark-only -s

bench-index:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_corpus_index.py -o python_files='bench_*.py' --benchmark-only -s

bench-cluster:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/bench_cluster.py -o python_files='bench_*.py' --benchmark-only -s

# Quick mode: every benchmark file collects and executes once, untimed,
# so a broken benchmark breaks the build; per-test timings land in
# $(BENCH_TIMINGS) (written by benchmarks/conftest.py).
bench-smoke:
	$(PYTHONPATH_SRC) BENCH_TIMINGS_JSON=$(BENCH_TIMINGS) DEXLEGO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/ -o python_files='bench_*.py' --benchmark-disable -q

# Perf gate: fail when the fresh bench-smoke timing JSON (written by
# `make bench-smoke` to $(BENCH_TIMINGS)) regressed the committed
# baseline's total duration by more than 25%.
bench-check:
	$(PYTHON) tools/check_bench_regression.py $(BENCH_BASELINE) $(BENCH_TIMINGS)

# The per-layer ledger behind a perf PR's before/after numbers: each
# perfbench workload once, seed 1, 20 s, traced.  Every run's ledger is
# printed, and its final JSON line lands in $(BENCH_LAYERS) keyed by
# workload.  Not gated: perfbench's own spread is the judge.
bench-layers:
	mkdir -p .perfbench-work
	for w in $(BENCH_LAYER_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 20 \
			--trace 1 > .perfbench-work/bench-layers-$$w.out || exit 1; \
		cat .perfbench-work/bench-layers-$$w.out; \
	done
	$(PYTHON) -c "import json; \
		runs = {w: json.loads(open('.perfbench-work/bench-layers-' + w + '.out').read().splitlines()[-1]) \
			for w in '$(BENCH_LAYER_WORKLOADS)'.split()}; \
		json.dump(runs, open('$(BENCH_LAYERS)', 'w'), indent=1); \
		print('bench-layers: ledgers of', ', '.join(runs), 'in $(BENCH_LAYERS)')"

# Profile a single service reveal_one, the call every front end makes
# per app (top-20 cumulative by default), so perf work starts from
# data; see tools/profile_reveal.py --help for knobs.
profile:
	$(PYTHONPATH_SRC) $(PYTHON) tools/profile_reveal.py

# End-to-end server smoke: journal two jobs into a fresh store, drain
# it with a two-worker serve, and assert both jobs reached `done` with
# a clean shutdown and journalled the full event sequence.  Mirrors the
# CI bench-smoke job's serve step.
serve-smoke:
	rm -rf $(SERVE_SMOKE_STORE)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.service submit --store $(SERVE_SMOKE_STORE) --corpus fdroid --limit 2
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.service serve --store $(SERVE_SMOKE_STORE) --workers 2
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.service status --store $(SERVE_SMOKE_STORE) --json | \
		$(PYTHON) -c "import json,sys; payload = json.load(sys.stdin); \
		assert payload['counts'] == {'done': 2}, payload['counts']; \
		print('serve-smoke: 2 job(s) done, clean shutdown')"
	$(PYTHON) -c "import json; kinds = {}; \
		events = [json.loads(line) for line in open('$(SERVE_SMOKE_STORE)/events.jsonl')]; \
		[kinds.setdefault(e['job_id'], []).append(e['kind']) for e in events]; \
		want = ['submitted', 'started'] + ['stage'] * 4 + ['done']; \
		assert len(kinds) == 2 and all(k == want for k in kinds.values()), kinds; \
		print('serve-smoke: journal holds', ', '.join(want), 'per job')"
	rm -rf $(SERVE_SMOKE_STORE)

# End-to-end fleet smoke: boot the HTTP gateway on an ephemeral port,
# race two workers over its store, submit a two-app corpus over real
# HTTP, and assert every revealed APK (and its fetched artifact) is
# byte-identical to the in-process reveal of the same APK.
gateway-smoke:
	$(PYTHONPATH_SRC) $(PYTHON) tools/gateway_smoke.py

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
	@if $(PYTHON) -c "import pyflakes" 2>/dev/null; then \
		$(PYTHON) -m pyflakes src tests benchmarks examples tools; \
	else \
		echo "pyflakes not installed; compileall-only lint passed"; \
	fi

# Mirrors .github/workflows/ci.yml: the test job runs lint + test +
# test-determinism + test-chaos, the bench-smoke job runs bench-smoke
# + bench-check + serve-smoke + gateway-smoke.
ci: lint test test-determinism test-chaos bench-smoke bench-check serve-smoke gateway-smoke

all: lint test
