# Convenience targets for the FC-DPM reproduction.

PYTHON ?= python3

.PHONY: install test lint bench bench-smoke bench-vector bench-e2e-test trace-smoke exp-smoke live-smoke report report-check reachability export examples all

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Static checks: ruff if available, byte-compilation and benchmark
# collection (which imports every bench module) always.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "ruff not installed (pip install -e '.[lint]'); skipping ruff"; \
	fi
	$(PYTHON) -m compileall -q src tests benchmarks examples
	$(PYTHON) -m pytest benchmarks --collect-only -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Runtime smoke bench: parallel-vs-serial run_seeds, memoized solver,
# sizing-curve fan-out, vectorized-kernel speedup gates (incl. the
# clamp-heavy storage recurrence), and the <2% disabled-telemetry
# overhead gate.  Fast enough for CI; writes benchmarks/out/
# (.txt reports + .json measurements, consolidated BENCH_kernel.json).
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_bench_microbench.py -s \
		-k "parallel or cached or vectorized or obs or clamped"

# Tests of the end-to-end benchmark (benchmarks/e2e): one tiny untraced
# and traced round of every workload, checking its printed metrics, the
# tracer's target names and where each layer runs (mc-narrow's route
# split, mc-fanout on the parallel route with shared-memory bytes).
# About 40 s on a 2-core host.
bench-e2e-test:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q

# Telemetry smoke: run a small scenario with tracing on, then validate
# the bundle (manifest.json + spans.jsonl + trace.json) structurally.
trace-smoke:
	$(PYTHON) -m repro.cli run --scenario table2 --trace trace-out/
	$(PYTHON) -m repro.cli trace check trace-out/
	$(PYTHON) -m repro.cli trace summary trace-out/ > /dev/null

# Orchestration smoke: define two experiments, kill one mid-run with
# the crash-injection hook (expected exit 3), resume it to completion,
# merge a sharded run, and print the per-cell report.  Every command
# reads state files through the one validating reader, so `exp status`
# (one experiment, then all) and `exp merge` (the shard sidecars) are
# the structural checks.  A corruption drill flips one byte of one
# smoke-a cache entry (found through state.json's cache_key): the next
# run must re-execute exactly that cell.  The cache root must end up
# holding entry files (*.pkl) and experiments/ only.  Everything lands
# under exp-smoke-out/.
exp-smoke:
	rm -rf exp-smoke-out
	FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli exp define smoke-a \
		--scenario exp2-fc-dpm --seeds 0:3 --policies conv-dpm,fc-dpm
	FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli exp define smoke-b \
		--scenario exp2-asap-dpm --seeds 0:3
	FCDPM_CACHE_DIR=exp-smoke-out FCDPM_EXP_ABORT_AFTER=2 \
		$(PYTHON) -m repro.cli exp run smoke-a; test $$? -eq 3
	FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli exp status smoke-a
	FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli exp resume smoke-a
	$(PYTHON) -c "import json, pathlib; \
		state = json.loads(pathlib.Path('exp-smoke-out/experiments/smoke-a/state.json').read_text()); \
		entry = pathlib.Path('exp-smoke-out', state['tasks']['t00000']['cache_key'] + '.pkl'); \
		data = bytearray(entry.read_bytes()); data[len(data) // 2] ^= 1; \
		entry.write_bytes(bytes(data))"
	out=$$(FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli exp run smoke-a) && \
		echo "$$out" && echo "$$out" | grep -q "executed 1,"
	FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli exp run smoke-b --shard 1/2
	FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli exp run smoke-b --shard 2/2
	FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli exp merge smoke-b
	FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli exp report smoke-a
	FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli exp status
	FCDPM_CACHE_DIR=exp-smoke-out $(PYTHON) -m repro.cli cache stats
	test -z "$$(ls exp-smoke-out | grep -v -e '\.pkl$$' -e '^experiments$$')"

# Live-telemetry smoke: run a sharded experiment with --live flushing,
# assert the watch/status/top scripting surface (exit 0 on a healthy
# finished run, both shard heartbeats final; each command reads every
# heartbeat through the validating reader, which exits 1 on an invalid
# one), then rewrite the heartbeats as a crashed writer leaves them
# (non-final, an hour stale) and assert `exp watch --once` exits 4.
# Artifacts land under live-smoke-out/.
live-smoke:
	rm -rf live-smoke-out
	FCDPM_CACHE_DIR=live-smoke-out $(PYTHON) -m repro.cli exp define live-a \
		--scenario exp2-fc-dpm --seeds 0:4 --policies conv-dpm,fc-dpm
	FCDPM_CACHE_DIR=live-smoke-out $(PYTHON) -m repro.cli exp run live-a \
		--shard 1/2 --live --live-interval 0.2
	FCDPM_CACHE_DIR=live-smoke-out $(PYTHON) -m repro.cli exp run live-a \
		--shard 2/2 --live --live-interval 0.2
	FCDPM_CACHE_DIR=live-smoke-out $(PYTHON) -m repro.cli exp merge live-a
	FCDPM_CACHE_DIR=live-smoke-out $(PYTHON) -m repro.cli exp watch live-a --once
	FCDPM_CACHE_DIR=live-smoke-out $(PYTHON) -m repro.cli exp status live-a --json | \
		$(PYTHON) -c "import json, sys; beats = json.load(sys.stdin)['heartbeats']; \
		assert len(beats) == 2 and all(b['final'] for b in beats), beats"
	FCDPM_CACHE_DIR=live-smoke-out $(PYTHON) -m repro.cli top --once
	$(PYTHON) -c "import json, pathlib; \
		beats = sorted(pathlib.Path('live-smoke-out/experiments/live-a').glob('heartbeat*.json')); \
		assert len(beats) == 2, beats; \
		[p.write_text(json.dumps(dict(d, final=False, started=d['started'] - 3600, \
			updated=d['updated'] - 3600))) for p in beats for d in [json.loads(p.read_text())]]"
	FCDPM_CACHE_DIR=live-smoke-out $(PYTHON) -m repro.cli exp watch live-a --once; \
		test $$? -eq 4
	@echo "live-smoke ok (stall detection verified)"

# Just the vectorized-kernel gates: single-trace >= 4x (fc-dpm >= 2x),
# batch serial >= 12x (>= 50x with >= 4 cores), fc batch >= 2.5x,
# all bit-exact against the scalar simulator.
bench-vector:
	$(PYTHON) -m pytest benchmarks/test_bench_microbench.py -s \
		-k "vectorized or clamped"

report:
	$(PYTHON) -m repro.cli report

# Paper-report gate: a cold `fcdpm --no-cache --seed 2007 report` must
# print the committed golden byte for byte (print adds one trailing
# newline).  On a mismatch report-check.txt is left for diffing.
report-check:
	$(PYTHON) -m repro.cli --no-cache --seed 2007 report > report-check.txt
	{ cat tests/goldens/full_report_seed2007_n5.txt; echo; } | cmp - report-check.txt
	@rm -f report-check.txt
	@echo "report-check ok (byte-identical to the golden)"

# Reachability report: run every fcdpm command (--live, --workers 2 and
# cache clear included) and simulate_batch at widths 1, 2 and 16 under a
# call profiler, then print the never-called function-body lines of
# src/repro per file and in total (about 8 s).  A report, not a gate.
reachability:
	$(PYTHON) scripts/reachability.py

export:
	$(PYTHON) -m repro.cli export artifacts/

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; done
	@echo "all examples ran cleanly"

all: test bench examples
