PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

# Modules held to mypy --strict (annotated typed-API surface; grow this list
# as more of the tree is annotated).
STRICT_TYPED = \
	src/repro/core/errors.py \
	src/repro/core/provenance.py \
	src/repro/core/ssdlet.py \
	src/repro/core/types.py

.PHONY: test test-fast test-faults bench serve lint typecheck trace attribute resilience sim-throughput cluster race perf perfbench-test

# The full tier-1 suite (what CI runs on every push).
test:
	$(PYTEST) -q

# Everything except the slower integration sweeps.
test-fast:
	$(PYTEST) -q --ignore=tests/integration

# Only the long fault-injection soaks (tests marked `faults`).  Nothing
# deselects them, so `make test` and CI's tier-1 run include them too.
test-faults:
	$(PYTEST) -q -m faults

bench:
	PYTHONPATH=src $(PYTHON) -m repro.bench
	$(PYTEST) -q benchmarks/test_ablation_read_cache.py

# The standing recovery benchmark: SQL goodput under a seeded fault storm.
# Emits BENCH_resilience.json (byte-deterministic across hash seeds).
resilience:
	PYTHONPATH=src $(PYTHON) -m repro.bench resilience

# Simulator throughput: fused fast path on vs off across three workload
# shapes.  Emits BENCH_sim_throughput.json (deterministic except "wall").
sim-throughput:
	PYTHONPATH=src $(PYTHON) -m repro.bench sim_throughput

# Sharded-fleet benchmark: scatter-gather SQL across a 4-node fleet plus a
# crash storm.  Emits BENCH_cluster.json (byte-deterministic across hash
# seeds); CI gates tail-amplification drift against the committed copy.
cluster:
	PYTHONPATH=src $(PYTHON) -m repro.bench cluster

# The standing host-time benchmark (perfbench/README.md): one workload,
# untraced, 22 s.  WORKLOAD is one of tpch, scan_mixed, fleet_storm,
# scan_observed, e.g. `make perf WORKLOAD=fleet_storm SEED=7`.
SEED ?= 1
perf:
	python3 perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) --seconds 22 --trace 0

# Unit tests of the benchmark's tracer (outside the tier-1 testpaths).
perfbench-test:
	python3 -m pytest perfbench/test_tracer.py

# Run a serving-layer traffic mix deterministically (override MIX/POLICY,
# e.g. `make serve MIX=saturation POLICY=wfq`).
MIX ?= smoke
POLICY ?= fifo
serve:
	PYTHONPATH=src $(PYTHON) -m repro.serve --mix $(MIX) --policy $(POLICY) \
		--out serve-$(MIX)-$(POLICY).json

# Trace a workload end to end (Perfetto JSON + metrics + breakdown).
# Override with `make trace WORKLOAD=read_latency`.
WORKLOAD ?= string_search
trace:
	PYTHONPATH=src $(PYTHON) -m repro.instrument --workload $(WORKLOAD) \
		--trace trace-$(WORKLOAD).json --metrics metrics-$(WORKLOAD).json \
		--breakdown

# Per-query tail-latency attribution (exact ns-integer decomposition) with
# the slowest query's critical path.  Override with
# `make attribute ATTR_WORKLOAD=serve_mix`.
ATTR_WORKLOAD ?= read_latency
attribute:
	PYTHONPATH=src $(PYTHON) -m repro.instrument attribute \
		--workload $(ATTR_WORKLOAD) --critical-path \
		--json attribution-$(ATTR_WORKLOAD).json

# Determinism/unit-discipline lint suite (exit 1 on any finding).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis --strict src/repro

# Interleaving sanitizer: static RPR3xx rules in strict mode, then a golden
# workload under REPRO_RACE_CHECK with reversed tie-breaking in every
# provably order-free batch (must stay conflict-free and bit-identical).
# Override with `make race RACE_WORKLOAD=fig7`.
RACE_WORKLOAD ?= table3
race:
	PYTHONPATH=src $(PYTHON) -m repro.analysis --strict --select RPR3 src/repro
	PYTHONPATH=src $(PYTHON) -m repro.analysis.races --workload $(RACE_WORKLOAD)

# mypy --strict over the typed surface.  Skips (exit 0) when mypy is not
# installed — the container image has no network, so the gate only binds
# where mypy is available (CI installs it).
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		PYTHONPATH=src $(PYTHON) -m mypy --strict $(STRICT_TYPED); \
	else \
		echo "mypy not installed; skipping typecheck"; \
	fi
