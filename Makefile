# Convenience targets for the pvfs-sim reproduction.

PYTHON ?= python

.PHONY: install test test-out bench bench-compare bench-pytest digests \
	profile lint size traffic figures figures-paper examples clean

install:
	pip install -e . --no-build-isolation

# mirrors the tier-1 CI invocation exactly
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

test-out:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q 2>&1 | tee test_output.txt

# deterministic regression suite (see docs/benchmarking.md); host time is
# measured by perfbench (see perfbench/README.md)
bench:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli bench run --scale smoke

# Simulated metrics must match the committed baseline bit for bit.  Check
# the oracle the same way with `... bench run --no-fastpath ...`: it must
# also pass.
bench-compare:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli bench run \
		--scale smoke --out BENCH_local.json
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli bench compare \
		benchmarks/baseline_smoke.json BENCH_local.json

# perfbench's committed per-point digests of the simulated outputs, on all
# four workloads at every seed in SEEDS (a range such as 0-31, or one
# seed): a change that claims bit-identical outputs must pass at every
# committed seed, not only seed 0.  About 10 s per seed and workload.
SEEDS ?= 0-31

digests:
	@seeds='$(SEEDS)'; lo=$${seeds%-*}; hi=$${seeds#*-}; fail=0; \
	for w in des_read des_write chaos_failover model_paper; do \
		for s in $$(seq $$lo $$hi); do \
			if $(PYTHON) perfbench/run.py --workload $$w --seed $$s --seconds 1 --trace 0 \
					| tail -1 | grep -q '"correct": true'; then \
				echo "ok   $$w seed $$s"; \
			else \
				echo "FAIL $$w seed $$s"; fail=1; \
			fi; \
		done; \
	done; \
	exit $$fail

# host profiling of one gate pass under cProfile: hottest functions plus
# flamegraph input (profile.collapsed) and raw stats (profile.pstats)
profile:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli bench run \
		--scale smoke --repeats 1 --profile profile

# scaled figure, ablation and extension claim tests (plain pytest); they
# rewrite the tracked tables in benchmarks/results/, which must not change
bench-pytest:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/

# requires ruff (CI installs it; not part of the runtime deps); the format
# gate covers the same subsystems as the CI lint job
lint:
	ruff check .
	ruff format --check src/repro/bench src/repro/mpiio src/repro/mpi src/repro/model

# the simplicity counts: src/ lines, add_argument calls, ClusterConfig leaves,
# exported names
size:
	$(PYTHON) tools/size.py

# every function of src/repro that no traffic (a perfbench pass per workload,
# the figure, chaos and bench front ends, the examples) calls, with its line
# count and a total; a report for deletion candidates, not a gate (~1 min)
traffic:
	$(PYTHON) tools/traffic.py

# regenerate every figure from the paper's evaluation
figures:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli --all --scale scaled --mode des

# the CLI's per-sweep host-time lines ("sweep figNN: ... in 43.04s") are
# left out so the committed tables reproduce byte for byte; CI compares a
# fresh CSV with results/paper_scale_model.csv
figures-paper:
	mkdir -p results
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli --all --scale paper --mode model \
		--csv results/paper_scale_model.csv | grep -v '^sweep ' | tee results/paper_scale_model.md

examples:
	for e in examples/*.py; do echo "== $$e"; PYTHONPATH=src $(PYTHON) $$e || exit 1; done

clean:
	rm -rf .pytest_cache build *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
