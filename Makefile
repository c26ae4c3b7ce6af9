# Convenience targets for the pvfs-sim reproduction.

PYTHON ?= python

.PHONY: install test test-out bench bench-compare bench-pytest \
	profile lint figures figures-paper examples clean

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

# host profiling of one gate pass under cProfile: hottest functions plus
# flamegraph input (profile.collapsed) and raw stats (profile.pstats)
profile:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli bench run \
		--scale smoke --repeats 1 --profile profile

# scaled figure, ablation and extension claim tests (plain pytest)
bench-pytest:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/

# requires ruff (CI installs it; not part of the runtime deps); the format
# gate covers the same subsystems as the CI lint job
lint:
	ruff check .
	ruff format --check src/repro/bench src/repro/mpiio src/repro/mpi src/repro/model

# regenerate every figure from the paper's evaluation
figures:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli --all --scale scaled --mode des

figures-paper:
	mkdir -p results
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli --all --scale paper --mode model \
		--csv results/paper_scale_model.csv | tee results/paper_scale_model.md

examples:
	for e in examples/*.py; do echo "== $$e"; PYTHONPATH=src $(PYTHON) $$e || exit 1; done

clean:
	rm -rf .pytest_cache build *.egg-info benchmarks/results/*.md
	find . -name __pycache__ -type d -exec rm -rf {} +
