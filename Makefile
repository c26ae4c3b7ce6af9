# Convenience targets for the pvfs-sim reproduction.

PYTHON ?= python

.PHONY: install test test-out bench bench-compare bench-pytest bench-only \
	profile lint figures figures-paper examples clean

install:
	pip install -e . --no-build-isolation

# mirrors the tier-1 CI invocation exactly
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

test-out:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q 2>&1 | tee test_output.txt

# deterministic regression suite (see docs/benchmarking.md)
bench:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli bench run --scale smoke

# Note: the committed baseline was regenerated by the fast-path kernel PR.
# That was a wall-clock/SSR-only movement — simulated metrics are identical
# bit-for-bit (the compare gate would have failed otherwise), and the
# result schema is unchanged.  Sanity-check the oracle with
# `... bench run --no-fastpath ...` before the compare: it must also pass.
bench-compare:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli bench run \
		--scale smoke --out BENCH_local.json
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli bench compare \
		benchmarks/baseline_smoke.json BENCH_local.json --wall-tolerance none

# kernel + host profiling: SSR headline, per-handler table, hottest
# functions, flamegraph input (profile.json / .collapsed / .pstats)
profile:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.cli bench run \
		--scale smoke --repeats 1 --profile profile

# pytest-benchmark microbenchmarks (wall-clock timings, not gated)
bench-pytest:
	$(PYTHON) -m pytest benchmarks/

bench-only:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# requires ruff (CI installs it; not part of the runtime deps); the format
# gate covers the same subsystems as the CI lint job
lint:
	ruff check .
	ruff format --check src/repro/bench src/repro/mpiio src/repro/mpi src/repro/model

# regenerate every figure from the paper's evaluation
figures:
	$(PYTHON) -m repro.experiments.cli --all --scale scaled --mode des

figures-paper:
	mkdir -p results
	$(PYTHON) -m repro.experiments.cli --all --scale paper --mode model \
		--csv results/paper_scale_model.csv | tee results/paper_scale_model.md

examples:
	for e in examples/*.py; do echo "== $$e"; $(PYTHON) $$e || exit 1; done

clean:
	rm -rf .pytest_cache build *.egg-info benchmarks/results/*.md
	find . -name __pycache__ -type d -exec rm -rf {} +
