# Convenience targets for the RLA reproduction.

PYTHON ?= python

.PHONY: install test paper paper-checks bench bench-selftest bench-pair same-output audit-smoke hop-smoke checkpoint-smoke fluid-smoke import-smoke startup-smoke examples-smoke figures quickstart clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# The paper's §5 tables: `repro-rla paper <figure>` runs every case of
# each named FIGURES row (default: all) over 5 seeds and prints each cell's
# mean ± 95 % CI beside the paper's number, each case's Theorem I/II count
# and one PASS/FAIL line per shape check; a FAIL exits 1 from 40 measured
# seconds up.  This target rewrites results/paper_ci.txt (fig 9 at 3 + 1 s)
# and copies results/paper_600.txt into EXPERIMENTS.md's E5 block; tier-1
# diffs both.  results/paper_600.txt itself is ~70 core-minutes, rerun by
# hand: `repro-rla paper fig9 --duration 600 --warmup 100 --workers 2`.
paper:
	PYTHONPATH=src $(PYTHON) -m repro.cli paper fig9 --duration 3 \
		--warmup 1 > results/paper_ci.txt
	$(PYTHON) -c "import pathlib, re; doc = pathlib.Path('EXPERIMENTS.md'); \
	fence = chr(96) * 3; \
	table = pathlib.Path('results/paper_600.txt').read_text(encoding='utf-8'); \
	text, n = re.subn(r'(<!-- generated from results/paper_600[.]txt[^\n]*\n).*?' \
	                  r'(<!-- end of generated block -->)', \
	                  lambda m: m.group(1) + fence + '\n' + table + fence + '\n' \
	                  + m.group(2), doc.read_text(encoding='utf-8'), flags=re.S); \
	assert n == 1, 'EXPERIMENTS.md has %d generated blocks' % n; \
	doc.write_text(text, encoding='utf-8')"

# The other reproduction checks: one bench_*.py per model figure, ablation,
# sweep or extension (DESIGN.md's experiment index), each printing the
# paper's numbers beside ours and asserting the shape.  They time nothing.
# The §5 tables are `make paper` / `repro-rla paper <figure>`.
paper-checks:
	pytest benchmarks/ -s

# Measuring is benchmarks/rlabench/ and nothing else (its README says what
# each metric and workload is for; docs/PERFORMANCE.md, "Measuring").
bench:
	$(PYTHON) benchmarks/rlabench/run.py --seed 1 --trace both

bench-selftest:
	$(PYTHON) benchmarks/rlabench/run.py --selftest

# The perf gate: BASE and this checkout measured back to back on this
# machine, each by its own copy of the harness, then compared — no
# committed reference result, which would be another machine's scale.
# Fails on `worse`, a count mismatch or a differing result_digest;
# `unresolved` and `machine drifted` are reported and do not fail.
# BASE is checked out as a throwaway worktree, or, where `git worktree`
# is not to be had, unpacked from `git archive`: the same tree either way.
BASE ?= HEAD~1
PAIR_OUT := benchmarks/rlabench/out
bench-pair:
	rm -rf .bench-base && git worktree prune
	git worktree add --detach .bench-base $(BASE) \
	|| { rm -rf .bench-base && mkdir .bench-base \
	     && git archive $(BASE) | tar -x -C .bench-base; }
	mkdir -p $(PAIR_OUT)
	trap 'git worktree remove --force .bench-base 2>/dev/null || rm -rf .bench-base' EXIT; \
	$(PYTHON) .bench-base/benchmarks/rlabench/run.py --seed 1 \
		--out $(PAIR_OUT)/pair-base.json \
	&& $(PYTHON) benchmarks/rlabench/run.py --seed 1 \
		--out $(PAIR_OUT)/pair-change.json \
	&& $(PYTHON) benchmarks/rlabench/compare.py \
		$(PAIR_OUT)/pair-base.json $(PAIR_OUT)/pair-change.json

# The behaviour gate: BASE and this checkout run one fixed list of 14
# commands (benchmarks/same_output.py: every catalog scenario plain and
# audited, the AQM grid on both backends, fluid crossval and scale, a
# sweep on each backend, every paper table, examples/red_vs_droptail.py
# and examples/theory_check.py 30), and each stdout must be byte-identical —
# how a change meant to alter no behaviour proves it.  BASE is unpacked
# from `git archive`.  ~70 s on 2 vCPUs.
SAME_BASE := .same-output-base
same-output:
	rm -rf $(SAME_BASE) && mkdir $(SAME_BASE)
	git archive $(BASE) | tar -x -C $(SAME_BASE)
	trap 'rm -rf $(SAME_BASE)' EXIT; \
	$(PYTHON) benchmarks/same_output.py $(SAME_BASE)

# Audit layer smoke: its unit tests, the diet oracle (the pre-PR-17 layer
# kept verbatim in tests/audit/reference.py must count the same checks and
# raise the same violations) and the call budget; then rlabench's audited
# workload, traced — eight AQM grid cells and two churn scenarios under
# --audit, 0 violations, tables identical across passes — printing what a
# hop's audit costs.  Any failed output check fails the target.
audit-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/audit
	$(PYTHON) benchmarks/rlabench/run.py --workload aqm_audit --seed 1 \
		--seconds 12 --trace 1 | tail -n 1 | $(PYTHON) -c "import json, sys; \
	out = json.loads(sys.stdin.read()); metrics = out['metrics']; \
	print('\n'.join('%-22s %s %s' % (name, metrics[name]['value'], metrics[name]['unit']) \
	 for name in ('audit.hook_ns', 'audit.overhead_ratio', 'audit.checks', 'audit.violations'))); \
	assert out['correct'] and out['failed'] == 0, \
	       '%d of %d output checks failed' % (out['failed'], out['attempted']); \
	assert metrics['audit.violations']['value'] == 0, metrics['audit.violations']; \
	print('audit smoke OK: %d output checks, 0 failed' % out['attempted'])"

# Packet-hop smoke: the engine against its reference copy and the
# one-event link against the two-event one (tests/sim/reference.py: same
# event stream and reports with the reference link on both engines; same
# per-packet arrivals and drops on tie-free drawn networks), the re-keyed
# Timer (tests/sim/test_process.py), every gateway's idle-wire verdict
# against enqueue + dequeue on a twin, the Python call budget of one link
# transmission and the link's exact-tie rule; then rlabench's
# paper_tables workload, traced.  The counts are printed:
# a change that schedules events earlier, later or not at all moves them
# and re-orders exact ties (a re-baseline, judged by
# benchmarks/rebaseline_gate.py, not by this target); otherwise they must
# be the parent's to the event, which `make bench-pair` checks.  The
# per-hop times are what the hop costs on this box.  Any failed output
# check fails the target.
hop-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/sim/test_engine_oracle.py \
		tests/sim/test_process.py tests/net/test_link_oracle.py \
		tests/net/test_serve_oracle.py tests/net/test_hop_budget.py \
		tests/net/test_link.py
	$(PYTHON) benchmarks/rlabench/run.py --workload paper_tables --seed 1 \
		--seconds 12 --trace 1 | tail -n 1 | $(PYTHON) -c "import json, sys; \
	out = json.loads(sys.stdin.read()); metrics = out['metrics']; \
	print('\n'.join('%-22s %s %s' % (name, metrics[name]['value'], metrics[name]['unit']) \
	 for name in ('sim.events', 'net.packets', 'net.link.pkt_ns', 'net.node.fanout_ns', 'tcp.flow.pkt_ns'))); \
	assert out['correct'] and out['failed'] == 0, \
	       '%d of %d output checks failed' % (out['failed'], out['attempted']); \
	print('hop smoke OK: %d output checks, 0 failed' % out['attempted'])"

# Checkpoint/restore byte-identity smoke: snapshot an *audited* churn
# run mid-flight, restore it in a brand-new interpreter, and require the
# resumed report pickle to equal the straight-through run's byte for
# byte.  Any divergence means a piece of simulation state escaped the
# snapshot (see docs/SIMULATOR.md, "Checkpoint/restore").
checkpoint-smoke:
	rm -rf ckpt-smoke && mkdir -p ckpt-smoke
	PYTHONPATH=src $(PYTHON) -c "import pickle; \
	from repro.scenarios import get_scenario, run_scenario; \
	from repro.scenarios.runner import checkpoint_scenario; \
	spec = get_scenario('tree-churn', duration=8.0, warmup=3.0, audited=True); \
	checkpoint_scenario(spec, at=5.0, path='ckpt-smoke/mid.ckpt'); \
	open('ckpt-smoke/straight.pkl', 'wb').write(pickle.dumps(run_scenario(spec)))"
	PYTHONPATH=src $(PYTHON) -c "import pickle; \
	from repro.checkpoint import resume; \
	straight = open('ckpt-smoke/straight.pkl', 'rb').read(); \
	resumed = pickle.dumps(resume('ckpt-smoke/mid.ckpt')); \
	assert resumed == straight, 'checkpoint restore diverged from straight run'; \
	print('checkpoint smoke OK: %d-byte report, byte-identical after fresh-process restore' % len(resumed))"

# Fluid backend smoke: first the emitted kernel against its bitwise
# oracle (tests/fluid/reference.py) and its own tests (deterministic
# source, tracebacks, one compile per row), then the small-n
# fluid-vs-packet cross-validation cases (per-metric error tables,
# tolerances from docs/FLUID.md), then the population ladder's first rung
# through the CLI — numpy must not have been loaded for it — and one
# 10^5-flow fluid point to prove the mean-field scaling path: the bounds
# must hold and the RED equilibrium must be Reynier-stable.  Last, per
# kernel: the state variables, the ones its run integrates (one per
# class of exchangeable branches), the G/H factors one field evaluation
# computes (one per distinct factor) and the emit + compile cost; every
# kernel must emit one function, and the 256-branch sweep point must
# integrate no more variables, and compute no more factors, than the
# 4-branch one.
fluid-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/fluid/test_integrator_oracle.py \
		tests/fluid/test_exchangeable.py tests/fluid/test_kernel.py \
		tests/fluid/test_stability_oracle.py
	PYTHONPATH=src $(PYTHON) -m repro.cli fluid crossval "--cases=-10-"
	PYTHONPATH=src $(PYTHON) -c "import sys, repro.cli; \
	code = repro.cli.main(['fluid', 'scale', '--counts', '1000']); \
	assert code == 0, code; \
	assert 'numpy' not in sys.modules, 'fluid scale loaded numpy'; \
	print('fluid smoke: fluid scale ran without numpy')"
	PYTHONPATH=src $(PYTHON) -c "from repro.experiments.population import \
	run_population, format_population; \
	rows = run_population(counts=(100_000,)); \
	print(format_population(rows)); \
	assert all(row['bound_ok'] for row in rows), rows; \
	assert all(row['equilibrium']['stability_margin'] > 0 \
	           for row in rows), rows; \
	print('fluid smoke OK: bounds hold at 100k flows, stable equilibrium')"
	PYTHONPATH=src $(PYTHON) -c "import re, timeit; \
	from repro.experiments.population import population_spec; \
	from repro.fluid import FluidModel, symmetric_fluid_spec; \
	sym = lambda n: symmetric_fluid_spec(n_receivers=n, share_pps=100.0, \
	    buffer_pkts=20, duration=10.0, warmup=2.0, seed=1, gateway='droptail'); \
	specs = {'pop100k': population_spec(100_000), 'sym4': sym(4), \
	         'sym16': sym(16), 'sym256': sym(256)}; \
	integrated = lambda spec: sum(bool(re.fullmatch('s[0-9]+', name)) \
	    for name in FluidModel(spec).kernel.__code__.co_varnames); \
	factors = lambda spec: len(re.findall('[+] p[0-9]+ [*] ', \
	    FluidModel(spec).kernel_source)) // 4; \
	print('\n'.join('kernel %-8s state %3d  integrated %2d  G/H factors %d  emit + compile %6.1f ms' % ( \
	    name, FluidModel(spec).n_state, integrated(spec), factors(spec), \
	    timeit.timeit(lambda: FluidModel(spec).kernel, number=1) * 1e3) \
	    for name, spec in specs.items() if name != 'sym4')); \
	defs = {name: FluidModel(spec).kernel_source.count('def ') \
	        for name, spec in specs.items()}; \
	assert set(defs.values()) == {1}, ('a kernel emits more than run', defs); \
	assert integrated(specs['sym256']) == integrated(specs['sym4']), 'sym256 not reduced'; \
	assert factors(specs['sym256']) == factors(specs['sym4']), 'sym256 repeats a G/H factor'; \
	print('fluid smoke OK: one emitted function per kernel; sym256 integrates as many variables, and computes as many G/H factors, as sym4')"

# The dependency list is true: install the package *without* the test
# extra into a clean venv (so the routing test oracle's graph library
# is absent) and drive a packet figure, an audited churn scenario on a
# generated topology, and the fluid ladder through the installed entry point.
IMPORT_SMOKE_VENV ?= .import-smoke-venv
import-smoke:
	rm -rf $(IMPORT_SMOKE_VENV)
	$(PYTHON) -m venv $(IMPORT_SMOKE_VENV)
	$(IMPORT_SMOKE_VENV)/bin/pip install --quiet .
	cd $(IMPORT_SMOKE_VENV) && bin/repro-rla fig7 --cases 1 --duration 2 --warmup 1
	cd $(IMPORT_SMOKE_VENV) && bin/repro-rla scenarios run waxman-churn \
		--duration 2 --warmup 0.5 --audit
	cd $(IMPORT_SMOKE_VENV) && bin/repro-rla fluid scale --counts 1000
	cd $(IMPORT_SMOKE_VENV) && bin/python -c "import importlib.util as u; \
	assert u.find_spec('networkx') is None, 'venv is not clean'; \
	import repro.cli, sys; \
	assert not {'networkx', 'numpy'} & set(sys.modules), 'heavy import at start-up'; \
	print('import smoke OK: runs without the test extra')"
	rm -rf $(IMPORT_SMOKE_VENV)

# Start-up smoke, no network needed: the import budget (fresh interpreters
# asserting what `import repro.cli`, each subcommand and a cache replay may
# load), then what the two commonest start-ups cost on this machine — the
# modules each loads (repro's among them) and the summed `-X importtime`
# of its top-level imports: `import repro.cli`, a `fig7 --cases 1
# --cache` replay of the run just before it (which must simulate nothing),
# and `fluid scale --counts 1000`, which loads no packet simulator.  Last,
# the cold row: `import repro.cli` from a copy of src with no bytecode (as
# rlabench's set-up imports it), its wall milliseconds and the repro
# modules it compiled — the entry point alone, at most 3.
STARTUP_CACHE := .startup-smoke-cache
STARTUP_SRC := .startup-smoke-src
startup-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_import_budget.py
	rm -rf $(STARTUP_CACHE)
	PYTHONPATH=src $(PYTHON) -m repro.cli fig7 --cases 1 --duration 2 \
		--warmup 1 --cache $(STARTUP_CACHE) > /dev/null
	PYTHONPATH=src $(PYTHON) -c "import subprocess, sys; \
	runs = [('import repro.cli', ['-c', 'import repro.cli']), \
	        ('fig7 --cases 1 --cache (warm)', ['-m', 'repro.cli', 'fig7', \
	         '--cases', '1', '--duration', '2', '--warmup', '1', \
	         '--cache', '$(STARTUP_CACHE)', '--metrics']), \
	        ('fluid scale --counts 1000', ['-m', 'repro.cli', 'fluid', \
	         'scale', '--counts', '1000'])]; \
	done = [(name, subprocess.run([sys.executable, '-X', 'importtime', *argv], \
	         check=True, capture_output=True, text=True)) for name, argv in runs]; \
	assert 'simulated work: 0.00 s' in done[1][1].stdout, done[1][1].stdout; \
	rows = [(name, [line.split('|') for line in run.stderr.splitlines() \
	         if line.startswith('import time:') and 'self [us]' not in line]) \
	        for name, run in done]; \
	print('\n'.join('%-30s %3d modules, %2d of them repro; importtime %6.1f ms' % ( \
	    name, len(r), sum(f[2].strip().startswith('repro') for f in r), \
	    sum(int(f[1]) for f in r if not f[2].startswith('  ')) / 1e3) \
	    for name, r in rows))"
	rm -rf $(STARTUP_CACHE) $(STARTUP_SRC)
	$(PYTHON) -c "import os, pathlib, shutil, subprocess, sys, time; \
	copy = pathlib.Path('$(STARTUP_SRC)'); \
	shutil.copytree('src', copy, ignore=shutil.ignore_patterns('__pycache__', '*.pyc')); \
	env = {k: v for k, v in os.environ.items() \
	       if k not in ('PYTHONDONTWRITEBYTECODE', 'PYTHONPYCACHEPREFIX')}; \
	start = time.perf_counter(); \
	subprocess.run([sys.executable, '-c', 'import repro.cli'], check=True, \
	               env={**env, 'PYTHONPATH': str(copy)}); \
	ms = (time.perf_counter() - start) * 1e3; \
	compiled = sorted('%s/%s' % (pyc.parent.parent.relative_to(copy), \
	                  pyc.name.split('.')[0]) for pyc in copy.rglob('*.pyc')); \
	print('%-30s %6.1f ms, %d repro modules compiled: %s' % ( \
	    'import repro.cli (cold)', ms, len(compiled), ' '.join(compiled))); \
	assert len(compiled) <= 3, compiled"
	rm -rf $(STARTUP_SRC)

# Reproduce every paper figure from the CLI at a moderate scale.
figures:
	$(PYTHON) -m repro.cli fig4
	$(PYTHON) -m repro.cli fig5
	$(PYTHON) -m repro.cli fig7 --duration 120
	$(PYTHON) -m repro.cli fig8 --duration 120
	$(PYTHON) -m repro.cli fig9 --duration 120
	$(PYTHON) -m repro.cli fig10 --duration 120
	$(PYTHON) -m repro.cli multisession --duration 120

quickstart:
	$(PYTHON) examples/quickstart.py

# Every example still runs: each examples/*.py from a temporary working
# directory, failing on a non-zero exit or a traceback.  ~50 s (the
# multisession example alone is 20 s), so not part of `make test`.
examples-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for example in $(CURDIR)/examples/*.py; do \
		echo "== $$example"; \
		(cd "$$tmp" && PYTHONPATH=$(CURDIR)/src $(PYTHON) "$$example") \
			> "$$tmp/out.txt" 2>&1 \
		&& ! grep -q "^Traceback" "$$tmp/out.txt" \
		|| { cat "$$tmp/out.txt"; exit 1; }; \
	done && echo "examples smoke OK"

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
