"""The six benchmark workloads: program setup, one timed op, output check.

Each workload is a closed loop with one client: the next op starts when
the previous one returns.  The program only ever sees the generated
inputs -- seed windows drawn from a ``random.Random`` that the worker
seeds from the benchmark's ``--seed``, the workload and the round.

Calls into ``repro`` go through module attributes looked up at call
time (``self._vec.simulate_batch``), so the traced run's wrappers see
the workload's own entry calls too.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIO = "exp2-conv-dpm"
POLICIES = ("conv-dpm", "asap-dpm", "fc-dpm")

#: The measured column of EXPERIMENTS.md (Tables 2 and 3, seed 2007),
#: as the report prints it.  test_e2e.py keeps the two in step.
PAPER_ROWS = {
    "table2": {"conv-dpm": "100.0", "asap-dpm": "40.0", "fc-dpm": "33.9"},
    "table3": {"conv-dpm": "100.0", "asap-dpm": "43.6", "fc-dpm": "39.2"},
}
REPORT_ARGS = ("--no-cache", "--seed", "2007", "report")


def oracle_cell(scenario, seed: int, policy: str):
    """One (seed, policy) cell on the scalar ``SlotSimulator`` oracle.

    The manager is built fresh from the public scenario API, renamed to
    the policy spec the way batch results are keyed.
    """
    from repro.sim.slotsim import SlotSimulator

    manager = dataclasses.replace(
        scenario, policy=dataclasses.replace(scenario.policy, kind=policy)
    ).build_manager()
    manager.name = policy
    return SlotSimulator(manager, max_deficit_fraction=0.05).run(scenario.build_trace(seed))


class Workload:
    """One workload's hooks; the worker times only :meth:`op`."""

    name = ""
    #: Peak RSS counts child processes (the pool workers or the CLI).
    children = False
    #: The program runs inside the worker, so the tracer can patch it.
    in_process = True
    #: Run one untimed op before timing.
    warm_up = True
    #: Rounds end on a multiple of this many ops.
    cycle = 1

    def __init__(self, rng, tmp: Path, env: dict, cwd: Path) -> None:
        self.rng = rng
        self.tmp = tmp
        self.env = env
        self.cwd = cwd
        self.tracer = None

    def setup(self) -> float | None:
        """Program-side setup; may return its own setup time in seconds."""
        return None

    def prepare_checks(self) -> None:
        """Benchmark-side expected values (not part of ``setup_s``)."""

    def op(self, i: int):
        raise NotImplementedError

    def cells(self, out) -> int:
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        """An error message when ``out`` is wrong, else None."""
        raise NotImplementedError


class MonteCarlo(Workload):
    """``simulate_batch`` over fresh seeds; one cell re-run on the oracle."""

    def __init__(self, *args, widths: tuple[int, ...], workers: int) -> None:
        super().__init__(*args)
        self.widths = widths
        self.workers = workers
        self.cycle = len(widths)

    def setup(self) -> None:
        import repro.sim.vectorized as vectorized
        from repro.scenario import get_scenario

        self._vec = vectorized
        self.scenario = get_scenario(SCENARIO)
        self._next_seed = self.rng.randrange(1 << 30)

    def op(self, i: int):
        width = self.widths[i % len(self.widths)]
        seeds = list(range(self._next_seed, self._next_seed + width))
        self._next_seed += width
        return seeds, self._vec.simulate_batch(SCENARIO, seeds, POLICIES, workers=self.workers)

    def cells(self, out) -> int:
        return len(out[0]) * len(POLICIES)

    def check(self, i: int, out) -> str | None:
        seeds, results = out
        if list(results) != seeds or any(tuple(results[s]) != POLICIES for s in seeds):
            return "batch result is missing (seed, policy) cells"
        seed = self.rng.choice(seeds)
        policy = self.rng.choice(POLICIES)
        if oracle_cell(self.scenario, seed, policy) != results[seed][policy]:
            return f"seed {seed} {policy}: batch result != SlotSimulator oracle"
        return None


class _Experiment(Workload):
    """Shared spec and expected values of the experiment-store workloads."""

    n_seeds = 64

    def setup(self) -> None:
        import repro.exp as exp
        from repro.runtime.cache import ResultCache

        self._exp = exp
        self._cache_cls = ResultCache
        first = self.rng.randrange(1 << 30)
        self.seeds = list(range(first, first + self.n_seeds))
        self.spec = exp.scenario_batch_spec(f"bench-{self.name}", SCENARIO, self.seeds, POLICIES)

    def prepare_checks(self) -> None:
        from repro.sim.vectorized import simulate_batch

        out = simulate_batch(SCENARIO, self.seeds, POLICIES)
        self.expected = {
            (s, p): self._exp.result_metrics(out[s][p]) for s in self.seeds for p in POLICIES
        }

    def cells(self, out) -> int:
        return len(self.expected)

    def _store(self, root: Path):
        return self._exp.ExperimentStore(root / "exp"), self._cache_cls(root / "cache")


class ExpSweep(_Experiment):
    """``run_experiment`` of a fresh spec into a fresh store: the write path."""

    name = "exp-sweep"

    def op(self, i: int):
        root = Path(tempfile.mkdtemp(dir=self.tmp))
        store, cache = self._store(root)
        return root, self._exp.run_experiment(self.spec, store=store, cache=cache)

    def check(self, i: int, out) -> str | None:
        root, run = out
        shutil.rmtree(root, ignore_errors=True)
        if (run.failed, run.executed, run.resumed) != (0, len(self.expected), 0):
            return f"failed/executed/resumed = {run.failed}/{run.executed}/{run.resumed}"
        got = {(t.seed, t.policy): run.results[t.task_id] for t in self.spec.expand()}
        if got != self.expected:
            return "stored values != direct simulate_batch values"
        return None


class ExpReload(_Experiment):
    """Resume scan plus ``ExperimentResults.load`` of a finished store."""

    name = "exp-reload"

    def setup(self) -> None:
        super().setup()
        self.store, self.cache = self._store(Path(tempfile.mkdtemp(dir=self.tmp)))
        self._exp.run_experiment(self.spec, store=self.store, cache=self.cache)

    def op(self, i: int):
        name = self.spec.name
        run = self._exp.run_experiment(name, store=self.store, cache=self.cache)
        results = self._exp.ExperimentResults.load(self.store.load(name), self.cache)
        return run, results

    def check(self, i: int, out) -> str | None:
        run, results = out
        if (run.failed, run.executed, run.resumed) != (0, 0, len(self.expected)):
            return f"failed/executed/resumed = {run.failed}/{run.executed}/{run.resumed}"
        if {(c.seed, c.policy): c.value for c in results.cells()} != self.expected:
            return "loaded values != direct simulate_batch values"
        return None


def table_rows(text: str, table: str) -> dict[str, str]:
    """``{policy: measured}`` of one normalized-fuel table in report text."""
    lines = text.splitlines()
    start = lines.index(f"{table} -- normalized fuel") + 4
    rows = {}
    for line in lines[start:]:
        cols = [c.strip() for c in line.split("|")]
        if len(cols) != 3:
            break
        rows[cols[0]] = cols[1]
    return rows


class PaperCli(Workload):
    """A fresh-interpreter ``fcdpm --no-cache report`` per op."""

    name = "paper-cli"
    children = True
    in_process = False
    # Every op is a fresh interpreter; the timed bare import in setup
    # already warms the file cache.
    warm_up = False

    def _python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            env=self.env,
            cwd=self.cwd,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def setup(self) -> float:
        # setup_s of this workload is a bare import in a fresh interpreter.
        import time

        t0 = time.perf_counter()
        proc = self._python("-c", "import repro.cli")
        elapsed = time.perf_counter() - t0
        if proc.returncode:
            raise RuntimeError(f"import repro.cli failed:\n{proc.stderr}")
        return elapsed

    def op(self, i: int):
        if self.tracer is None:
            return self._python("-m", "repro.cli", *REPORT_ARGS)
        return self._python("-m", "benchmarks.e2e.cli_shim", *REPORT_ARGS)

    def cells(self, out) -> int:
        return sum(len(rows) for rows in PAPER_ROWS.values())

    def check(self, i: int, out) -> str | None:
        stdout = out.stdout
        if self.tracer is not None and out.returncode == 0:
            envelope = json.loads(stdout.splitlines()[-1])
            stdout = envelope["stdout"]
            if i >= 0:  # the warm-up op is not measured
                self.tracer.adopt(envelope["spans"], i)
                self.tracer.memo_hits += envelope["memo"][0]
                self.tracer.memo_misses += envelope["memo"][1]
        if out.returncode:
            return f"exit {out.returncode}: {out.stderr.strip()[-300:]}"
        for table, expected in PAPER_ROWS.items():
            try:
                got = table_rows(stdout, table)
            except ValueError:
                return f"{table} missing from the report"
            if got != expected:
                return f"{table} rows {got} != EXPERIMENTS.md {expected}"
        return None


def make(name: str, rng, tmp: Path, env: dict, cwd: Path) -> Workload:
    args = (rng, tmp, env, cwd)
    if name == "mc-wide":
        w = MonteCarlo(*args, widths=(1000,), workers=1)
    elif name == "mc-narrow":
        w = MonteCarlo(*args, widths=(1, 2, 4, 8, 16), workers=1)
    elif name == "mc-fanout":
        w = MonteCarlo(*args, widths=(200,), workers=2)
        w.children = True
    elif name == "exp-sweep":
        w = ExpSweep(*args)
    elif name == "exp-reload":
        w = ExpReload(*args)
    elif name == "paper-cli":
        w = PaperCli(*args)
    else:
        raise ValueError(f"unknown workload {name!r}")
    w.name = name
    return w
