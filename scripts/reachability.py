"""Reachability: which function bodies in ``src/repro`` nothing runs.

Runs every ``fcdpm`` command in this interpreter under a call profiler
(``sys.setprofile`` plus ``threading.setprofile`` for the live-flush
thread, inherited by forked pool workers), then ``simulate_batch`` at
widths 1, 2 and 16 (and 16 again on two workers), and prints the
function-body lines of every function that was never called: per file,
in total, and function by function.

A function's lines run from its ``def`` line to its last line; lines
of a nested function count towards the nested one only, so every line
is counted once.

The command list covers the paper artifacts (tables, figures, the full
report, sweeps, lifetime, export), every registered scenario, a traced
run with ``trace check/summary``, the experiment lifecycle (define,
run with ``--live``, crash-free shards, merge, resume, status, watch,
report), ``top``, ``cache stats`` and ``cache clear``, and one
``--workers 2`` command.  Everything writes into a temporary cache
directory that is removed afterwards.

Usage::

    PYTHONPATH=src python scripts/reachability.py

After the per-file totals it lists every never-called function by name
(``file:line  name  (lines)``).  This is a report, not a gate: it exits
0 unless a command fails.
"""

from __future__ import annotations

import ast
import contextlib
import io
import multiprocessing.util
import os
import pickle
import shutil
import sys
import tempfile
import threading
from pathlib import Path

SRC = (Path(__file__).resolve().parent.parent / "src" / "repro").resolve()

_seen: set = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _keys(codes) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object under ``SRC``."""
    prefix = str(SRC)
    found = set()
    for code in codes:
        filename = os.path.abspath(code.co_filename)
        if filename.startswith(prefix):
            found.add((filename, code.co_firstlineno))
    return found


class _ChildDump:
    """Forked pool workers inherit the profiler; each dumps what it saw.

    ``multiprocessing`` clears inherited finalizers when a child starts
    and then runs its after-fork hooks, so the exit dump is registered
    from one of those hooks.
    """

    def __init__(self, outdir: Path) -> None:
        self.outdir = outdir
        outdir.mkdir()
        multiprocessing.util.register_after_fork(self, _ChildDump._in_child)

    def _in_child(self) -> None:
        _seen.clear()
        multiprocessing.util.Finalize(self, self._dump, exitpriority=100)

    def _dump(self) -> None:
        sys.setprofile(None)
        path = self.outdir / f"child-{os.getpid()}.pkl"
        path.write_bytes(pickle.dumps(_keys(_seen)))


def _commands(tmp: Path) -> list[list[str]]:
    from repro.scenario import scenario_names

    trace_dir = str(tmp / "trace")
    export_dir = str(tmp / "export")
    cmds = [
        ["table2"], ["table3"], ["fig2"], ["fig3"], ["fig4"], ["fig7"],
        ["--no-cache", "report"], ["report"], ["lifetime"],
        ["export", export_dir],
        ["sweep", "storage"], ["sweep", "predictor"],
        ["sweep", "beta"], ["sweep", "recharge"],
        ["--workers", "2", "--no-cache", "sweep", "beta"],
        ["run", "--list"],
        ["run", "--scenario", "table2", "--trace", trace_dir],
        ["trace", "check", trace_dir], ["trace", "summary", trace_dir],
    ]
    cmds += [["run", "--scenario", name] for name in scenario_names()]
    cmds += [
        ["exp", "define", "r-a", "--scenario", "exp2-fc-dpm",
         "--seeds", "0:4", "--policies", "conv-dpm,fc-dpm"],
        ["exp", "define", "r-b", "--kind", "storage",
         "--scenario", "exp2-fc-dpm", "--seeds", "0:2",
         "--ablate", "capacity=3,6"],
        ["exp", "run", "r-a", "--shard", "1/2", "--live",
         "--live-interval", "0.05"],
        ["exp", "run", "r-a", "--shard", "2/2", "--live",
         "--live-interval", "0.05"],
        ["exp", "merge", "r-a"],
        ["exp", "run", "r-b"], ["exp", "resume", "r-b"],
        ["exp", "report", "r-a"], ["exp", "report", "r-b", "--mark-analyzed"],
        ["exp", "status"], ["exp", "status", "r-a"],
        ["exp", "status", "r-a", "--json"],
        ["exp", "watch", "r-a", "--once"],
        ["exp", "watch", "r-a", "--once", "--json"],
        ["top", "--once"], ["top", "--once", "--json"],
        ["cache", "stats"],
        ["cache", "clear", "--namespace", "report"],
        ["cache", "clear"],
    ]
    return cmds


def _run_batches() -> None:
    from repro.scenario import get_scenario
    from repro.sim import simulate_batch

    sc = get_scenario("exp2-conv-dpm")
    policies = ["conv-dpm", "asap-dpm", "fc-dpm"]
    for width in (1, 2, 16):
        simulate_batch(sc, list(range(100, 100 + width)), policies)
    simulate_batch(sc, list(range(200, 216)), policies, workers=2)


def _functions(path: Path) -> list[tuple[int, int, str, int]]:
    """``(first line, def line, qualified name, own lines)`` per function.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    tree = ast.parse(path.read_text())
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                lines = set(range(child.lineno, child.end_lineno + 1))
                for inner in ast.walk(child):
                    if inner is not child and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        lines -= set(range(inner.lineno, inner.end_lineno + 1))
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, child.lineno, name, len(lines)))
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="fcdpm-reach-"))
    os.environ["FCDPM_CACHE_DIR"] = str(tmp / "cache")
    os.environ.pop("FCDPM_EXP_DIR", None)
    os.environ.pop("FCDPM_LIVE_INTERVAL", None)
    child_dump = _ChildDump(tmp / "children")
    failures = []
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    try:
        from repro.cli import main as fcdpm

        for cmd in _commands(tmp):
            with contextlib.redirect_stdout(io.StringIO()):
                code = fcdpm(cmd)
            if code != 0:
                failures.append((cmd, code))
        _run_batches()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = _keys(_seen)
    for dump in child_dump.outdir.glob("child-*.pkl"):
        called |= pickle.loads(dump.read_bytes())
    shutil.rmtree(tmp, ignore_errors=True)

    total_lines = dead_lines = 0
    per_file = []
    dead_functions = []
    for path in sorted(SRC.rglob("*.py")):
        dead = 0
        for first, def_line, name, n_lines in _functions(path):
            total_lines += n_lines
            if (str(path), first) in called:
                continue
            dead += n_lines
            dead_functions.append((path, def_line, name, n_lines))
        dead_lines += dead
        if dead:
            per_file.append((dead, path.relative_to(SRC.parent)))

    for dead, rel in sorted(per_file, key=lambda item: (-item[0], str(item[1]))):
        print(f"{dead:6d}  {rel}")
    print()
    for path, line, name, n_lines in dead_functions:
        print(f"{path.relative_to(SRC.parent)}:{line}  {name}  ({n_lines})")
    print(
        f"never called: {dead_lines} of {total_lines} function-body lines "
        f"({len(dead_functions)} functions) in {SRC.relative_to(SRC.parent.parent)}"
    )
    for cmd, code in failures:
        print(f"FAIL fcdpm {' '.join(cmd)} exited {code}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
