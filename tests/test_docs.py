"""Documentation health tests: the docs must track the code."""

import pathlib
import re

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDocFiles:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/theory.md"]
    )
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 500

    def test_readme_quickstart_runs(self):
        """Execute the README's quickstart code block verbatim."""
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert blocks, "README must contain a python quickstart block"
        namespace: dict = {}
        exec(blocks[0], namespace)  # noqa: S102 - our own documentation
        solution = namespace["solution"]
        assert solution.fuel == pytest.approx(13.45, abs=0.01)

    def test_design_lists_every_subpackage(self):
        text = (ROOT / "DESIGN.md").read_text()
        src = ROOT / "src" / "repro"
        for package in sorted(p.name for p in src.iterdir() if p.is_dir()):
            if package == "__pycache__":
                continue
            assert package in text, f"DESIGN.md does not mention {package}/"

    def test_experiments_covers_all_tables_and_figures(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for marker in ("Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6",
                       "Fig. 7", "Table 2", "Table 3"):
            assert marker in text, marker

    def test_version_consistent(self):
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject


#: The prose documents whose file references must resolve.
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    f"docs/{p.name}" for p in (ROOT / "docs").glob("*.md")
)
FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
INLINE = re.compile(r"`([^`]+)`")
REPO_DIRS = ("examples", "benchmarks", "tests", "scripts")
#: A repo-relative script path: examples/x.py, benchmarks/e2e/y.py, ...
REPO_PATH = re.compile(rf"(?<![\w/.])(?:{'|'.join(REPO_DIRS)})/[\w/]*\w\.py\b")
#: A package-relative module path: core/optimizer.py, sim/vectorized.py.
MODULE_PATH = re.compile(r"(?<![\w/.])([a-z_]+)/([a-z_]+)\.py\b")
BENCH_ID = re.compile(r"`((?:ext|robust|future)_\w+)`")
TREE_ENTRY = re.compile(r"[\w.]+(?:/[\w.]+)*/|[\w/]+\.py")


def _code_spans(text: str) -> list[str]:
    """Fenced blocks plus the inline spans of the text around them."""
    return FENCE.findall(text) + INLINE.findall(FENCE.sub("", text))


def _tree_entries(block: str):
    """``src/repro/...`` paths named by a file tree in a fenced block.

    Works for box-drawn (``├── core/``) and indented trees alike: an
    entry's column says which open directory it sits in.  Lines whose
    first word is neither ``name/`` nor ``name.py`` are descriptions.
    """
    lines = block.splitlines()
    if not lines or lines[0].strip() != "src/repro/":
        return
    stack = [(-1, pathlib.PurePosixPath("src/repro"))]
    for line in lines[1:]:
        body = line.lstrip(" │├└─")
        name = body.split(" ", 1)[0]
        if not name or not TREE_ENTRY.fullmatch(name):
            continue
        column = len(line) - len(body)
        while stack[-1][0] >= column:
            stack.pop()
        path = stack[-1][1] / name
        yield path, name.endswith("/")
        if name.endswith("/"):
            stack.append((column, path))


class TestDocsTrackCode:
    """Every file, module and bench a document names must exist."""

    @pytest.mark.parametrize("name", DOCS)
    def test_script_paths_exist(self, name):
        spans = _code_spans((ROOT / name).read_text())
        stale = sorted(
            {p for span in spans for p in REPO_PATH.findall(span) if not (ROOT / p).exists()}
        )
        assert not stale, f"{name} names missing files: {stale}"

    @pytest.mark.parametrize("name", DOCS)
    def test_module_paths_exist(self, name):
        src = ROOT / "src" / "repro"
        stale = sorted(
            f"{package}/{module}.py"
            for span in _code_spans((ROOT / name).read_text())
            for package, module in MODULE_PATH.findall(span)
            if package not in REPO_DIRS
            and not (src / package / f"{module}.py").exists()
        )
        assert not stale, f"{name} names missing modules: {stale}"

    @pytest.mark.parametrize("name", DOCS)
    def test_source_tree_entries_exist(self, name):
        stale = [
            str(path)
            for block in FENCE.findall((ROOT / name).read_text())
            for path, is_dir in _tree_entries(block)
            if not ((ROOT / path).is_dir() if is_dir else (ROOT / path).is_file())
        ]
        assert not stale, f"{name}'s source tree lists missing entries: {stale}"

    def test_experiment_bench_ids_are_emitted(self):
        rows = [
            line for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines()
            if line.startswith("|")
        ]
        ids = {bench for row in rows for bench in BENCH_ID.findall(row)}
        assert ids, "EXPERIMENTS.md lists no ext_/robust_/future_ bench ids"
        emitted = "".join(
            p.read_text() for p in (ROOT / "benchmarks").glob("test_bench_*.py")
        )
        missing = sorted(b for b in ids if f'"{b}"' not in emitted)
        assert not missing, f"no bench emits {missing}"


class TestDocstrings:
    def test_every_public_module_has_a_docstring(self):
        import importlib
        import pkgutil

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_api_objects_documented(self):
        undocumented = [
            name
            for name in repro.__all__
            if name != "__version__"
            and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not undocumented, undocumented
