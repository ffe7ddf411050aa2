"""Every module under ``src/repro`` can be imported from an entry point.

The entry points are the scripts under ``benchmarks/``, ``examples/``,
``perfbench/`` and ``tools/``, the ``repro`` console script and
``python -m repro``. The test follows every ``import`` and ``from``
statement from them, function-level ones included, and fails on any module
outside that closure: a package only its own tests import.

A static closure cannot show that code runs, since package ``__init__``
files import eagerly. It checks the weaker condition that some entry point
can import the module, which a package nothing uses fails.

It follows modules, not names, so each paper bench is also imported for
real: a bench that imports a name ``src/`` no longer defines fails here,
although no tier-1 job runs the benches themselves.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_DIRS = ("benchmarks", "examples", "perfbench", "tools")
#: The console script's module (``setup.cfg``) and ``python -m repro``.
CONSOLE_MODULES = {"repro.cli", "repro.__main__"}


def repro_modules() -> dict[str, Path]:
    """Dotted name -> source file, for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path, package: str | None) -> set[str]:
    """Module names the file's import statements can load, with every
    parent package. ``from p import n`` yields ``p`` and ``p.n``, since
    ``n`` may be a submodule; ``package`` resolves relative imports."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if package is None:
                    continue
                parts = package.split(".")
                anchor = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{anchor}.{base}" if base else anchor
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return with_parents(names)


def with_parents(names: set[str]) -> set[str]:
    """Importing ``a.b.c`` also imports ``a`` and ``a.b``."""
    return {
        ".".join(name.split(".")[:depth])
        for name in names
        for depth in range(1, name.count(".") + 2)
    }


def test_every_module_is_reachable_from_an_entry_point():
    modules = repro_modules()
    pending = with_parents(CONSOLE_MODULES)
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if not path.name.startswith("test_"):
                pending |= imported_names(path, None)
    reached: set[str] = set()
    while pending:
        name = pending.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        path = modules[name]
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        pending |= imported_names(path, package)
    assert sorted(set(modules) - reached) == []



def test_sweeps_do_not_cross_the_campaign_layer_upward():
    """The runner sits above the campaign layer and campaign reports read
    store records alone, so neither imports the other's package."""
    modules = repro_modules()
    runner = imported_names(modules["repro.experiments.runner"], "repro.experiments")
    reports = imported_names(modules["repro.campaign.reports"], "repro.campaign")
    assert not {n for n in runner if n.startswith("repro.campaign")}
    assert not {n for n in reports if n.startswith("repro.experiments")}


BENCH_FILES = sorted((ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.stem for p in BENCH_FILES])
def test_every_bench_module_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(path.parent))  # for ``from _report import``
    spec = importlib.util.spec_from_file_location(f"bench_import_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
