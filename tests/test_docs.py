"""The docs stay runnable: CLI examples parse, links resolve, code runs.

The ``docs/`` pages promise every example is CI-verified. This module is
that verification:

- every ``repro ...`` invocation inside a fenced code block of
  ``docs/*.md`` and ``README.md`` must parse against the real argparse
  tree (unknown flags, renamed subcommands, or dropped choices fail
  here before a user hits them);
- every documented subcommand must exist, and every subcommand must be
  documented in ``docs/cli.md`` (the ``repro --help`` snapshot);
- relative links in the docs must point at files that exist, and so must
  every Markdown file named in the code, benchmarks, examples or docs;
- fenced ``python`` blocks in ``docs/*.md`` must execute;
- a cheap smoke subset actually runs end-to-end.
"""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((REPO / "docs").glob("*.md"))
DOC_IDS = [p.name for p in DOC_FILES]

FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
LINK = re.compile(r"\[[^\]]*\]\(([^)]+)\)")


def fenced_blocks(path: Path, language: str) -> list[str]:
    return [
        body
        for lang, body in FENCE.findall(path.read_text())
        if lang == language
    ]


def repro_invocations(path: Path) -> list[list[str]]:
    """All ``repro ...`` command lines inside bash code blocks."""
    out = []
    for block in fenced_blocks(path, "bash"):
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("repro "):
                out.append(shlex.split(line)[1:])
    return out


class TestCliExamplesParse:
    @pytest.mark.parametrize(
        "path", DOC_FILES + [REPO / "README.md"],
        ids=DOC_IDS + ["README.md"],
    )
    def test_every_repro_example_parses(self, path):
        parser = build_parser()
        invocations = repro_invocations(path)
        for args in invocations:
            try:
                parser.parse_args(args)
            except SystemExit:  # argparse reports errors via sys.exit
                pytest.fail(f"{path.name}: `repro {' '.join(args)}` no longer parses")

    def test_cli_md_has_examples(self):
        assert len(repro_invocations(REPO / "docs" / "cli.md")) >= 10


class TestHelpSnapshot:
    def subcommands(self) -> set[str]:
        parser = build_parser()
        actions = [
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        ]
        return set(actions[0].choices)

    def test_top_level_subcommands_are_pinned(self):
        """The snapshot: adding/renaming a subcommand must update docs."""
        assert self.subcommands() == {
            "table1", "table2", "table3", "fig1", "run", "sweep", "grids",
            "perf", "campaign", "geo", "disrupt", "stream", "obs", "faults",
        }

    def test_every_subcommand_documented_in_cli_md(self):
        text = (REPO / "docs" / "cli.md").read_text()
        for name in self.subcommands():
            assert f"repro {name}" in text, f"`repro {name}` missing from docs/cli.md"


class TestLinksResolve:
    @pytest.mark.parametrize(
        "path", DOC_FILES + [REPO / "README.md"],
        ids=DOC_IDS + ["README.md"],
    )
    def test_relative_links_exist(self, path):
        for target in LINK.findall(path.read_text()):
            if target.startswith(("http://", "https://", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            assert resolved.exists(), f"{path.name}: broken link {target}"


#: A Markdown file name, bare or with a relative path.
MARKDOWN_NAME = re.compile(r"[\w./-]*\w\.md\b")


@pytest.mark.parametrize(
    "where", ["src", "benchmarks", "examples", "docs", "README.md"]
)
def test_every_named_markdown_file_exists(where):
    """A name resolves next to the file that mentions it or at the root."""
    root = REPO / where
    files = [root] if root.is_file() else sorted(
        p for p in root.rglob("*") if p.suffix in (".py", ".md")
    )
    missing = [
        f"{path.relative_to(REPO)}: {name}"
        for path in files
        for name in MARKDOWN_NAME.findall(path.read_text(encoding="utf-8"))
        if not ((path.parent / name).exists() or (REPO / name).exists())
    ]
    assert missing == []


class TestPythonBlocksRun:
    @pytest.mark.parametrize("path", DOC_FILES, ids=DOC_IDS)
    def test_python_blocks_execute(self, path):
        for block in fenced_blocks(path, "python"):
            exec(compile(block, str(path), "exec"), {"__name__": "__docs__"})


class TestSmokeInvocations:
    def test_repro_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            with redirect_stdout(io.StringIO()):
                main(["--help"])
        assert excinfo.value.code == 0

    def test_repro_grids_runs(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["grids"]) == 0
        assert "DE" in buf.getvalue()

    def test_repro_campaign_list_runs(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["campaign", "list"]) == 0
        assert "demo" in buf.getvalue()
