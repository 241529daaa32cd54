"""Repository paths named in the docs, the CI workflow and the verify
notes must exist, and CI must run nothing under ``benchmarks/``."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"
SOURCES = sorted((ROOT / "docs").glob("*.md")) + [
    CI, ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]

#: ``tests/test_x.py::TestY`` stops at the ``::``; ``<x>`` marks a
#: placeholder and ``*`` a glob.
PATH = re.compile(
    r"(?<![\w./-])(?:benchmarks|tests|src|examples|docs)/[\w./*<>-]*")


def named_paths(text: str) -> set[str]:
    return {match.rstrip("./") for match in PATH.findall(text)}


def test_named_paths_exist():
    missing = []
    for source in SOURCES:
        for path in named_paths(source.read_text()):
            if "<" in path:
                continue
            if not (any(ROOT.glob(path)) if "*" in path
                    else (ROOT / path).exists()):
                missing.append(f"{source.relative_to(ROOT)}: {path}")
    assert missing == []


def test_ci_runs_nothing_under_benchmarks():
    paths = named_paths(CI.read_text())
    assert paths and not any(p.startswith("benchmarks") for p in paths)
