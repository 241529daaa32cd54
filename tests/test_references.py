"""Repository paths, test ids and search/builder function names cited
in the docs, the CI workflow and the verify notes must exist, and CI
must run nothing under ``benchmarks/``."""

import ast
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


#: ``path.py::Class::test`` — the part :data:`PATH` stops before.
NODE_ID = re.compile(r"(?<![\w./-])((?:tests|benchmarks)/[\w/]+\.py)((?:::\w+)+)")

#: Where the names ``docs/optimizer.md`` and ``docs/execution.md`` cite
#: live: a bare private ``_name`` is a function of the search module, a
#: qualified one a method or attribute of that class.
SEARCH_DOCS = [ROOT / "docs" / "optimizer.md", ROOT / "docs" / "execution.md"]
CITED_NAME = re.compile(
    r"`(?:(PlanBuilder|PhysicalSelection)\.(\w+)|(_[a-z]\w*))")
HOME = {
    None: "src/repro/optimizer/pipeline/physical_selection.py",
    "PhysicalSelection": "src/repro/optimizer/pipeline/physical_selection.py",
    "PlanBuilder": "src/repro/optimizer/manual.py",
}


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


def test_named_test_ids_exist():
    missing = []
    for source in SOURCES:
        for path, trail in set(NODE_ID.findall(source.read_text())):
            scope = ast.parse((ROOT / path).read_text()).body
            for name in trail.split("::")[1:]:
                scope = next((node.body for node in scope
                              if getattr(node, "name", None) == name), None)
                if scope is None:
                    missing.append(f"{source.relative_to(ROOT)}: {path}{trail}")
                    break
    assert missing == []


def test_cited_search_and_builder_names_are_defined():
    cited = {(owner or None, method or private)
             for doc in SEARCH_DOCS
             for owner, method, private in CITED_NAME.findall(doc.read_text())}
    assert len(cited) >= 6
    missing = [
        f"{owner or 'physical_selection.py'}: {name}" for owner, name in cited
        if not re.search(rf"def {name}\(|self\.{name}\b[^=\n]*= ",
                         (ROOT / HOME[owner]).read_text())]
    assert missing == []


def test_ci_runs_nothing_under_benchmarks():
    paths = named_paths(CI.read_text())
    assert paths and not any(p.startswith("benchmarks") for p in paths)
