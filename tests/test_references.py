"""Repository paths, test ids and search/builder function names cited
in the docs, the CI workflow and the verify notes must exist, CI must
run nothing under ``benchmarks/``, no code imports a package CI does
not install, only the kernel generator turns text into code, every
constructor setting has a caller, removed settings stay gone, and every
definition under ``src/repro`` is named by the program, not only by
tests."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re
import sys

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


def test_benchmarks_hold_only_the_e2e_benchmark_and_its_pair_runner():
    """Beside the pair runner, its deterministic counterpart: the
    bytecodes each ``plan_cold`` operation executes, parent and change."""
    names = {p.name for p in (ROOT / "benchmarks").iterdir()} - {"__pycache__"}
    assert names == {"e2e", "ab_pairs.py", "opcount.py"}


def test_every_import_is_stdlib_test_tooling_repro_or_a_sibling():
    """CI installs only ``pytest`` and ``hypothesis``; a sibling is a
    module beside the importing file, or one named through its package
    (``tests.conftest``)."""
    allowed = set(sys.stdlib_module_names) | {"pytest", "hypothesis", "repro"}
    foreign = []
    for top in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            siblings = {p.stem for p in path.parent.iterdir()} | {path.parent.name}
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                foreign += [f"{path.relative_to(ROOT)}: {name}" for name in names
                            if name.split(".")[0] not in allowed | siblings]
    assert foreign == []


def test_only_the_kernel_generator_executes_source():
    """The builtins ``exec``, ``eval`` and ``compile`` are called under
    ``src/repro`` only by ``engine/kernels.py``, which writes every
    string it runs from names it made itself."""
    callers = sorted(
        f"{path.relative_to(ROOT)}: {node.func.id}"
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"exec", "eval", "compile"})
    assert callers == ["src/repro/engine/kernels.py: compile",
                       "src/repro/engine/kernels.py: exec"]


#: The public constructors and their parameters, in order.  ``**options``
#: are the optimizer's: the fields of ``OptimizerConfig``.
CONSTRUCTORS = {
    "repro.service.QueryServer":
        "catalog backend parallelism batch_size max_inflight queue_limit"
        " default_timeout cache_capacity pool_workers mp_context"
        " tenant_weights circuit_threshold circuit_reset_timeout feedback"
        " obs **options",
    "repro.service.QuerySession": "catalog cache feedback **options",
    "repro.optimizer.Optimizer": "catalog **options",
    "repro.service.ProcessPoolBackend": "catalog workers mp_context",
    "repro.service.PlanCache": "capacity",
    "repro.service.CircuitBreaker": "failure_threshold reset_timeout clock",
}


#: The execution entry points and their parameters after ``self``: a
#: plan runs under its ``ctx``, the one carrier of the batch size, order
#: checking and meter timing (``parallelism`` selects nothing at run
#: time; the e2e benchmark passes it).
RUN_PLAN = "plan catalog parallelism ctx"
SIGNATURES = {
    "repro.service.ExecutionBackend.run_plan": RUN_PLAN,
    "repro.service.SerialBackend.run_plan": RUN_PLAN,
    "repro.service.ProcessPoolBackend.run_plan": RUN_PLAN,
    "repro.service.PreparedQuery.execute": "ctx **binds",
    "repro.service.QuerySession.execute":
        "query required_order ctx parallelism **binds",
    "repro.service.QuerySession.explain_analyze":
        "query required_order ctx parallelism **binds",
    "repro.service.QueryServer.execute":
        "query required_order parallelism timeout tenant trace **binds",
    "repro.service.QueryServer.submit":
        "query required_order parallelism timeout tenant trace **binds",
}


def _parameters(dotted: str) -> list[str]:
    """``dotted``'s parameters after ``self``, ``**`` marking a
    catch-all; the first two components name the module."""
    parts = dotted.split(".")
    target = importlib.import_module(".".join(parts[:2]))
    for part in parts[2:]:
        target = getattr(target, part)
    return [("**" if p.kind is p.VAR_KEYWORD else "") + p.name
            for p in inspect.signature(target).parameters.values()
            if p.name != "self"]


def _code_spans(paths) -> str:
    """Every inline code span and fenced block of the Markdown *paths*."""
    return "\n".join(span for path in paths
                     for span in re.findall(r"`+([^`]+)`+", path.read_text()))


def test_constructor_census():
    """Each constructor and execution entry point takes exactly the
    pinned parameters, and every constructor parameter (and every
    optimizer option) is set by name in a tier-1 test and named by the
    e2e benchmark or in the docs; a setting with no caller is deleted,
    not documented."""
    from repro.optimizer import OptimizerConfig

    for dotted, expected in {**CONSTRUCTORS, **SIGNATURES}.items():
        assert _parameters(dotted) == expected.split(), dotted
    names = {name for expected in CONSTRUCTORS.values()
             for name in expected.split()
             if name != "catalog" and not name.startswith("**")}
    names |= {field.name for field in dataclasses.fields(OptimizerConfig)}
    tests = "\n".join(path.read_text()
                      for path in sorted((ROOT / "tests").glob("*.py"))
                      if path.name != pathlib.Path(__file__).name)
    bench = "\n".join(path.read_text() for path in
                      sorted((ROOT / "benchmarks" / "e2e").glob("*.py")))
    docs = _code_spans(sorted((ROOT / "docs").glob("*.md")))
    untested = sorted(n for n in names if not re.search(rf"\b{n}=", tests))
    unnamed = sorted(
        n for n in names
        if not re.search(rf"\b{n}=|[\"']{n}[\"']", bench)
        and not re.search(rf"\b{n}\b", docs))
    assert (untested, unnamed) == ([], [])


def test_removed_settings_stay_gone():
    """One spelling of each setting, one plan cache, and no setting that
    only tests varied: the second cache class, the pipeline wrapper, the
    plan-cache TTL, the chunk-size, default-tenant-weight and
    half-open-probe settings, a ``config=`` object on the three
    constructors, the partial-sort flag beside the strategy name, a
    per-call ``refine`` beside the config's, and a batch size or order
    check given to ``run_plan`` beside its context are named nowhere in
    the program, its examples or its docs."""
    gone = re.compile(r"SharedPlanCache|OptimizationPipeline|ttl_seconds"
                      r"|cache_ttl|chunk_rows=|default_tenant_weight"
                      r"|half_open_max|partial_sort_enforcers")
    config_kwarg = re.compile(
        r"\b(?:Optimizer|QuerySession|QueryServer)\([^)]*\bconfig=")
    call_kwarg = re.compile(r"optimize\([^)]*\brefine\s*[=:]"
                            r"|run_plan\([^)]*\b(?:batch_size|check_orders)\s*[=:]")
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "examples").glob("*.py")) + sorted((ROOT / "docs").glob("*.md"))
    hits = [f"{path.relative_to(ROOT)}: {match.group(0)[:40]}"
            for path in paths
            for pattern in (gone, config_kwarg, call_kwarg)
            for match in pattern.finditer(path.read_text())]
    assert hits == []


#: Definitions under ``src/repro`` that nothing in ``src/``,
#: ``benchmarks/`` or ``examples/`` names, each with why it stays.
UNREFERENCED = {
    "src/repro/engine/scans.py: RowSource":
        "the in-memory source tests feed operators literal rows through",
    "src/repro/expr/aggregates.py: agg_max": "DSL convenience beside agg_min",
    "src/repro/expr/aggregates.py: agg_avg": "DSL convenience beside agg_sum",
    "src/repro/logical/builder.py: Query.left_outer_join":
        "DSL convenience beside full_outer_join",
    "src/repro/obs/__init__.py: __getattr__":
        "the module attribute hook Python calls to load ExplainAnalyze lazily",
    "src/repro/optimizer/baselines.py: sys1_default_q3":
        "the paper's SYS1 hash plan for Query 3 (Fig. 11a), a ledger competitor",
    "src/repro/optimizer/baselines.py: sys1_merge_q3":
        "the paper's SYS1 merge plan for Query 3 (Fig. 11b), a ledger competitor",
    "src/repro/optimizer/baselines.py: sys_default_q4":
        "the systems' plan for Query 4 without a shared prefix (Fig. 14)",
    "src/repro/optimizer/baselines.py: pyro_o_q4":
        "PYRO-O's hand-built Query 4 plan on the shared (c4, c5) prefix (Fig. 14)",
    "src/repro/optimizer/baselines.py: sys2_union_q4":
        "the paper's SYS2 union of two outer joins for Query 4 (Fig. 14)",
    "src/repro/optimizer/volcano.py: Optimizer.optimize_with_forced_orders":
        "phase 2's re-plan with pinned permutations (Sec. 5.2.2), which the"
        " refinement tests drive directly",
    "src/repro/workloads/synthetic.py: identical_r_tables":
        "workload builder: the ledger's Query 4 catalog at 20K rows",
    "src/repro/workloads/tpch.py: add_query1_indexes":
        "workload builder: Query 1's index on the ledger's TPC-H catalog",
    "src/repro/workloads/tpch.py: add_query2_indexes":
        "workload builder: Query 2's indexes on the ledger's TPC-H catalog",
}


def _kept_lines(tree: ast.Module) -> set[int]:
    """Lines that name nothing: import statements (re-exports among
    them) and ``__all__`` assignments."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AugAssign) else [])
        if isinstance(node, (ast.Import, ast.ImportFrom)) or any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            skip.update(range(node.lineno, node.end_lineno + 1))
    return skip


def _definitions(tree: ast.Module):
    """``(qualified name, node)`` of every module-level function and
    class and every non-dunder method of a module-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*kinds, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, kinds) and not (
                            sub.name.startswith("__") and sub.name.endswith("__")))


def test_every_definition_is_named_outside_tests():
    """A definition under ``src/repro`` that only tests name is a test
    oracle or dead code: the paper's constructions the tests check live
    in ``tests/paper_oracles.py``.  Each def and class must be named in
    ``src/``, ``benchmarks/`` or ``examples/`` besides its own body, an
    ``__all__`` entry or an import line.  :data:`UNREFERENCED` lists the
    exceptions, and only them: an entry the program names again, or
    whose definition is gone, fails too."""
    words: dict[pathlib.Path, list[list[str]]] = {}
    trees = {}
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            trees[path] = tree = ast.parse(text)
            skip = _kept_lines(tree)
            words[path] = [[] if i in skip else re.findall(r"\w+", line)
                           for i, line in enumerate(text.splitlines(), 1)]
    named: dict[str, int] = {}
    for lines in words.values():
        for line in lines:
            for word in line:
                named[word] = named.get(word, 0) + 1
    unnamed, found = [], set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for qualified, node in _definitions(trees[path]):
            name = qualified.rsplit(".", 1)[-1]
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = sum(line.count(name)
                      for line in words[path][first - 1:node.end_lineno])
            label = f"{path.relative_to(ROOT)}: {qualified}"
            if named.get(name, 0) > own:
                continue
            if label in UNREFERENCED:
                found.add(label)
            else:
                unnamed.append(label)
    assert (unnamed, sorted(set(UNREFERENCED) - found)) == ([], [])


def _unused_imports(path: pathlib.Path) -> list[str]:
    """The names *path* imports and never reads: neither in its code nor
    in a quoted annotation, nor in its ``__all__``.  ``__future__``
    features are not names."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= {name.id for name in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(name, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_module_imports_a_name_it_does_not_read():
    """Every name a module under ``src/repro`` imports is read by it —
    but for the re-exports of a package's ``__init__.py``."""
    unused = {f"{path.relative_to(ROOT)}: {', '.join(names)}"
              for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
              if path.name != "__init__.py"
              for names in [_unused_imports(path)] if names}
    assert unused == set()
