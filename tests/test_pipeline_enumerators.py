"""Staged-pipeline and join-enumerator tests.

Pins the refactored optimizer to its pre-pipeline behavior (the default
exhaustive enumerator must be **bit-identical** on the Fig. 16 queries
and the fuzz corpus — golden explains/costs/hash live in
``tests/golden_plans.json``), and covers the new pluggable
join-ordering layer: the enumerator registry, the region-rewrite
bail-outs, enumerator-salted plan-cache fingerprints, pipeline reuse
across ``optimize``/refinement/``cost_of``, and the per-stage telemetry
surfaced by sessions and the server.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.logical import Query
from repro.logical.algebra import Annotator
from repro.optimizer import (
    ENUMERATORS,
    ExhaustiveEnumerator,
    GreedyManyToManyEnumerator,
    Optimizer,
    SimpliSquaredEnumerator,
    make_enumerator,
)
from repro.optimizer.pipeline import OptimizationPipeline, PreCheckError
from repro.service import PlanCache, QueryServer, QuerySession
from repro.workloads import (
    many_join_catalog,
    many_join_query,
    trading_stats_catalog,
    query5,
)
from tests.conftest import fig16_cases

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_plans.json").read_text())


# -- golden pins: the refactor must be invisible under the default enumerator ------------
def test_exhaustive_bit_identical_on_fig16():
    """Default-enumerator plans on Q3–Q6 and the many-join query match
    the pre-refactor golden explains and costs byte for byte."""
    goldens = {**GOLDEN["fig16"], "many_join": GOLDEN["many_join"]}
    cases = fig16_cases() + [
        ("many_join", many_join_catalog(), many_join_query())]
    for name, catalog, query in cases:
        plan = Optimizer(catalog).optimize(query)
        golden = goldens[name]
        assert plan.explain() == golden["explain"], name
        assert plan.total_cost == golden["cost"], name


def test_exhaustive_bit_identical_on_fuzz_corpus():
    """Plan explains over the 40-seed fuzz corpus (parallelism 1 and 4)
    hash to the pre-refactor golden digest."""
    import test_plan_fuzz as fuzz
    h = hashlib.sha256()
    for seed in range(GOLDEN["fuzz"]["seeds"]):
        rng = random.Random(seed)
        catalog = fuzz.random_catalog(rng)
        query = fuzz.random_query(rng, catalog)
        session = QuerySession(catalog)
        for parallelism in (1, 4):
            plan = session.prepare(query, parallelism=parallelism).plan
            h.update(plan.explain().encode())
    assert h.hexdigest() == GOLDEN["fuzz"]["sha256"]


def _sharded_plans():
    """``(catalog, query, plan)`` per below-the-exchange alternative, on
    the fixtures of ``test_shard_enforcers`` at parallelism 4 — the fuzz
    corpus reaches only the per-shard enforcer, so these are what pins
    the other alternatives' plans and costs."""
    from unittest import mock

    import test_shard_enforcers as fx
    from repro.expr import col
    from repro.expr.aggregates import agg_sum, count_star
    from repro.optimizer.pipeline import physical_selection
    from repro.optimizer.volcano import split_required_order

    def plan(catalog, query, **options):
        return catalog, query, QuerySession(catalog, **options).prepare(
            query, parallelism=4).plan

    unmeasured = fx.spill_catalog()
    unmeasured.table("r").shard_stats = lambda shard_count: None
    joined = Query.table("r").join("dim", on=[("c2", "d2")])
    broadcast_catalog = fx.join_agg_catalog(dim_rows=50,
                                            cpu_comparisons_per_io=2_000.0)
    grouped = Query.table("r").group_by(
        ["c2"], count_star("n"), agg_sum(col("c1"), "s")).order_by("c2")
    plans = {
        "per_shard_srs": plan(fx.spill_catalog(),
                              Query.table("r").order_by("c2")),
        "per_shard_mrs": plan(
            fx.spill_catalog(num_rows=8000, rows_per_segment=4000,
                             memory_blocks=100),
            Query.table("r").order_by("c1", "c2")),
        "uniform_srs": plan(unmeasured, Query.table("r").order_by("c2")),
        "range_disjoint_concat": plan(
            fx.skewed_range_catalog(memory_blocks=1000),
            Query.table("t").order_by("k", "v"), strategy="pyro-o-"),
        "broadcast_merge_join": plan(broadcast_catalog, joined.order_by("c2")),
        "copartitioned_hash_join": plan(
            fx.copartitioned_catalog(),
            Query.table("ta").full_outer_join("tb", on=[("a_k", "b_k")])),
        "per_shard_aggregate": plan(
            fx.join_agg_catalog(c2_domain=200, dim_rows=200), grouped,
            enable_hash_aggregate=False),
        # Everything fits in sort memory, so the enforcer below the
        # aggregate stays post-union and the aggregate shards it itself.
        "per_shard_aggregate_over_post_union_sort": plan(
            fx.join_agg_catalog(c2_domain=200, dim_rows=200,
                                memory_blocks=5000), grouped,
            enable_hash_aggregate=False),
        "per_shard_distinct": plan(
            fx.duplicate_heavy_catalog(),
            Query.table("t").distinct().order_by("b", "c", "a")),
        "join_aggregate_over_sharded_enforcer": plan(
            fx.join_agg_catalog(),
            joined.group_by(["c2"], agg_sum(col("weight"), "w"))
            .order_by("c2")),
    }
    # A LEFT OUTER broadcast never wins its gate (the join emits at least
    # its left rows, so gathering them costs no less than gathering the
    # left input), hence no fixture plans one: read it off the candidate
    # generator with the gate held open.
    left = Query.table("r").join("dim", on=[("c2", "d2")], how="left")
    expr, required = split_required_order(left.order_by("c2"))
    pipeline = Optimizer(broadcast_catalog, parallelism=4).pipeline
    run = physical_selection.PhysicalSelection(
        broadcast_catalog, expr, pipeline.strategy, pipeline.config)
    with mock.patch.object(physical_selection, "prefer_sharded",
                           lambda sharded, unsharded: True):
        plans["broadcast_merge_join_left"] = broadcast_catalog, left, next(
            p for p in run._join_candidates(
                expr, required, physical_selection._Bound())
            if p.op == "MergeExchange")
    return plans


def test_sharded_alternatives_bit_identical():
    """Every below-the-exchange alternative builds the plan, at the
    cost, captured before the builders were folded into shared steps."""
    plans = _sharded_plans()
    assert set(plans) == set(GOLDEN["sharded"])
    for name, (_, _, plan) in plans.items():
        golden = GOLDEN["sharded"][name]
        assert plan.explain() == golden["explain"], name
        assert plan.total_cost == golden["cost"], name


# -- one rule per operator: the search's nodes are the public builder's ------------------
_GATHERS = ("MergeExchange", "ExchangeUnion")


def _rebuilt(b, node, per_shard):
    """*node* made again from its children by the public builder."""
    kids, arg = node.children, node.arg
    # A per-shard copy of a join is told its share of the whole estimate.
    share = {"stats": node.stats} if per_shard else {}
    return {
        "TableScan": lambda: b.table_scan(arg("table")),
        "ClusteringIndexScan": lambda: b.clustering_scan(arg("table")),
        "CoveringIndexScan": lambda: b.covering_scan(arg("table"),
                                                     arg("index")),
        "Filter": lambda: b.filter(*kids, arg("predicate")),
        "Project": lambda: b.project(*kids, arg("columns")),
        "Compute": lambda: b.compute(*kids, arg("outputs")),
        "Limit": lambda: b.limit(*kids, arg("k")),
        # A per-shard enforcer carries the measured view it was priced on.
        "Sort": lambda: b.sort(*kids, node.order, full=True,
                               on=node.stats if per_shard else None),
        "PartialSort": lambda: b.sort(*kids, node.order,
                                      on=node.stats if per_shard else None),
        "MergeJoin": lambda: b.merge_join(
            *kids, arg("predicate").pairs, arg("join_type"),
            sort_inputs=False, logical=arg("logical"), **share),
        "HashJoin": lambda: b.hash_join(*kids, arg("predicate").pairs,
                                        arg("join_type"), **share),
        "SortAggregate": lambda: b.sort_aggregate(
            *kids, node.order, arg("aggregates"), arg("group_columns")),
        "HashAggregate": lambda: b.hash_aggregate(
            *kids, arg("group_columns"), arg("aggregates")),
        "SortedCombine": lambda: b.sorted_combine(
            *kids, arg("group_columns"), arg("aggregates"), node.stats),
        "MergeUnion": lambda: b.merge_union(*kids, node.order,
                                            sort_inputs=False),
        "UnionAll": lambda: b.union_all(*kids),
        # Above a gather of Dedups it is their finisher.
        "Dedup": lambda: b.dedup(*kids, node.order, **(
            {"stats": node.stats} if kids[0].op in _GATHERS else {})),
        "HashDedup": lambda: b.hash_dedup(*kids),
        "MergeExchange": lambda: b.gather(kids, node.order, node.stats,
                                          arg("disjoint")),
        "ExchangeUnion": lambda: b.gather(kids, node.order, node.stats),
    }[node.op]()


def _facts(node, names):
    return (node.op, node.schema.names, node.order, node.stats.N,
            [node.stats.distinct_of(c) for c in names], node.self_cost)


def _unlike_the_builders(catalog, query, plan):
    """Nodes of *plan* that differ from what :class:`PlanBuilder` makes
    of their children.  The clones of a scan chain below a gather are
    passed over: each carries a share of its whole, not a function of
    its child."""
    from repro.engine.exchange import ORDER_PRESERVING_UNARY_OPS
    from repro.optimizer.manual import PlanBuilder
    from repro.optimizer.volcano import split_required_order
    expr, _ = split_required_order(query)
    builder = PlanBuilder(catalog, Annotator(catalog, expr).eq)
    unlike = []

    def visit(node, per_shard):
        for child in node.children:
            visit(child, per_shard or node.op in _GATHERS)
        leaf = node
        while leaf.op in ORDER_PRESERVING_UNARY_OPS:
            leaf = leaf.children[0]
        if leaf.op in ("ShardedScan", "RangePartitionScan"):
            return
        made = _rebuilt(builder, node, per_shard)
        if _facts(made, node.schema.names) != _facts(node, node.schema.names):
            unlike.append((node, made))

    visit(plan, False)
    return unlike


def test_every_planned_node_is_what_the_builder_makes_of_its_children():
    """Op, schema, order, row count, distincts and cost of every node of
    the golden plans and the fuzz corpus follow from the node's children
    by the public :class:`PlanBuilder` rule — the one hand-built baseline
    plans are made by, so the two are comparable on estimated cost."""
    import test_plan_fuzz as fuzz
    cases = [(name, catalog, query, Optimizer(catalog).optimize(query))
             for name, catalog, query in fig16_cases() + [
                 ("many_join", many_join_catalog(), many_join_query())]]
    cases += [(name, *case) for name, case in _sharded_plans().items()]
    for seed in range(GOLDEN["fuzz"]["seeds"]):
        rng = random.Random(seed)
        catalog = fuzz.random_catalog(rng)
        query = fuzz.random_query(rng, catalog)
        cases += [(f"fuzz {seed} p{parallelism}", catalog, query,
                   QuerySession(catalog).prepare(
                       query, parallelism=parallelism).plan)
                  for parallelism in (1, 4)]
    nodes = 0
    for name, catalog, query, plan in cases:
        assert _unlike_the_builders(catalog, query, plan) == [], name
        nodes += sum(1 for _ in plan.walk())
    assert nodes > 700


# -- registry and pre-check --------------------------------------------------------------
def test_registry_and_salts():
    assert set(ENUMERATORS) == {"exhaustive", "simpli-squared", "greedy-m2m"}
    # The default enumerator salts with the empty string so every
    # pre-pipeline cache fingerprint stays valid.
    assert ExhaustiveEnumerator().cache_salt == ""
    assert SimpliSquaredEnumerator().cache_salt == "simpli-squared"
    assert GreedyManyToManyEnumerator().cache_salt == "greedy-m2m"
    inst = SimpliSquaredEnumerator()
    assert make_enumerator(inst) is inst
    assert isinstance(make_enumerator("greedy-m2m"), GreedyManyToManyEnumerator)


def test_unknown_enumerator_fails_pre_check():
    with pytest.raises(ValueError, match="exhaustive"):
        make_enumerator("nope")
    catalog = trading_stats_catalog()
    with pytest.raises(PreCheckError, match="nope"):
        Optimizer(catalog, join_enumerator="nope")
    with pytest.raises(PreCheckError):
        Optimizer(catalog, parallelism=0)


# -- region rewriting --------------------------------------------------------------------
def test_rewrite_bails_on_small_and_outer_regions():
    """Regions under three leaves and outer-join boundaries are left
    exactly as written."""
    catalog = many_join_catalog()
    enum = SimpliSquaredEnumerator()
    two_way = Query.table("l0").join("l1", on=[("l0_a", "l1_a")]).expr
    assert enum.reorder(catalog, two_way) is two_way
    outer = (Query.table("l0")
             .join("l1", on=[("l0_a", "l1_a")], how="full")
             .join("l2", on=[("l1_b", "l2_a")], how="full")).expr
    assert enum.reorder(catalog, outer) is outer


@pytest.mark.parametrize("name", ["simpli-squared", "greedy-m2m"])
def test_rewrite_preserves_tables_and_schema(name):
    """The many-join region is actually reordered, and the rewritten
    tree reads the same tables and exposes the same output columns in
    the same order (a Project restores the as-written column order)."""
    catalog = many_join_catalog()
    root = many_join_query().expr
    enum = make_enumerator(name)
    tree = enum.reorder(catalog, root)
    assert tree != root
    annotator = Annotator(catalog, root)
    rewritten_annotator = Annotator(catalog, tree)
    assert (rewritten_annotator.schema_of(tree).names
            == annotator.schema_of(root).names)


def test_reordered_plan_not_worse_on_many_join():
    catalog = many_join_catalog()
    query = many_join_query()
    exhaustive_cost = Optimizer(catalog).optimize(query).total_cost
    for name in ("simpli-squared", "greedy-m2m"):
        cost = Optimizer(catalog, join_enumerator=name) \
            .optimize(query).total_cost
        assert cost <= exhaustive_cost * 1.001, name


def test_simpli_squared_searches_fewer_goals_under_pyro_e():
    """The benchmark gate's core claim, pinned as a unit test: committing
    to the size-ordered left-deep tree avoids the five-attribute bridge
    join's interesting-order explosion under exhaustive PYRO-E."""
    catalog = many_join_catalog()
    query = many_join_query()
    goals = {}
    for name in ("exhaustive", "simpli-squared"):
        optimizer = Optimizer(catalog, strategy="pyro-e",
                              join_enumerator=name)
        optimizer.optimize(query)
        goals[name] = optimizer.last_telemetry["goals_examined"]
    assert goals["exhaustive"] >= 5 * goals["simpli-squared"], goals


# -- cache salting -----------------------------------------------------------------------
def test_enumerators_never_share_a_cache_entry():
    """Two sessions over one shared cache with different enumerators must
    each optimize: a plan cached under one enumerator is unreachable
    from the other (fingerprints carry the enumerator salt)."""
    catalog = many_join_catalog()
    query = many_join_query()
    cache = PlanCache(capacity=16)
    exhaustive = QuerySession(catalog, cache=cache)
    simpli = QuerySession(catalog, cache=cache,
                          join_enumerator="simpli-squared")
    plan_a = exhaustive.prepare(query).plan
    plan_b = simpli.prepare(query).plan
    assert exhaustive.metrics.optimizations == 1
    assert simpli.metrics.optimizations == 1      # no cross-enumerator hit
    assert cache.stats.hits == 0
    assert len(cache) == 2
    assert plan_a.explain() != plan_b.explain()
    # Same-enumerator re-prepare still hits.
    simpli.prepare(query)
    assert cache.stats.hits == 1
    assert simpli.metrics.optimizations == 1


def test_exhaustive_fingerprint_is_unsalted():
    """The default enumerator's fingerprints carry no ``#j`` salt, so
    caches populated before the pipeline refactor stay warm."""
    catalog = trading_stats_catalog()
    session = QuerySession(catalog)
    prepared = session.prepare(query5())
    assert "#j" not in prepared.fingerprint
    salted = QuerySession(catalog, join_enumerator="greedy-m2m")
    assert "#jgreedy-m2m" in salted.prepare(query5()).fingerprint


# -- pipeline reuse across optimize / refine / cost_of -----------------------------------
class _CountingEnumerator(ExhaustiveEnumerator):
    def __init__(self):
        self.calls = 0

    def reorder(self, catalog, expr):
        self.calls += 1
        return expr


def test_pipeline_reused_across_optimize_refine_and_cost_of():
    """`Optimizer` builds its pipeline once: refinement and ``cost_of``
    see the exact enumerator instance `optimize` used (the historical
    bug was rebuilding a default config per parallelism)."""
    catalog = trading_stats_catalog()
    enum = _CountingEnumerator()
    optimizer = Optimizer(catalog, join_enumerator=enum)
    assert optimizer.pipeline.enumerator is enum
    # with_parallelism must share the enumerator, not rebuild one.
    assert optimizer.pipeline.with_parallelism(4).enumerator is enum
    assert optimizer.pipeline.with_parallelism(4).config.parallelism == 4
    optimizer.optimize(query5())
    # Refinement re-searches the chosen tree without re-enumerating:
    # exactly one reorder call per optimize().
    assert enum.calls == 1
    optimizer.cost_of(query5())
    assert enum.calls == 2
    assert optimizer.pipeline.enumerator is enum


def test_pipeline_with_parallelism_identity():
    catalog = trading_stats_catalog()
    optimizer = Optimizer(catalog)
    pipeline = optimizer.pipeline
    assert pipeline.with_parallelism(None) is pipeline
    assert pipeline.with_parallelism(pipeline.config.parallelism) is pipeline
    wide = pipeline.with_parallelism(4)
    assert wide is not pipeline
    assert wide.strategy is pipeline.strategy
    assert wide.enumerator is pipeline.enumerator
    assert isinstance(pipeline, OptimizationPipeline)


# -- the plug-in boundary: a custom enumerator is checked, not trusted --------------------
class _OtherTables(ExhaustiveEnumerator):
    name = "other-tables"

    def reorder(self, catalog, expr):
        return Query.table("l0").join("l1", on=[("l0_a", "l1_a")]).expr


class _PermutedColumns(ExhaustiveEnumerator):
    """The right tables, but the size-ordered join without the
    ``Project`` that restores the as-written column order."""
    name = "permuted-columns"

    def reorder(self, catalog, expr):
        return SimpliSquaredEnumerator().reorder(catalog, expr).child


class _Raising(ExhaustiveEnumerator):
    name = "raising"

    def reorder(self, catalog, expr):
        raise KeyError("no such statistics")


class _Malformed(ExhaustiveEnumerator):
    name = "malformed"

    def reorder(self, catalog, expr):
        return Query.table("no_such_table").expr


@pytest.mark.parametrize(
    "enumerator", [_OtherTables, _PermutedColumns, _Raising, _Malformed])
@pytest.mark.parametrize("refine", [False, True])
def test_rejected_enumerator_plans_the_query_as_written(enumerator, refine):
    catalog = many_join_catalog()
    query = many_join_query()
    as_written = Optimizer(catalog, refine=refine)
    expected = as_written.optimize(query)
    optimizer = Optimizer(catalog, refine=refine, join_enumerator=enumerator())
    plan = optimizer.optimize(query)
    assert plan.explain() == expected.explain()
    assert plan.total_cost == expected.total_cost
    assert optimizer.last_telemetry["join_order_candidates"] == 1
    for counter in ("goals_examined", "memo_hits", "goals_pruned"):
        assert (optimizer.last_telemetry[counter]
                == as_written.last_telemetry[counter]), counter
    # Through the serving layer too, where the counters are summed.
    session = QuerySession(catalog, join_enumerator=enumerator())
    assert session.prepare(query).explain() == \
        QuerySession(catalog).prepare(query).explain()
    assert session.stats()["join_order_candidates"] == 1


def test_rejection_is_reported_on_the_enumeration_span():
    from repro.obs.trace import Tracer
    catalog = many_join_catalog()
    for enumerator, reason in ((_Raising, "no such statistics"),
                               (_OtherTables, "not equivalent"),
                               (SimpliSquaredEnumerator, None)):
        trace = Tracer().start("prepare")
        with trace.span("prepare"):
            Optimizer(catalog, join_enumerator=enumerator()).optimize(
                many_join_query())
        span = trace.find("join_enumeration")
        assert span.tags["candidates"] == 1
        if reason is None:
            assert "rejected" not in span.tags
        else:
            assert reason in span.tags["rejected"]


class _Recording(SimpliSquaredEnumerator):
    """A valid custom reordering that remembers the tree it proposed."""
    name = "recording"

    def reorder(self, catalog, expr):
        self.tree = super().reorder(catalog, expr)
        return self.tree


def test_accepted_custom_tree_is_the_tree_searched_and_refined():
    catalog = many_join_catalog()
    query = many_join_query()
    enumerator = _Recording()
    optimizer = Optimizer(catalog, join_enumerator=enumerator,
                          enable_hash_join=False)
    plan = optimizer.optimize(query)
    assert enumerator.tree != query.expr.child
    reference = Optimizer(catalog, join_enumerator="simpli-squared",
                          enable_hash_join=False)
    assert plan.explain() == reference.optimize(query).explain()
    assert optimizer.last_telemetry == {
        **reference.last_telemetry,
        "enumerator_seconds": optimizer.last_telemetry["enumerator_seconds"]}
    # Phase 2 re-searched (its effort is in the telemetry) ...
    unrefined = Optimizer(catalog, join_enumerator=_Recording(), refine=False,
                          enable_hash_join=False)
    unrefined.optimize(query)
    assert (optimizer.last_telemetry["goals_examined"]
            > unrefined.last_telemetry["goals_examined"])
    # ... on the enumerator's tree: every merge join of the plan stands
    # for a join node of the tree that was handed back.
    nodes = {id(node) for node in enumerator.tree.walk()}
    joins = plan.find_all("MergeJoin")
    assert len(joins) == 7
    assert all(id(join.arg("logical")) in nodes for join in joins)


def test_the_run_has_one_search_and_no_search_is_a_run():
    """The driver is stated once: no class extends the search, it is
    constructed at two sites (phase 1 and the forced re-search of phase
    2), phase 2 never builds a group table of its own, and the names of
    the candidate-list driver are gone from the sources and the guide."""
    import ast
    import inspect
    import re

    import repro
    from repro.core.refinement import refine_plan

    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    sources = sorted(pathlib.Path(repro.__file__).parent.rglob("*.py"))
    subclasses, sites = [], []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and "PhysicalSelection" in map(
                    name, node.bases):
                subclasses.append(f"{path.name}:{node.name}")
            elif isinstance(node, ast.Call) and \
                    name(node.func) == "PhysicalSelection":
                sites.append(path.name)
    assert subclasses == []
    assert sites == ["volcano.py", "volcano.py"]
    assert (inspect.signature(refine_plan).parameters["groups"].default
            is inspect.Parameter.empty)
    gone = re.compile(r"candidate_trees|_other_searches|_chosen_other"
                      r"|\.chosen\b|OptimizationRun|_merge_telemetry")
    docs = sorted((pathlib.Path(__file__).parent.parent / "docs").glob("*.md"))
    assert [f"{path.name}:{number}" for path in sources + docs
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)] == []


# -- telemetry ---------------------------------------------------------------------------
def test_session_stats_surface_stage_telemetry():
    catalog = many_join_catalog()
    session = QuerySession(catalog, join_enumerator="simpli-squared")
    session.prepare(many_join_query())
    stats = session.stats()
    assert stats["join_enumerator"] == "simpli-squared"
    assert stats["join_order_candidates"] >= 1
    assert stats["enumerator_seconds"] > 0.0
    assert stats["goals_examined"] > 0
    assert stats["memo_hits"] >= 0
    assert stats["failure_memo_hits"] >= 0
    # A cache hit must not re-accumulate optimizer telemetry.
    goals = stats["goals_examined"]
    session.prepare(many_join_query())
    assert session.stats()["goals_examined"] == goals


def test_server_stats_aggregate_stage_telemetry():
    """New SessionMetrics fields must flow through the serving tier's
    cross-session aggregation (QueryServer.stats iterates the dataclass
    fields, so this is a canary against field-list drift)."""
    rng = random.Random(7)
    from repro.storage import Catalog, Schema, SystemParameters
    catalog = Catalog(SystemParameters())
    schema = Schema.of(("a", "int", 8), ("b", "int", 8))
    catalog.create_table("t", schema,
                         rows=[(rng.randrange(9), rng.randrange(9))
                               for _ in range(200)])
    server = QueryServer(catalog, join_enumerator="greedy-m2m")
    try:
        server.execute(Query.table("t").order_by("b", "a"))
        stats = server.stats()
        assert stats["goals_examined"] > 0
        assert stats["join_order_candidates"] >= 1
        assert stats["enumerator_seconds"] >= 0.0
    finally:
        server.close()
