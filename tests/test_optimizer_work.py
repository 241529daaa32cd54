"""How much work the optimizer does per decision — counted, never timed.

The search derives what is true of a *logical* node once per group
(:mod:`repro.optimizer.pipeline.groups`) and what is a function of its
inputs' property objects once per distinct input; a plan's subtree cost
is fixed when the node is built.  These tests pin that as call counts on
the many-join query under the exhaustive enumerator and PYRO-E (120
interesting orders at the top join), pin the search-effort counters the
restructuring must not move, and cover what replaced the recursive hash
of logical subtrees: structural interning, identity keys that keep
their objects alive, and trees that cross a pickle / hash-seed boundary.
"""

import gc
import os
import pathlib
import pickle
import random
import subprocess
import sys
import weakref

import pytest

import test_plan_fuzz as fuzz
from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.engine.kernels import attach_plan_kernels
from repro.engine.subplan import strip_plan
from repro.expr import col
from repro.logical import Query
from repro.logical import fds
from repro.logical.algebra import Annotator, Union
from repro.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.pipeline import groups as groups_module
from repro.optimizer.pipeline.groups import GroupTable
from repro.optimizer.pipeline.physical_selection import PhysicalSelection
from repro.optimizer.plans import PhysicalPlan
from repro.core.interesting import make_strategy
from repro.service import QuerySession
from repro.storage import Catalog, Schema, TableStats
from repro.storage.statistics import StatsView
from repro.workloads import many_join_catalog, many_join_query

SRC = str(pathlib.Path(__file__).parent.parent / "src")


def recomputed_cost(plan: PhysicalPlan) -> float:
    """The former ``total_cost`` property: the same expression, re-walked."""
    return plan.self_cost + sum(recomputed_cost(c) for c in plan.children)


def assert_costs_stored(plan: PhysicalPlan) -> None:
    for node in plan.walk():
        assert node.total_cost == recomputed_cost(node), node


# -- work per decision on the many-join query --------------------------------------------
@pytest.fixture
def counted_prepare(request, monkeypatch):
    """One cold prepare of the many-join query (exhaustive x pyro-e,
    parallelism 1) with the derivation entry points counted; an indirect
    parameter names another join enumerator."""
    counts = {"group_tables": 0, "annotators": 0, "fd_nodes": 0, "joins": 0}
    join_inputs = []  # (left, right, pairs) — held, so ids stay distinct

    table_init = GroupTable.__init__
    def counting_table_init(self, catalog, root):
        counts["group_tables"] += 1
        table_init(self, catalog, root)
    monkeypatch.setattr(GroupTable, "__init__", counting_table_init)

    annotator_init = Annotator.__init__
    def counting_init(self, catalog, root):
        counts["annotators"] += 1
        annotator_init(self, catalog, root)
    monkeypatch.setattr(Annotator, "__init__", counting_init)

    node_fds = fds.node_fds
    def counting_node_fds(catalog, node, child_fds, child_schemas):
        counts["fd_nodes"] += 1
        return node_fds(catalog, node, child_fds, child_schemas)
    monkeypatch.setattr(groups_module, "node_fds", counting_node_fds)
    monkeypatch.setattr(fds, "node_fds", counting_node_fds)

    stats_join = StatsView.join
    def counting_join(self, other, join_pairs, eq=None):
        counts["joins"] += 1
        join_inputs.append((self, other, tuple(join_pairs)))
        return stats_join(self, other, join_pairs, eq)
    monkeypatch.setattr(StatsView, "join", counting_join)

    session = QuerySession(
        many_join_catalog(), strategy="pyro-e",
        join_enumerator=getattr(request, "param", "exhaustive"))
    query = many_join_query()
    prepared = session.prepare(query, parallelism=1)
    return session, query, prepared, counts, join_inputs


def test_search_effort_counters_are_pinned(counted_prepare):
    session, _, _, _, _ = counted_prepare
    stats = session.stats()
    assert stats["goals_examined"] == 267
    assert stats["memo_hits"] == 976


def test_join_statistics_once_per_distinct_input(counted_prepare):
    _, _, _, counts, join_inputs = counted_prepare
    distinct = {(id(left), id(right), pairs)
                for left, right, pairs in join_inputs}
    # One per join node here (621 calls before groups): every candidate
    # plan of a child group carries its scan's statistics object.
    assert counts["joins"] == len(distinct) == 7


def test_one_annotator_and_one_fd_pass_per_searched_tree(counted_prepare):
    _, query, _, counts, _ = counted_prepare
    assert counts["annotators"] == 1  # phase 2 reuses phase 1's table
    nodes = sum(1 for _ in query.expr.child.walk())
    assert counts["fd_nodes"] == nodes == 15


@pytest.mark.parametrize("counted_prepare", ["simpli-squared", "greedy-m2m"],
                         indirect=True)
def test_one_table_and_the_same_effort_under_reordering_enumerators(
        counted_prepare):
    """A reordered tree is the only tree that gets a group table: the
    as-written one is read for its tables and root schema, nothing more,
    and a region leaf for its schema without an annotator of its own."""
    session, _, prepared, counts, _ = counted_prepare
    assert counts["group_tables"] == counts["annotators"] == 1
    # The restoring Project is a node of the searched tree.
    restoring = prepared.plan.find_all("Project")
    assert restoring and counts["fd_nodes"] == 16
    stats = session.stats()
    assert stats["goals_examined"] == 45
    assert stats["memo_hits"] == 82
    assert stats["join_order_candidates"] == 1


def test_total_cost_is_stored_not_rewalked(counted_prepare):
    _, _, prepared, _, _ = counted_prepare
    assert not isinstance(vars(PhysicalPlan).get("total_cost"), property)
    for node in prepared.plan.walk():
        assert "total_cost" in vars(node)
    assert_costs_stored(prepared.plan)


# -- stored total_cost == recursive recomputation ----------------------------------------
def test_stored_cost_on_fuzz_corpus_and_through_every_rebuild():
    for seed in range(40):
        rng = random.Random(seed)
        catalog = fuzz.random_catalog(rng)
        query = fuzz.random_query(rng, catalog)
        for parallelism in (1, 4):
            plan = Optimizer(catalog).optimize(query, parallelism=parallelism)
            assert_costs_stored(plan)  # after refine_plan (default config)
            unrefined = Optimizer(catalog, refine=False).optimize(
                query, parallelism=parallelism)
            assert_costs_stored(unrefined)
            attached = attach_plan_kernels(plan)
            assert_costs_stored(attached)
            stripped = strip_plan(attached)
            assert_costs_stored(stripped)
            loaded = pickle.loads(pickle.dumps(stripped))
            assert_costs_stored(loaded)
            assert loaded.total_cost == plan.total_cost
            assert loaded.explain() == stripped.explain()
            rebuilt = plan.with_children(plan.children[::-1])
            assert rebuilt.total_cost == recomputed_cost(rebuilt)


def test_stored_cost_on_golden_plans():
    import test_pipeline_enumerators as golden
    for name, catalog, query in golden.fig16_cases():
        plan = Optimizer(catalog).optimize(query)
        assert_costs_stored(plan)
        assert plan.total_cost == golden.GOLDEN["fig16"][name]["cost"]


def test_total_cost_stays_out_of_the_pickled_plan():
    catalog = many_join_catalog()
    plan = strip_plan(Optimizer(catalog).optimize(many_join_query()))
    assert b"total_cost" not in pickle.dumps(plan)
    schema = plan.schema
    loaded = pickle.loads(pickle.dumps(schema))
    assert loaded == schema and loaded.names == schema.names
    assert loaded.row_bytes == schema.row_bytes
    assert b"row_bytes" not in pickle.dumps(schema)


# -- groups: interning, identity keys, hash seeds ----------------------------------------
@pytest.fixture
def rs_catalog():
    cat = Catalog()
    for name, cols in (("r", "ab"), ("s", "xy")):
        cat.create_table(name, Schema.of(*[(c, "int", 8) for c in cols]),
                         stats=TableStats(10_000, {c: 100 for c in cols}),
                         clustering_order=SortOrder([cols[0]]))
    return cat


def test_equal_but_distinct_subtrees_share_a_group(rs_catalog):
    def branch():
        return (Query.table("r").join("s", on=[("a", "x")])
                .where(col("b").eq(3)).expr)
    left, right = branch(), branch()
    assert left is not right and left == right
    table = GroupTable(rs_catalog, Union(left, right))
    assert table.of(left) is table.of(right)
    assert table.of(left.child) is table.of(right.child)
    # A node from outside the tree joins the group of its structural twin.
    assert table.of(branch()) is table.of(left)
    # Different own fields or different children are different groups.
    other = Query.table("r").join("s", on=[("b", "y")]).expr
    assert table.of(other) is not table.of(left.child)
    # One memo slot per (group, order): the second branch's goal is a hit.
    run = PhysicalSelection(rs_catalog, Union(left, right),
                          make_strategy("pyro-o")[0], OptimizerConfig())
    plan = run.optimize_goal(left, SortOrder(["a"]))
    before = run.goals_examined
    assert run.optimize_goal(right, SortOrder(["a"])) is plan
    assert run.goals_examined == before


def test_repeated_leaves_share_a_group(rs_catalog):
    """The same table scanned twice (a self-union here) is one group,
    whether the tree reuses the node or holds two equal ones."""
    scan_a, scan_b = Query.table("r").expr, Query.table("r").expr
    for tree in (Union(scan_a, scan_a), Union(scan_a, scan_b)):
        table = GroupTable(rs_catalog, tree)
        assert table.of(tree.left) is table.of(tree.right)
        assert len({id(table.of(n)) for n in tree.walk()}) == 2


def test_group_facts_match_a_fresh_derivation_of_the_subtree(rs_catalog):
    """Subtree-scoped FDs/equivalences derived bottom-up equal what a
    whole re-walk of that subtree derives (the replaced per-goal path)."""
    for seed in range(30):
        rng = random.Random(seed)
        catalog = fuzz.random_catalog(rng)
        root = fuzz.random_query(rng, catalog).expr
        table = GroupTable(catalog, root)
        for node in root.walk():
            group = table.of(node)
            annotator = Annotator(catalog, node)
            names = group.schema.names
            assert names == annotator.schema_of(node).names
            assert all(group.eq.same(a, b) == annotator.eq.same(a, b)
                       for a in names for b in names)
            whole = fds.query_fds(catalog, node)
            assert list(group.fds) == list(whole)


def test_identity_keys_keep_their_objects_alive(rs_catalog):
    root = Query.table("r").join("s", on=[("a", "x")]).expr
    table = GroupTable(rs_catalog, root)
    foreign = Query.table("s").expr
    ref = weakref.ref(foreign)
    group = table.of(foreign)
    del foreign
    gc.collect()
    assert ref() is not None and table.of(ref()) is group

    run = PhysicalSelection(rs_catalog, root, make_strategy("pyro-o")[0],
                          OptimizerConfig())
    run.optimize_goal(root, EMPTY_ORDER)
    assert run._derived
    for key, (_, inputs) in run._derived.items():
        assert key[1:] == tuple(map(id, inputs))


_CHILD = """
import pickle, sys
sys.path.insert(0, {src!r})
from repro.core.sort_order import SortOrder
from repro.optimizer import Optimizer
from repro.workloads import many_join_catalog
expr, required = pickle.loads(sys.stdin.buffer.read())
plan = Optimizer(many_join_catalog()).optimize(expr, required)
sys.stdout.write(plan.explain())
"""


def test_unpickled_tree_optimizes_alike_under_another_hash_seed():
    query = many_join_query()
    expr, required = query.expr.child, query.expr.order
    hash(expr)  # whatever a process caches on the tree must not travel
    here = Optimizer(many_join_catalog()).optimize(expr, required).explain()
    copied = pickle.loads(pickle.dumps(expr))
    assert copied == expr and hash(copied) == hash(expr)
    for seed in ("1", "4242"):
        done = subprocess.run(
            [sys.executable, "-c", _CHILD.format(src=SRC)],
            input=pickle.dumps((expr, required)), stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONHASHSEED": seed}, check=True, timeout=120)
        assert done.stdout.decode() == here, seed
