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

import collections
import copy
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
from repro.core.favorable import FavorableOrders
from repro.core.sort_order import AttributeEquivalence, EMPTY_ORDER, SortOrder
from repro.engine.subplan import strip_plan
from repro.expr import col
from repro.logical import Query
from repro.logical import algebra, fds
from repro.logical.algebra import Union
from repro.optimizer import Optimizer, OptimizerConfig, make_enumerator, manual
from repro.optimizer.cost import CostModel
from repro.optimizer.pipeline import groups as groups_module, physical_selection
from repro.optimizer.pipeline.groups import GroupTable
from repro.optimizer.pipeline.physical_selection import PhysicalSelection
from repro.optimizer.plans import PhysicalPlan
from repro.core.interesting import make_strategy
from repro.service import QuerySession
from repro.storage import Catalog, Schema, SystemParameters, TableStats
from repro.storage.schema import FunctionalDependency
from repro.storage.statistics import StatsView
from repro.workloads import (many_join_catalog, many_join_query, query4,
                             r_tables_stats_catalog)

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
    parallelism 1) with the derivation entry points counted, and the
    plan nodes built (``counts["built"]``, per operator); an indirect
    parameter names another join enumerator."""
    counts = {"group_tables": 0, "schemas": 0, "fd_nodes": 0, "joins": 0,
              "sort_prices": 0, "built": collections.Counter()}
    join_inputs = []  # (left, right, pairs) — held, so ids stay distinct

    table_init = GroupTable.__init__
    def counting_table_init(self, catalog, root):
        counts["group_tables"] += 1
        table_init(self, catalog, root)
    monkeypatch.setattr(GroupTable, "__init__", counting_table_init)

    derive_schema = algebra.derive_schema
    def counting_derive_schema(catalog, expr, child_schemas):
        counts["schemas"] += 1
        return derive_schema(catalog, expr, child_schemas)
    monkeypatch.setattr(groups_module, "derive_schema", counting_derive_schema)
    monkeypatch.setattr(algebra, "derive_schema", counting_derive_schema)

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

    full_sort = CostModel.full_sort
    def counting_full_sort(self, num_rows, num_blocks):
        counts["sort_prices"] += 1
        return full_sort(self, num_rows, num_blocks)
    monkeypatch.setattr(CostModel, "full_sort", counting_full_sort)

    make_plan = manual.make_plan
    def counting_make_plan(op, *args, **kwargs):
        counts["built"][op] += 1
        return make_plan(op, *args, **kwargs)
    monkeypatch.setattr(manual, "make_plan", counting_make_plan)

    session = QuerySession(
        many_join_catalog(), strategy="pyro-e",
        join_enumerator=getattr(request, "param", "exhaustive"))
    query = many_join_query()
    prepared = session.prepare(query, parallelism=1)
    return session, query, prepared, counts, join_inputs


def test_search_effort_counters_are_pinned(counted_prepare):
    """The goals searched are the invariant.  No child goal is asked for
    twice here: a node's candidates depend on the requested order only
    through what the strategy reads of it (nothing, under PYRO-E), so
    every goal of a join after its first replays the candidates the
    first one generated (976 memo hits when each goal requested its
    node's child goals again)."""
    session, _, _, _, _ = counted_prepare
    stats = session.stats()
    assert stats["goals_examined"] == 267
    assert stats["memo_hits"] == 0


def test_each_alternative_is_built_once_per_search(counted_prepare):
    """The top join is asked for 120 orders, each answered by the same
    few alternatives plus an enforcer.  Each alternative is built once
    per distinct input plans: a hash join 7 times (251 builds when every
    goal built its own), a merge join once per distinct (input plans,
    permutation), 126 times (370 when every goal built its own), and a
    projection once per distinct child plan.  An enforcer is built like
    any operator, by ``PlanBuilder.sort`` under the goal's shrinking
    bound: 490 sorts for the 267 goals, one for each candidate whose
    enforced plan beats the goal's best so far (245, one per goal that
    needs one, when enforcers were priced first and only the winner's
    was built)."""
    session, _, _, counts, _ = counted_prepare
    built = counts["built"]
    assert built["MergeJoin"] == 126
    assert built["HashJoin"] == 7
    assert built["TableScan"] == 8  # one per relation
    assert built["Sort"] == 490 and "PartialSort" not in built
    # 1,246 before alternatives were shared, 386 when only each goal's
    # winning enforcer was built.
    assert sum(built.values()) == 631
    stats = session.stats()
    assert stats["goals_examined"] == 267 and stats["memo_hits"] == 0
    # One build per distinct input plans also where the variant is the
    # same: a projection asked for an order it can push down is built
    # over its child's plan for ε and over the sorted one.
    built.clear()
    session.prepare(Query.table("l0").select("l0_a", "l0_b").order_by("l0_b"),
                    parallelism=1)
    assert built["Project"] == 2


def test_each_enforcer_is_priced_once_per_input_and_shared_prefix(
        counted_prepare):
    """``coe(e, o1, o2)`` reads the requested order only through the
    prefix it shares with the input's: the chains under the top join,
    asked for 120 orders, price the same few sorts of the same input
    statistics — 7 evaluations of the sort formula (609 when every
    request priced its own)."""
    _, _, _, counts, _ = counted_prepare
    assert counts["sort_prices"] == 7


def test_join_statistics_once_per_distinct_input(counted_prepare):
    _, _, _, counts, join_inputs = counted_prepare
    distinct = {(id(left), id(right), pairs)
                for left, right, pairs in join_inputs}
    # One per join node here (621 calls before groups): every candidate
    # plan of a child group carries its scan's statistics object.
    assert counts["joins"] == len(distinct) == 7


def test_a_distinct_is_estimated_once_per_input(monkeypatch):
    """Fuzz seed 147 is a DISTINCT over 8 columns: under PYRO-E its
    40,320 orders each offer a dedup over the same child statistics and
    columns.  The estimate is a function of those inputs, made once per
    search (44,647 ``distinct_of_set`` calls at parallelism 1 when each
    dedup made its own)."""
    calls = []
    distinct_of_set = StatsView.distinct_of_set
    def counting(self, columns):
        calls.append(columns)
        return distinct_of_set(self, columns)
    monkeypatch.setattr(StatsView, "distinct_of_set", counting)
    rng = random.Random(147)
    catalog = fuzz.random_catalog(rng)
    fuzz.search(catalog, fuzz.random_query(rng, catalog), "pyro-e", 1)
    assert len(calls) == 8


@pytest.mark.parametrize("enumerator", ["simpli-squared", "greedy-m2m"])
def test_shard_views_once_per_chain(monkeypatch, enumerator):
    """At parallelism 4 every enforcer over a scan chain weighs a
    per-shard placement on the chain's per-shard statistics views: 6
    chains here, each viewed once per search (13 calls when each
    enforcement made its own)."""
    chains = []
    shard_views = PhysicalSelection._shard_views
    def counting(self, chain, table, per_table, k):
        chains.append(chain)
        return shard_views(self, chain, table, per_table, k)
    monkeypatch.setattr(PhysicalSelection, "_shard_views", counting)
    session = QuerySession(many_join_catalog(), strategy="pyro-e",
                           join_enumerator=enumerator)
    session.prepare(many_join_query(), parallelism=4)
    assert len(chains) == len(set(map(id, chains))) == 6


def test_a_search_decides_once_whether_it_can_shard(monkeypatch):
    """Whether an enforcer can go below a shard fan-out is decided once
    per search, from the parallelism and the tables the tree reads: no
    candidate of the many-join x PYRO-E prepare asks of its input at
    parallelism 1, or over a stats-only copy of the catalog at 4 (609
    did in each when every candidate asked); over the materialised
    tables at 4 they do.  It plans through the optimizer: a session's
    prepare asks once more, for its decision counters
    (``physical_selection.shard_decisions``)."""
    asked = []
    shardable_input = physical_selection.shardable_enforcement_input
    def counting(plan, catalog, k):
        asked.append(plan)
        return shardable_input(plan, catalog, k)
    monkeypatch.setattr(physical_selection, "shardable_enforcement_input",
                        counting)

    def asking(catalog, parallelism):
        asked.clear()
        Optimizer(catalog, strategy="pyro-e").optimize(
            many_join_query(), parallelism=parallelism)
        return len(asked)

    materialised = many_join_catalog()
    stats_only = Catalog(materialised.params)
    for table in materialised.tables():
        stats_only.create_table(table.name, table.schema, stats=table.stats,
                                clustering_order=table.clustering_order)
    assert asking(materialised, 1) == asking(stats_only, 4) == 0
    assert asking(materialised, 4) > 0


def test_one_derivation_per_group_of_the_searched_tree(counted_prepare):
    """Each group's schema and FDs are derived once, and nothing else
    derives them: the whole-query facts are the root group's (30 schema
    derivations when a second pass re-derived them), and phase 2 reuses
    phase 1's table."""
    _, query, _, counts, _ = counted_prepare
    assert counts["group_tables"] == 1
    nodes = sum(1 for _ in query.expr.child.walk())
    assert counts["schemas"] == counts["fd_nodes"] == nodes == 15


@pytest.mark.parametrize("counted_prepare", ["simpli-squared", "greedy-m2m"],
                         indirect=True)
def test_one_table_and_the_same_effort_under_reordering_enumerators(
        counted_prepare):
    """A reordered tree is the only tree that gets a group table: the
    as-written one is read for its tables and root schema, nothing more,
    and a region leaf for its schema without a table of its own."""
    session, _, prepared, counts, _ = counted_prepare
    assert counts["group_tables"] == 1
    # The restoring Project is a node of the searched tree.
    restoring = prepared.plan.find_all("Project")
    assert restoring and counts["fd_nodes"] == 16
    # 16 groups — the equivalence check reads the reordered tree's root
    # group — plus the as-written tree's 15 schemas and the 8 region
    # leaves' (55 when the check folded the reordered tree's 16 too, 71
    # when a second pass re-derived the groups').
    assert counts["schemas"] == 16 + 15 + 8
    stats = session.stats()
    assert stats["goals_examined"] == 45
    assert stats["memo_hits"] == 0  # 82 before goals replayed candidates
    assert stats["join_order_candidates"] == 1


def test_total_cost_is_stored_not_rewalked(counted_prepare):
    """Reading ``total_cost`` hands back the float the node stored when
    it was built: the same object on every read, the node's last field
    — a computed total would be a new float per read."""
    _, _, prepared, _, _ = counted_prepare
    for node in prepared.plan.walk():
        assert node.total_cost is node.total_cost is tuple(node)[-1]
    assert_costs_stored(prepared.plan)


# -- stored total_cost == recursive recomputation ----------------------------------------
def test_stored_cost_on_fuzz_corpus_and_through_every_rebuild():
    """On the fuzz corpus, after phase 2, without it, stripped and
    through a pickle; and on every copy with changes (``_replace``): a
    plan with its children reordered, a clustering scan made of a table
    scan, and each shard's copy of a chain
    (:meth:`~repro.optimizer.manual.PlanBuilder.shard_of`)."""
    for seed in range(fuzz.BASE_SEED, fuzz.BASE_SEED + 40):
        rng = random.Random(seed)
        catalog = fuzz.random_catalog(rng)
        query = fuzz.random_query(rng, catalog)
        builder = manual.PlanBuilder(catalog)
        for parallelism in (1, 4):
            plan = Optimizer(catalog).optimize(query, parallelism=parallelism)
            assert_costs_stored(plan)  # after refine_plan (default config)
            unrefined = Optimizer(catalog, refine=False).optimize(
                query, parallelism=parallelism)
            assert_costs_stored(unrefined)
            stripped = strip_plan(plan)
            assert_costs_stored(stripped)
            loaded = pickle.loads(pickle.dumps(stripped))
            assert_costs_stored(loaded)
            assert loaded.total_cost == plan.total_cost
            assert loaded.explain() == stripped.explain()
            rebuilt = plan._replace(children=plan.children[::-1])
            assert rebuilt.total_cost == recomputed_cost(rebuilt)
        for table in catalog.tables():
            if table.clustering_order:
                assert_costs_stored(builder.clustering_scan(table.name))
            chain = builder.project(builder.table_scan(table.name),
                                    table.schema.names[:1])
            for i in range(3):
                shard = builder.shard_of(chain, 3, i, 0.25 + 0.1 * i)
                assert_costs_stored(shard)
                assert shard.total_cost < chain.total_cost


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


# -- a plan node is a tuple ------------------------------------------------------------
def small_plan(catalog) -> PhysicalPlan:
    """A filtered merge join of ``r`` and ``s``: three levels, two leaves."""
    builder = manual.PlanBuilder(catalog)
    join = builder.merge_join(builder.table_scan("r"), builder.table_scan("s"),
                              [("a", "x")])
    return builder.filter(join, col("b").gt(5))


def field_by_field(node: PhysicalPlan) -> PhysicalPlan:
    return PhysicalPlan(node.op, node.schema, node.order, node.stats,
                        node.self_cost, tuple(map(field_by_field, node.children)),
                        node.args)


def test_setting_any_field_of_a_node_raises(rs_catalog):
    plan = small_plan(rs_catalog)
    for name in PhysicalPlan._fields:
        with pytest.raises(AttributeError):
            setattr(plan, name, getattr(plan, name))
    with pytest.raises(AttributeError):
        plan.note = "a node has no attributes besides its fields"


def test_a_field_by_field_copy_is_equal_and_hashes_alike(rs_catalog):
    plan = small_plan(rs_catalog)
    copy_ = field_by_field(plan)
    for node, copied in zip(plan.walk(), copy_.walk()):
        assert copied is not node
        assert copied == node and hash(copied) == hash(node)
    assert copy_._replace(self_cost=1.0) != plan


def test_every_path_to_a_changed_node_derives_its_total(rs_catalog):
    """The constructor, :meth:`PhysicalPlan._replace` (on cost, children
    or both), ``_make``, copies and pickles: each recomputes
    ``total_cost``, and none takes one."""
    plan = small_plan(rs_catalog)
    join = plan.children[0]
    left, right = join.children
    made = [
        plan._replace(self_cost=1.0),
        join._replace(children=(left,)),
        join._replace(children=(right, left), self_cost=0.0),
        join._replace(children=(left, right._replace(self_cost=9.0))),
        plan._replace(children=(join._replace(self_cost=join.self_cost * 2),)),
        PhysicalPlan._make(tuple(join)[:-1]),
        copy.copy(plan), copy.deepcopy(plan),
        pickle.loads(pickle.dumps(strip_plan(plan))),
    ]
    for node in made:
        assert_costs_stored(node)
    assert made[0].total_cost == 1.0 + join.total_cost
    assert made[1].total_cost == join.self_cost + left.total_cost
    assert made[3].total_cost == join.self_cost + left.total_cost + 9.0
    with pytest.raises(TypeError):
        PhysicalPlan._make(tuple(join))  # eight fields: a total is not taken
    with pytest.raises(ValueError):
        join._replace(total_cost=0.0)


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
                          make_strategy("pyro-o"), OptimizerConfig())
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


def fresh_facts(catalog, node):
    """``(schema, equivalence pairs, FDs)`` of *node* from a fold of the
    per-node steps over its subtree alone — no group table, no interning."""
    kids = [fresh_facts(catalog, child) for child in node.children]
    schemas = [schema for schema, _, _ in kids]
    return (algebra.derive_schema(catalog, node, schemas),
            algebra.equivalence_pairs(
                node, [(pairs, schema) for schema, pairs, _ in kids]),
            fds.node_fds(catalog, node, [deps for _, _, deps in kids], schemas))


def searched_trees():
    """``(catalog, tree, rewritten)``: fuzz queries, and join-region
    queries as written and as each reordering enumerator rewrites them."""
    for seed in range(fuzz.BASE_SEED, fuzz.BASE_SEED + 30):
        rng = random.Random(seed)
        catalog = fuzz.random_catalog(rng)
        yield catalog, fuzz.random_query(rng, catalog).expr, False
    enumerators = [make_enumerator(name)
                   for name in fuzz.REORDERING_ENUMERATORS]
    for seed in range(fuzz.BASE_SEED, fuzz.BASE_SEED + 30):
        rng = random.Random(seed)
        catalog = fuzz.random_join_catalog(rng)
        root = fuzz.random_join_region_query(rng, catalog).expr
        yield catalog, root, False
        for enumerator in enumerators:
            tree = enumerator.reorder(catalog, root)
            yield catalog, tree, tree != root


def test_group_facts_match_a_fresh_derivation_of_the_subtree():
    """Each group's schema, equivalence classes and FDs — the root's are
    the whole query's — equal a fresh fold over that node's subtree.
    Classes are compared on every attribute the pairs name, not only the
    output columns: the search reads the root's classes on join columns
    that a projection drops."""
    rewritten = 0
    for catalog, root, reordered in searched_trees():
        table = GroupTable(catalog, root)
        for node in root.walk():
            group = table.of(node)
            schema, pairs, deps = fresh_facts(catalog, node)
            assert group.schema.names == schema.names
            eq = AttributeEquivalence.of(pairs)
            attrs = {*schema.names,
                     *(a for pair in (*pairs, *group.pairs) for a in pair)}
            assert all(group.eq.canonical(a) == eq.canonical(a)
                       for a in attrs), (node.label(), attrs)
            assert list(group.fds) == list(deps)
        rewritten += reordered
    assert rewritten >= 20  # the rewrite fires, or the trees are as written


def test_identity_keys_keep_their_objects_alive(rs_catalog):
    root = Query.table("r").join("s", on=[("a", "x")]).expr
    table = GroupTable(rs_catalog, root)
    foreign = Query.table("s").expr
    ref = weakref.ref(foreign)
    group = table.of(foreign)
    del foreign
    gc.collect()
    assert ref() is not None and table.of(ref()) is group

    run = PhysicalSelection(rs_catalog, root, make_strategy("pyro-o"),
                          OptimizerConfig())
    run.optimize_goal(root, EMPTY_ORDER)
    run.optimize_goal(root, SortOrder(["b"]))  # under a sort enforcer
    assert run._derived
    for key, (_, inputs) in run._derived.items():
        assert key[1:] == tuple(map(id, inputs))
    assert run._built
    for key, (_, expr, inputs) in run._built.items():
        assert key[:-1] == (id(expr), *map(id, inputs))
    assert run.builder.cost._priced
    for key, (_, stats) in run.builder.cost._priced.items():
        assert key[0] == id(stats)
    assert run._interesting
    for key, entry in run._interesting.items():
        assert key[0] == id(entry.expr)
    # The second goal replayed the join's stored candidates, requesting
    # no child goal: the plan objects the alternatives memo holds.
    assert run.memo_hits == 0
    built = {id(plan) for plans, _, _ in run._built.values() for plan in plans}
    stored = [entry.candidates for entry in run._interesting.values()]
    assert any(stored)
    assert all(id(plan) in built for plans in stored if plans for plan in plans)


def test_a_node_replays_only_a_generation_every_child_answered(rs_catalog):
    """A goal searched within a budget its inputs' plans exceed gets no
    plan from its child requests, and its generation is not stored: the
    same goal with a larger budget searches again and finds what the
    pruning dropped.  Once stored, the node's other goals replay it."""
    root = Query.table("r").join("s", on=[("a", "x")]).expr
    run = PhysicalSelection(rs_catalog, root, make_strategy("pyro-e"),
                            OptimizerConfig())
    assert run.optimize_goal(root, EMPTY_ORDER, limit=1.0) is None
    (entry,) = run._interesting.values()
    assert entry.candidates is None and run.goals_failed > 1
    plan = run.optimize_goal(root, EMPTY_ORDER)
    assert plan is not None and entry.candidates
    def requests():
        return (run.memo_hits + run.goals_examined + run.goals_researched
                + run.goals_pruned)
    before = requests()
    sorted_plan = run.optimize_goal(root, SortOrder(["b"]))
    assert sorted_plan.op == "Sort"
    assert sorted_plan.children[0] in entry.candidates
    assert requests() == before + 1  # its own goal, and no child's


# -- the per-search memos are exact -------------------------------------------------------
class NeverHit(dict):
    """A memo table every lookup misses; counts the lookups by name."""

    asked: collections.Counter = collections.Counter()

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def get(self, key, default=None):
        NeverHit.asked[self.name] += 1
        return default


def test_search_memos_are_exact_on_the_fuzz_corpus(monkeypatch):
    """Enforcer prices, FD closures, favorable orders and the strategies'
    interesting orders — with the candidates a node generated over them
    — are memoised for one search.  Searched again with every lookup of
    those memos missing, each fuzz query plans to the same plan, costs
    and EXPLAIN text under all five strategies (PYRO-E where tractable)
    at parallelism 1 and 4.  The second search decides alike, goal for
    goal, and only requests more child goals: the shipped search
    replayed stored candidates instead, where the memo-free one's
    repeated requests were memo hits."""
    cases = []
    for seed in range(fuzz.BASE_SEED, fuzz.BASE_SEED + fuzz.NUM_PLANS):
        rng = random.Random(seed)
        catalog = fuzz.random_catalog(rng)
        query = fuzz.random_query(rng, catalog)
        strategies = (fuzz.STRATEGIES
                      if fuzz.exhaustive_tractable(catalog, query.expr)
                      else fuzz.STRATEGIES[:-1])
        cases += [(seed, catalog, query, strategy, parallelism)
                  for strategy in strategies for parallelism in (1, 4)]
    shipped = [fuzz.shipped_search(seed, strategy, parallelism)
               for seed, _, _, strategy, parallelism in cases]

    for cls, memo in ((CostModel, "_priced"), (fds.FDSet, "_closures"),
                      (PhysicalSelection, "_interesting"),
                      (FavorableOrders, "_memo")):
        def init(self, *args, _init=cls.__init__, _memo=memo, **kwargs):
            _init(self, *args, **kwargs)
            setattr(self, _memo, NeverHit(_memo))
        monkeypatch.setattr(cls, "__init__", init)
    NeverHit.asked.clear()
    rerequests = 0
    for case, expected in zip(cases, shipped):
        again = fuzz.search(*case[1:])
        assert again == expected, case[0::3]
        hits = again.effort["memo_hits"] - expected.effort["memo_hits"]
        assert hits >= 0 and ({**again.effort, "memo_hits": 0}
                              == {**expected.effort, "memo_hits": 0}), case[0::3]
        rerequests += hits
    assert set(NeverHit.asked) == {"_priced", "_closures", "_interesting",
                                   "_memo"}
    assert rerequests > 0


def test_an_added_dependency_reaches_the_next_closure():
    deps = fds.FDSet()
    deps.add(FunctionalDependency.key(["a"], ["a", "b"]))
    assert deps.closure(["a"]) == {"a", "b"}
    assert deps.closure(["b"]) == {"b"}
    deps.add_equivalence("b", "c")
    assert deps.closure(["a"]) == {"a", "b", "c"}
    deps.add_constant("d")
    assert deps.closure(["b"]) == {"b", "c", "d"}
    deps.add(FunctionalDependency(frozenset({"d"}), frozenset({"e"})))
    assert deps.closure(["b"]) == {"b", "c", "d", "e"}
    deps.add_from_predicate(col("e").eq(col("f")))
    assert deps.closure([]) == {"d", "e", "f"}


def test_the_order_memo_key_is_all_a_strategy_reads(monkeypatch):
    """PYRO-O's interesting orders are looked up under what ``reads``
    took from the required order, and computed from that value alone:
    the Fig. 16 Query 4 cold prepare (pyro-o, the exhaustive
    enumerator, 250 sort-memory blocks, as ``plan_cold`` runs it) calls
    ``reads`` once per lookup, three lookups of which two miss (five
    calls when a miss derived the value again)."""
    counts = collections.Counter()
    strategy_cls = make_strategy("pyro-o").__class__
    for name in ("reads", "join_orders", "group_orders", "set_orders"):
        method = getattr(strategy_cls, name)
        def counted(*args, _method=method, _name=name, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(strategy_cls, name, counted)
    orders = PhysicalSelection._orders
    def counted_orders(*args, **kwargs):
        counts["lookups"] += 1
        return orders(*args, **kwargs)
    monkeypatch.setattr(PhysicalSelection, "_orders", counted_orders)
    session = QuerySession(
        r_tables_stats_catalog(params=SystemParameters(sort_memory_blocks=250)),
        strategy="pyro-o", join_enumerator="exhaustive")
    session.prepare(query4(), parallelism=1)
    assert counts == {"lookups": 3, "reads": 3, "join_orders": 2}


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


_PICKLES = """
import pickle, sys
sys.path[:0] = [{src!r}, {tests!r}]
from repro import workloads
from repro.engine.subplan import shard_subplans, strip_plan
from repro.logical import Query
from repro.service import QuerySession
from test_plan_fuzz import report_shapes_catalog
tpch = workloads.tpch_stats_catalog()
workloads.add_query3_indexes(tpch)
q3 = QuerySession(tpch).prepare(workloads.query3()).plan
q5 = QuerySession(workloads.trading_stats_catalog()).prepare(
    workloads.query5()).plan
report = QuerySession(report_shapes_catalog()).prepare(
    Query.table("trades").order_by("ts", "sym", "qty", "tag"),
    parallelism=4).plan
occurrences, tasks = shard_subplans(report)
assert occurrences, "the report plan ships no shard task"
sys.stdout.buffer.write(pickle.dumps(
    [pickle.dumps(plan, pickle.HIGHEST_PROTOCOL)
     for plan in (strip_plan(q3), strip_plan(q5), tasks[0])]))
"""


def test_stripped_plans_pickle_alike_under_another_hash_seed():
    """A stripped plan pickles to the same bytes in every process — the
    Fig. 16 Query 3 and Query 5 plans (whose statistics carry multi-column
    keys and column-group counts, frozensets that pickle in hash order)
    and a shard task of the ``report_process`` report — so a shipped
    task's bytes do not depend on the hash seed of the process that
    pickled it."""
    pickled = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", _PICKLES.format(
                src=SRC, tests=str(pathlib.Path(__file__).parent))],
            stdout=subprocess.PIPE, env={**os.environ, "PYTHONHASHSEED": seed},
            check=True, timeout=120)
        pickled.append(pickle.loads(done.stdout))
    assert [len(p) for p in pickled[0]] == [len(p) for p in pickled[1]]
    for label, here, there in zip(("q3", "q5", "report task"), *pickled):
        assert here == there, label


def test_every_logical_class_has_rules():
    """The search plans a node by its class's rows of ``RULES``, looked
    up by exact class: every concrete logical operator of the algebra
    has rows, so none can fail only when a query first plans it."""
    concrete = {cls for cls in vars(algebra).values()
                if isinstance(cls, type) and cls is not algebra.LogicalExpr
                and issubclass(cls, algebra.LogicalExpr)}
    assert len(concrete) == 10
    assert set(physical_selection.RULES) == concrete
    assert all(rules.rows for rules in physical_selection.RULES.values())
