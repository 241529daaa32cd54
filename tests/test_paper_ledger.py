"""The paper's experimental section as one asserted ledger.

One row per figure: what the paper reports, what this code measures,
and the tests that hold the claim, on deterministic quantities only
(estimated plan cost, metered ``cost_units()``, comparisons, blocks,
goals examined, rows), never on a clock.  Claims pinned elsewhere in
tier-1 are cited, not repeated.  A row's claim is one function: it
measures, asserts, and returns the numbers its row of
``docs/reproduction.md`` shows.  A test fails when that file is stale;
rewrite it with::

    PYTHONPATH=src python tests/test_paper_ledger.py
"""

import functools
import itertools
import pathlib
import random
from types import SimpleNamespace
from unittest import mock

import pytest

from conftest import fig16_cases
from paper_oracles import (
    benefit_from_numbering, best_numbering, brute_force_tree_orders, build_tree,
    problem3_objective, reduction_from_graph)
from repro.core import tree_approx
from repro.core.path_order import path_order
from repro.core.refinement import merge_join_permutation
from repro.core.sort_order import SortOrder, longest_common_prefix
from repro.engine import (
    CoveringIndexScan, ExecutionContext, MergeJoin, Sort, SortAggregate, TableScan)
from repro.expr import JoinPredicate, col
from repro.expr.aggregates import count
from repro.logical import Query
from repro.optimizer import Optimizer
from repro.optimizer.baselines import (
    PlanBuilder, postgres_default_q3, pyro_o_q3, pyro_o_q4, sys1_default_q3,
    sys1_merge_q3, sys2_union_q4, sys_default_q4)
from repro.optimizer.pipeline.groups import GroupTable
from repro.optimizer.plans import PhysicalPlan
from repro.storage import Catalog, Schema, SystemParameters, TableStats
from repro.workloads import (
    add_query1_indexes, add_query2_indexes, add_query3_indexes,
    consolidation_stats_catalog, example1_query, identical_r_tables, query3, query4,
    segmented_catalog, tpch_catalog, tpch_stats_catalog)
from repro.workloads.synthetic import R_SCHEMA

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "reproduction.md"
SORT_ONLY = dict(enable_hash_join=False, enable_hash_aggregate=False)
#: 64 KB of sort memory: at these scales the full sorts go external.
SMALL_MEMORY = SystemParameters(block_size=4096, sort_memory_blocks=16)
STRATEGIES = ["pyro", "pyro-o-", "pyro-p", "pyro-o", "pyro-e"]

#: ``(figure, what the paper reports, measure, template, test ids)``; the
#: template is formatted with what *measure* returns.
LEDGER: list[tuple] = []


def row(figure, paper, template, *also):
    """Make the decorated claim a ledger row, run once, and a test."""
    def register(claim):
        claim = functools.cache(claim)
        LEDGER.append((figure, paper, claim, template,
                       [f"tests/test_paper_ledger.py::{claim.__name__}", *also]))

        @functools.wraps(claim)
        def test():
            claim()
        return test
    return register


# -- catalogs, shared results and the meter -----------------------------------------------
@functools.cache
def tpch_exec():
    """TPC-H at 1/200 of the paper's SF1 (30K lineitem rows)."""
    cat = tpch_catalog(scale=0.005, seed=7, params=SMALL_MEMORY)
    for add in (add_query1_indexes, add_query2_indexes, add_query3_indexes):
        add(cat)
    return cat


@functools.cache
def tpch_paper_stats():
    """Stats-only TPC-H at the paper's full scale."""
    cat = tpch_stats_catalog()
    add_query3_indexes(cat)
    return cat


@functools.cache
def q3_plan():
    """PYRO-O's sort-only Query 3 plan at SF1."""
    return Optimizer(tpch_paper_stats(), strategy="pyro-o", **SORT_ONLY).optimize(query3())


@functools.cache
def strategy_costs():
    """Estimated cost per strategy on Q3-Q6; phase-2 refinement, part of
    the paper's contribution, runs in PYRO-O and PYRO-O- only."""
    return {name: {s: Optimizer(
        cat, strategy=s, refine=s in ("pyro-o", "pyro-o-"), **SORT_ONLY
    ).optimize(query).total_cost for s in STRATEGIES}
        for name, cat, query in fig16_cases()}


def index(catalog, table, name):
    return next(ix for ix in catalog.indexes_of(table) if ix.name == name)


def meter(plan, catalog):
    """Run a plan or operator tree to completion on a fresh context: its
    rows, its tallies, and the cost units spent by each output batch."""
    op = plan.to_operator(catalog) if isinstance(plan, PhysicalPlan) else plan
    ctx = ExecutionContext(catalog)
    rows, curve = [], []
    for batch in op.execute_batches(ctx):
        rows.extend(batch.rows)
        curve.append((len(rows), ctx.cost_units()))
    return SimpleNamespace(
        rows=rows, cost=ctx.cost_units(), comparisons=ctx.comparisons.value,
        written=ctx.io.blocks_written, blocks=ctx.io.total_blocks, curve=curve)


def sort(child, target, prefix, algorithm):
    """SRS ignores the known *prefix* of its input; MRS exploits it."""
    return Sort(child, target, prefix if algorithm == "mrs" else SortOrder(()))


def ops(plan):
    return [p.op for p in plan.walk()]


# -- the rows -----------------------------------------------------------------------------
@row("Example 1, Figs. 1-2", "naive plan 530,345 vs order-aware 290,410 estimated "
     "(1.83x); afm(ct1) = {(year)}, afm(ct2) = {(make)}",
     "naive (PYRO) {naive:,.0f} vs PYRO-O {optimal:,.0f} estimated ({ratio:.2f}x); the "
     "PYRO-O plan has {partial} PartialSorts; afm(ct1 join ct2) holds {afm} orders")
def test_example1_order_aware_plan():
    cat, query = consolidation_stats_catalog(), example1_query()
    naive = Optimizer(cat, strategy="pyro", refine=False, **SORT_ONLY).optimize(query)
    plan = Optimizer(cat, strategy="pyro-o", **SORT_ONLY).optimize(query)
    assert naive.total_cost / plan.total_cost >= 1.3
    assert "PartialSort" in ops(plan) and "MergeJoin" in ops(plan)
    expr = query.expr.child  # below the ORDER BY
    fav = GroupTable(cat, expr).favorable
    lower = expr.children[0]  # catalog1 JOIN catalog2
    assert 1 <= len(fav.afm(lower)) <= 6
    assert [o for o in fav.afm(lower.left)] == [("c1_year",)]
    assert [o for o in fav.afm(lower.right)] == [("c2_make",)]
    return dict(naive=naive.total_cost, optimal=plan.total_cost, afm=len(fav.afm(lower)),
                ratio=naive.total_cost / plan.total_cost, partial=ops(plan).count("PartialSort"))


def fig3():
    tree = build_tree((
        {"a", "b", "c", "d", "e"},
        ({"a", "b", "c", "k"}, {"c", "e", "i", "j"}, {"c", "k", "l", "m"}),
        ({"c", "d"}, {"c", "d", "h", "n"}, {"f", "g", "p", "q"})))
    return dict(benefit=tree_approx.approximate_tree_orders(tree).benefit)


LEDGER.append(("Fig. 3", "worked example: optimum benefit 8; the tree 2-approximation "
               "reaches at least OPT/2; PathOrder is exact on paths", fig3,
               "2-approximation benefit {benefit} of the optimum 8 on the Fig. 3 tree",
               ["tests/test_tree_approx.py::TestApproximation::test_figure3_instance",
                "tests/test_tree_approx.py::TestApproximation::test_half_optimal_bound_random",
                "tests/test_path_order.py::TestOptimality::test_matches_brute_force_random"]))


def theorem41():
    """SUM-CUT reduces to Problem 1: a numbering of the graph's vertices
    gives the caterpillar tree benefit ``(m - 1)(n + |L|) + Σ q_i``, and
    the tree's exhaustive optimum is the best numbering's."""
    path3 = {"u": {"v"}, "v": {"u", "w"}, "w": {"v"}}
    inst = reduction_from_graph(path3, pad_size=2)
    spine = (len(inst.spine) - 1) * inst.spine_full_benefit
    numberings = list(itertools.permutations(sorted(path3)))
    for numbering in numberings:
        assert benefit_from_numbering(inst, path3, numbering) == \
            spine + problem3_objective(path3, numbering)
    edge = {"u": {"v"}, "v": {"u"}}
    tiny = reduction_from_graph(edge, pad_size=2)
    best, best_q = best_numbering(edge)
    exact = brute_force_tree_orders(tiny.root).benefit
    assert exact == tiny.spine_full_benefit + best_q
    assert benefit_from_numbering(tiny, edge, best) == exact
    return dict(numberings=len(numberings), exact=exact,
                spine=tiny.spine_full_benefit, best_q=best_q)


LEDGER.append(("Theorem 4.1", "choosing the sort orders of a binary tree's nodes (Problem 1) "
               "is NP-hard, by a reduction from SUM-CUT", theorem41,
               "each of the {numberings} numberings of a 3-vertex path gives tree benefit "
               "(m - 1)(n + l) + Σ q_i, with l = 2 pad attributes; on a one-edge graph "
               "the exhaustive tree optimum is {exact} = {spine} + best Σ q_i {best_q}",
               ["tests/test_hardness.py::TestForwardDirection::test_formula",
                "tests/test_hardness.py::TestEquivalenceOnTinyGraph::test_optimal_tree_benefit_matches_best_numbering",
                "tests/test_hardness.py::TestEquivalenceOnTinyGraph::test_numbering_solution_is_optimal_for_tree"]))


def phase2_catalog():
    """Stats-only R1..R3 (20K, 100K, 20K rows; 10 values per column)
    with R2 clustered on c3, R3 on c4, and 50 blocks of sort memory."""
    cat = Catalog(SystemParameters(sort_memory_blocks=50))
    for t, rows, clustering in ((1, 20_000, ()), (2, 100_000, ("r2_c3",)),
                                (3, 20_000, ("r3_c4",))):
        schema = R_SCHEMA.rename({c: f"r{t}_{c}" for c in R_SCHEMA.names})
        cat.create_table(f"r{t}", schema,
                         stats=TableStats(rows, dict.fromkeys(schema.names, 10)),
                         clustering_order=SortOrder(clustering))
    return cat


@row("Fig. 3 / Sec. 5.2.2", "phase 2 reworks the join orders phase 1 fixed so that "
     "the joins share a prefix",
     "R1 ⋈ R2 on (c1, c3, c5, c4) ⋈ R3 on (c5, c3), sort only, estimated cost without / "
     "with refinement at parallelism 1 and 4: PYRO-P {p[0]:,.1f} / {p[1]:,.1f}; PYRO-O "
     "{o[0]:,.1f} / {o[1]:,.1f}; PYRO-E {e[0]:,.1f} / {e[1]:,.1f}")
def test_phase2_refinement_pays_where_phase1_guessed():
    cat = phase2_catalog()
    query = (Query.table("r1")
             .join("r2", on=[(f"r1_{c}", f"r2_{c}") for c in ("c1", "c3", "c5", "c4")])
             .join("r3", on=[(f"r1_{c}", f"r3_{c}") for c in ("c5", "c3")]))
    costs = {s: {k: tuple(round(Optimizer(cat, strategy=s, refine=refine, **SORT_ONLY)
                                .optimize(query, parallelism=k).total_cost, 1)
                          for refine in (False, True)) for k in (1, 4)}
             for s in ("pyro-p", "pyro-o", "pyro-e")}
    assert all(by_k[1] == by_k[4] for by_k in costs.values())
    assert costs["pyro-p"][1] == (17_423.5, 5_688.2)  # refinement pays
    assert costs["pyro-o"][1] == costs["pyro-e"][1] == (5_688.2, 5_688.2)
    return dict(p=costs["pyro-p"][1], o=costs["pyro-o"][1], e=costs["pyro-e"][1])


def refinement_work(nodes, seed=17):
    """``(calls, longest path, split evaluations)`` of the PathOrder DPs
    the 2-approximation runs on a balanced tree of *nodes* nodes with 10
    attributes each; a path of m nodes takes (m^3 - m) / 6 evaluations."""
    rng = random.Random(seed)
    attrs = [f"x{i}" for i in range(10)]
    tree = [tree_approx.OrderTreeNode(i, frozenset(rng.sample(attrs, 10)))
            for i in range(nodes)]
    for i in range(1, nodes):
        tree[(i - 1) // 2].children.append(tree[i])
    with mock.patch.object(tree_approx, "path_order", wraps=path_order) as dp:
        tree_approx.approximate_tree_orders(tree[0])
    lengths = [len(call.args[0]) for call in dp.call_args_list]
    return len(lengths), max(lengths), sum((m ** 3 - m) // 6 for m in lengths)


@row("Sec. 6.3 refinement", "plan refinement under 6 ms for 31 joins of 10 attributes",
     "31 nodes: {work[31][0]} PathOrder DPs of at most {work[31][1]} nodes; split "
     "evaluations at 7 / 15 / 31 / 63 nodes: {evals}")
def test_refinement_work_is_linear_in_tree_size():
    work = {n: refinement_work(n) for n in (7, 15, 31, 63)}
    for nodes, (_, longest, evals) in work.items():
        assert longest <= 3, nodes
        assert evals <= 2 * nodes, nodes
    return dict(work=work, evals=" / ".join(str(w[2]) for w in work.values()))


@row("Fig. 7 (A1)", "ORDER BY (suppkey, partkey) over an index on suppkey: MRS 3-4x "
     "faster; the systems' sort ignored the prefix",
     "SRS {srs.cost:,.0f} vs MRS {mrs.cost:,.0f} cost units ({gain:.1f}x); comparisons "
     "{srs.comparisons:,} vs {mrs.comparisons:,}; blocks written {srs.written:,} vs "
     "{mrs.written}; SRS (s,p) / (p,s) = {control:.2f}")
def test_fig7_mrs_exploits_the_index_prefix():
    cat = tpch_exec()
    scan = CoveringIndexScan(index(cat, "lineitem", "li_suppkey_cov"))
    target, prefix = SortOrder(["l_suppkey", "l_partkey"]), SortOrder(["l_suppkey"])
    srs, mrs = (meter(sort(scan, target, prefix, a), cat) for a in ("srs", "mrs"))
    swapped = meter(Sort(scan, SortOrder(["l_partkey", "l_suppkey"])), cat)
    assert len(srs.rows) == len(mrs.rows) > 0
    assert srs.cost / mrs.cost >= 2.0
    assert mrs.written == 0 < srs.written
    assert mrs.comparisons < srs.comparisons
    assert 0.5 <= srs.cost / swapped.cost <= 2.0  # SRS gains nothing from the prefix
    return dict(srs=srs, mrs=mrs, gain=srs.cost / mrs.cost, control=srs.cost / swapped.cost)


@row("Fig. 8 (A2)", "MRS produces tuples from the start; SRS only after consuming its "
     "whole input",
     "share of total cost units spent at the first output batch: SRS {srs[1]:.0%} vs "
     "MRS {mrs[1]:.2%}; at 10% of the rows: SRS {srs[2]:.0%} vs MRS {mrs[2]:.0%}")
def test_fig8_mrs_emits_before_it_has_paid():
    num_rows = 60_000
    cat = segmented_catalog(num_rows, 10, params=SystemParameters(
        block_size=4096, sort_memory_blocks=64))
    shares = {}  # (cost to the first output batch, its share of the total, share at 10%)
    for a in ("srs", "mrs"):
        run = meter(sort(TableScan(cat.table("r")), SortOrder(["c1", "c2"]),
                         SortOrder(["c1"]), a), cat)
        assert len(run.rows) == num_rows
        decile = next(c for n, c in run.curve if n >= num_rows // 10)
        shares[a] = (run.curve[0][1], run.curve[0][1] / run.cost, decile / run.cost)
    assert shares["srs"][1] > 0.5 and shares["mrs"][2] < 0.35
    assert shares["mrs"][0] < shares["srs"][0] / 5
    return shares


@row("Fig. 9 (A3)", "MRS far below SRS while a segment fits in memory, a sharp rise "
     "once it does not, convergence at one segment",
     "SRS / MRS cost units by rows per segment (memory {memory} rows): {ratios}; "
     "MRS blocks written at 1,000 rows: {spill:,}")
def test_fig9_three_regimes_of_segment_size():
    memory = SMALL_MEMORY.sort_memory_bytes // 200  # rows of 200 bytes
    sweep = {}
    for size in (1, 10, 100, 300, 1_000, 10_000, 40_000):
        cat = segmented_catalog(40_000, size, params=SMALL_MEMORY)
        srs, mrs = (meter(sort(TableScan(cat.table("r")), SortOrder(["c1", "c2"]),
                               SortOrder(["c1"]), a), cat) for a in ("srs", "mrs"))
        sweep[size] = (srs.cost, mrs.cost, mrs.written)
        assert mrs.cost <= srs.cost * 1.10, size
        if size <= memory:
            assert mrs.written == 0, size
            assert srs.cost / mrs.cost > 2.0, size
    assert sweep[1_000][2] > 0
    assert sweep[1_000][1] > sweep[300][1] * 2  # the knee
    assert sweep[40_000][0] / sweep[40_000][1] < 1.6  # one segment: convergence
    return dict(memory=memory, spill=sweep[1_000][2], ratios=", ".join(
        f"{size:,}: {srs / mrs:.2f}" for size, (srs, mrs, _) in sweep.items()))


def query2_plan(cat, algorithm):
    ps_key = SortOrder(["ps_suppkey", "ps_partkey"])
    ps = sort(CoveringIndexScan(index(cat, "partsupp", "ps_suppkey_q2")),
              ps_key, SortOrder(["ps_suppkey"]), algorithm)
    li = sort(CoveringIndexScan(index(cat, "lineitem", "li_suppkey_q2")),
              SortOrder(["l_suppkey", "l_partkey"]), SortOrder(["l_suppkey"]), algorithm)
    join = MergeJoin(ps, li, JoinPredicate([("ps_suppkey", "l_suppkey"),
                                            ("ps_partkey", "l_partkey")]))
    return SortAggregate(join, ps_key, [count(col("l_partkey"), "n_items")],
                         group_columns=["ps_suppkey", "ps_partkey", "ps_availqty"])


@row("Query 2 (A4)", "the same plan with MRS in place of SRS: 63 s vs 25 s on PostgreSQL "
     "(2.5x)", "SRS {srs.cost:,.0f} vs MRS {mrs.cost:,.0f} cost units ({gain:.1f}x); "
     "{srs.blocks:,} vs {mrs.blocks:,} blocks")
def test_query2_mrs_inside_a_full_pipeline():
    srs, mrs = (meter(query2_plan(tpch_exec(), a), tpch_exec()) for a in ("srs", "mrs"))
    assert sorted(srs.rows) == sorted(mrs.rows) != []
    assert srs.cost / mrs.cost >= 1.8
    assert mrs.written == 0
    return dict(srs=srs, mrs=mrs, gain=srs.cost / mrs.cost)


Q3_PLANS = (("pyro_o", pyro_o_q3), ("postgres", postgres_default_q3),
            ("sys1_hash", sys1_default_q3), ("sys1_merge", sys1_merge_q3))


@row("Figs. 10-11 (B1)", "PYRO-O's partial-sort plan for Query 3 beats PostgreSQL's and SYS1's",
     "estimated at SF1: PYRO-O (10b) {pyro_o:,.0f}, optimizer {optimizer:,.0f}, PostgreSQL "
     "(10a) {postgres:,.0f}, SYS1 hash (11a) {sys1_hash:,.0f}, SYS1 merge (11b) {sys1_merge:,.0f}",
     "tests/test_pipeline_enumerators.py::test_exhaustive_bit_identical_on_fig16")
def test_fig10_11_pyro_o_plan_beats_the_competitors():
    cost = {name: build(tpch_paper_stats()).total_cost for name, build in Q3_PLANS}
    plan = q3_plan()
    assert plan.total_cost <= cost["pyro_o"] * 1.02
    assert cost["pyro_o"] < cost["postgres"] / 2
    assert cost["pyro_o"] < cost["sys1_merge"] / 2
    # The optimizer finds the Fig. 10(b) shape itself.
    assert ops(plan).count("CoveringIndexScan") == 2
    assert ops(plan).count("PartialSort") >= 2 and "SortAggregate" in ops(plan)
    assert plan.find_all("MergeJoin")[0].order[0] in ("ps_suppkey", "l_suppkey")
    return dict(cost, optimizer=plan.total_cost)


@row("Figs. 12-13", "PYRO-O's plans run faster than each system's own (Q3 about 3x on "
     "PostgreSQL)",
     "metered cost units, Q3 at 1/200 scale: PYRO-O {q3[pyro_o].cost:,.0f}, PostgreSQL "
     "{q3[postgres].cost:,.0f} ({vs_pg:.1f}x), SYS1 merge {q3[sys1_merge].cost:,.0f} "
     "({vs_s1:.1f}x), SYS1 hash {q3[sys1_hash].cost:,.0f}; Q4 at 20K rows: "
     "{q4[default].cost:,.0f} vs shared prefix {q4[shared].cost:,.0f} ({q4_gain:.2f}x), "
     "comparisons {q4[default].comparisons:,} vs {q4[shared].comparisons:,}",
     "tests/test_workloads_bench.py::TestBaselines")
def test_fig12_13_pyro_o_plans_meter_cheaper():
    q3 = {name: meter(build(tpch_exec()), tpch_exec()) for name, build in Q3_PLANS}
    r_cat = identical_r_tables(num_rows=20_000, params=SMALL_MEMORY)
    q4 = {name: meter(build(r_cat), r_cat)
          for name, build in (("default", sys_default_q4), ("shared", pyro_o_q4))}
    vs_pg = q3["postgres"].cost / q3["pyro_o"].cost
    vs_s1 = q3["sys1_merge"].cost / q3["pyro_o"].cost
    q4_gain = q4["default"].cost / q4["shared"].cost
    assert sorted(q3["postgres"].rows) == sorted(q3["pyro_o"].rows) != []
    assert vs_pg >= 1.5 and vs_s1 >= 1.3
    assert sorted(map(repr, q4["default"].rows)) == sorted(map(repr, q4["shared"].rows)) != []
    assert q4_gain >= 1.2
    assert q4["shared"].comparisons < q4["default"].comparisons
    return dict(q3=q3, q4=q4, vs_pg=vs_pg, vs_s1=vs_s1, q4_gain=q4_gain)


@row("Fig. 14 (B2)", "PYRO-O aligns both joins of Query 4 on (c4, c5); SYS2's union of "
     "two outer joins is expensive",
     "inner chain: no common prefix {default:,.0f} vs shared {shared:,.0f} vs optimizer "
     "{optimizer:,.0f} on {prefix}; full outer shapes {foj:,.0f} each; SYS2 union "
     "{union:,.0f} vs one full outer join {direct:,.0f}")
def test_fig14_joins_share_the_c4_c5_prefix():
    cat = fig16_cases()[1][1]  # R1..R3 at 100K rows, 1 MB of sort memory
    inner = (Query.table("r1")
             .join("r2", on=[("r1_c5", "r2_c5"), ("r1_c4", "r2_c4"), ("r1_c3", "r2_c3")])
             .join("r3", on=[("r1_c1", "r3_c1"), ("r1_c4", "r3_c4"), ("r1_c5", "r3_c5")]))
    plan = Optimizer(cat, enable_hash_join=False).optimize(inner)
    default = sys_default_q4(cat, join_type="inner").total_cost
    shared = pyro_o_q4(cat, join_type="inner").total_cost
    assert shared < default and plan.total_cost <= shared * 1.02
    joins = plan.find_all("MergeJoin")
    prefix = longest_common_prefix(joins[0].order, joins[1].order)
    assert len(joins) == 2 and {a.split("_")[-1] for a in prefix} == {"c4", "c5"}
    # No order crosses a full outer merge join (NULL-padded left keys):
    # both FOJ shapes price alike and a sort sits between the joins.
    foj = sys_default_q4(cat).total_cost
    assert pyro_o_q4(cat).total_cost == pytest.approx(foj)
    joins = Optimizer(cat, enable_hash_join=False).optimize(query4()).find_all("MergeJoin")
    assert len(joins) == 2 and not any(j.order for j in joins)
    assert all(len(merge_join_permutation(j)) == 3 for j in joins)
    assert joins[0].children[0].op == "Sort"
    b = PlanBuilder(cat)
    direct = b.merge_join(b.table_scan("r1"), b.table_scan("r2"), [
        ("r1_c4", "r2_c4"), ("r1_c5", "r2_c5"), ("r1_c3", "r2_c3")], join_type="full")
    union = sys2_union_q4(cat).total_cost  # SYS2's union of two LOJs
    assert direct.total_cost < union
    return dict(default=default, shared=shared, optimizer=plan.total_cost, prefix=prefix,
                foj=foj, union=union, direct=direct.total_cost)


@row("Fig. 15 (B3)", "PYRO-O optimal on Q3-Q6; PYRO-P near it on few join attributes, "
     "not on Q5/Q6; PYRO and PYRO-O- worst",
     "estimated cost, PYRO-E = 100, PYRO / PYRO-O- / PYRO-P / PYRO-O / PYRO-E: {table}")
def test_fig15_strategy_ordering():
    norm = {q: {s: 100 * c[s] / c["pyro-e"] for s in STRATEGIES}
            for q, c in strategy_costs().items()}
    for q, n in norm.items():
        assert min(n.values()) >= 100 * (1 - 1e-9), q  # PYRO-E is the optimum
        assert n["pyro-o"] <= 101.0, q
        # Q4's full outer joins carry no order: every strategy ties there.
        assert n["pyro"] == pytest.approx(100.0) if q == "Q4" else n["pyro"] >= 150.0, q
    assert norm["Q3"]["pyro-p"] <= 110.0  # few join attributes
    assert norm["Q6"]["pyro-p"] >= 150.0  # arbitrary secondary orders
    return dict(table="; ".join(f"{q} " + " / ".join(f"{n[s]:.0f}" for s in STRATEGIES)
                                for q, n in norm.items()))


@row("Ablation", "each mechanism of the paper contributes",
     "Q3 full {q3[pyro-o]:,.0f}, no partial sort {q3[pyro-o-]:,.0f}, no favorable orders "
     "{q3[pyro]:,.0f}; Q4 full {q4[pyro-o]:,.0f}, no refinement {q4_no_refine:,.0f}; "
     "FD-reduced group order {group_order}; with hash operators {with_hash:,.0f} vs sort "
     "only {sort_only:,.0f}")
def test_ablation_each_mechanism_pays():
    q3, q4 = strategy_costs()["Q3"], strategy_costs()["Q4"]
    assert q3["pyro-o"] < q3["pyro-o-"] / 2  # partial sort is the decisive factor
    assert q3["pyro-o"] <= q3["pyro"]  # favorable orders
    q4_no_refine = Optimizer(fig16_cases()[1][1], strategy="pyro-o", refine=False,
                             **SORT_ONLY).optimize(query4()).total_cost
    assert q4["pyro-o"] <= q4_no_refine  # phase-2 refinement
    # FD reduction: group by (suppkey, partkey), never sort on ps_availqty.
    group_order = q3_plan().find_all("SortAggregate")[0].order
    assert len(group_order) == 2 and "ps_availqty" not in group_order.attrs()
    with_hash = Optimizer(tpch_paper_stats(), strategy="pyro-o").optimize(query3()).total_cost
    assert with_hash <= q3_plan().total_cost * 1.001
    return dict(q3=q3, q4=q4, q4_no_refine=q4_no_refine, group_order=group_order,
                with_hash=with_hash, sort_only=q3_plan().total_cost)


def goals_examined(strategy, k):
    """Goals an unpruned search examines for a two-table join on k attributes."""
    cat = Catalog()
    for name, prefix, clustering in (("l", "a", ["a0", "a1"][:k]), ("r", "b", [])):
        cat.create_table(name, Schema.of(*[(f"{prefix}{i}", "int", 8) for i in range(k)]),
                         stats=TableStats(1_000_000, {f"{prefix}{i}": 100 for i in range(k)}),
                         clustering_order=SortOrder(clustering))
    optimizer = Optimizer(cat, strategy=strategy, enable_hash_join=False,
                          refine=False, cost_bound_pruning=False)
    optimizer.optimize(Query.table("l").join("r", on=[(f"a{i}", f"b{i}") for i in range(k)]))
    return optimizer.last_telemetry["goals_examined"]


@row("Fig. 16", "optimization time against join attributes: PYRO-E explodes, PYRO-P "
     "grows, PYRO-O stays flat",
     "goals examined at k = 2..10: PYRO-P {pyro-p}; PYRO-O {pyro-o}; PYRO {pyro}; "
     "PYRO-E (k = 2..6) {pyro-e}",
     "tests/test_cost_bounded.py::TestBranchAndBound::test_same_cost_fewer_goals_on_bench_queries",
     "tests/test_optimizer_work.py::test_search_effort_counters_are_pinned")
def test_fig16_search_effort_by_join_attributes():
    g = {s: {k: goals_examined(s, k) for k in range(2, 7 if s == "pyro-e" else 11)}
         for s in ("pyro", "pyro-p", "pyro-o", "pyro-e")}
    e, p, o = g["pyro-e"], g["pyro-p"], g["pyro-o"]
    assert e[6] > 20 * e[3]  # PYRO-E's factorial blow-up
    assert o[10] < 15 * o[4]  # PYRO-O stays flat
    assert e[6] > 10 * o[6]
    assert e[5] > p[5] > g["pyro"][5] and o[5] <= p[5]
    return {s: " / ".join(f"{n:,}" for n in counts.values()) for s, counts in g.items()}


# -- the rendered table -------------------------------------------------------------------
def render() -> str:
    lines = ["# The paper's experiments, reproduced", "",
             "Generated by `tests/test_paper_ledger.py`; rewrite with "
             "`PYTHONPATH=src python tests/test_paper_ledger.py`.",
             "Every number is deterministic: estimated plan cost, metered cost units "
             "(blocks plus comparisons over `cpu_comparisons_per_io`), comparisons, "
             "blocks or goals examined.  None is a time.", "",
             "| figure | the paper reports | this code measures | held by |",
             "|---|---|---|---|"]
    for figure, paper, measure, template, held_by in LEDGER:
        tests = "<br>".join(f"`{t}`" for t in held_by)
        lines.append(f"| {figure} | {paper} | {template.format(**measure())} | {tests} |")
    return "\n".join(lines) + "\n"


def test_reproduction_doc_is_current():
    assert DOC.read_text() == render(), "rerun: PYTHONPATH=src python tests/test_paper_ledger.py"


if __name__ == "__main__":
    DOC.write_text(render())
