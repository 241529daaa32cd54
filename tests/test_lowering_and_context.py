"""Plan lowering, I/O accounting, and paper-claim integration tests."""

import ast
from pathlib import Path

import pytest

import repro.engine
import repro.service

from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.engine import ExecutionContext, operators_from_plan
from repro.engine.context import IOAccountant
from repro.optimizer import Optimizer
from repro.optimizer.manual import PlanBuilder
from repro.storage import Catalog, Schema, SystemParameters
from tests import row_oracle
from tests.conftest import sort_rows


def _name(node) -> str:
    return getattr(node, "id", getattr(node, "attr", None))


def test_engine_never_imports_the_cost_model():
    """Where an enforcer goes, and which scans fan out, is decided inside
    the optimizer's search: no engine module may import the cost model
    (at module level or inside a function), and no engine or service
    module may define or call a scan-sharding rewrite.  Shard scans come
    into being only where ``lowering.py`` lowers the plan's own nodes:
    outside it, ``scans.py`` (the definitions) and ``engine/__init__.py``
    (the re-export), no module names ``RangePartitionScan`` at all, nor
    hands a ``TableScan`` a shard spec (more than one argument, also
    through a ``functools.partial``)."""
    shard_builders = {"ShardedScan", "RangePartitionScan", "shard_scans",
                      "TableScan(shard)"}
    offenders = []
    engine_dir = Path(repro.engine.__file__).parent
    service_dir = Path(repro.service.__file__).parent
    homes = {engine_dir / name
             for name in ("lowering.py", "scans.py", "__init__.py")}
    for path in sorted([*engine_dir.glob("*.py"), *service_dir.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            imported, named = [], None
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                imported = [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                named = _name(node)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named = node.name
            elif isinstance(node, ast.Call):
                # TableScan as the callee or as an argument (a partial):
                # more than one argument after it is a shard spec.
                callee = [node.func, *node.args]
                at = [i for i, arg in enumerate(callee)
                      if _name(arg) == "TableScan"]
                if at and len(callee) + len(node.keywords) - at[0] > 2:
                    named = "TableScan(shard)"
            if path.parent == engine_dir and any(
                    "optimizer.cost" in name for name in imported):
                offenders.append(f"{path.name}:{node.lineno}")
            names = {named, *(name.rsplit(".", 1)[-1] for name in imported)}
            if names & shard_builders and path not in homes:
                offenders.append(f"{path.name}:{node.lineno} "
                                 f"{sorted(names & shard_builders)}")
    assert offenders == []


def test_engine_states_no_order_of_its_own():
    """The plan is the one statement of what each operator delivers
    (``PlanBuilder`` claims every node's order): no engine module derives
    an order with ``longest_common_prefix`` or ``restrict_prefix_to``, or
    names ``output_order``.  An operator gets the order it acts on from
    lowering, as a constructor argument."""
    derived = {"longest_common_prefix", "restrict_prefix_to", "output_order"}
    offenders = []
    for path in sorted(Path(repro.engine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, field, None)
                     for field in ("id", "attr", "arg", "name")}
            for name in names & derived:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


class TestIOAccounting:
    def test_counters(self):
        io = IOAccountant()
        io.read(5)
        io.write(3)
        io.read(2, category="run")
        assert io.blocks_read == 7
        assert io.blocks_written == 3
        assert io.scan_blocks == 5
        assert io.run_blocks_read == 2
        assert io.total_blocks == 10

    def test_negative_rejected(self):
        io = IOAccountant()
        with pytest.raises(ValueError):
            io.read(-1)

    def test_charged_stream_per_block(self):
        ctx = ExecutionContext(params=SystemParameters(block_size=100))
        rows = [(i,) for i in range(25)]
        out = list(row_oracle.charged_stream(ctx, rows, row_bytes=10))  # 10 rows/block
        assert out == rows
        assert ctx.io.blocks_read == 3  # ceil(25/10)

    def test_cost_units_combines_io_and_cpu(self):
        params = SystemParameters(cpu_comparisons_per_io=100)
        ctx = ExecutionContext(params=params)
        ctx.io.read(10)
        ctx.comparisons.add(500)
        assert ctx.cost_units() == pytest.approx(15.0)

    def test_reset(self):
        ctx = ExecutionContext()
        ctx.io.read(5)
        ctx.comparisons.add(5)
        ctx.reset()
        assert ctx.cost_units() == 0


class TestLowering:
    @pytest.fixture
    def catalog(self, rng):
        cat = Catalog()
        schema = Schema.of(("a", "int", 8), ("b", "int", 8), ("v", "int", 8))
        rows = [(rng.randrange(5), rng.randrange(5), i) for i in range(100)]
        cat.create_table("t", schema, rows=rows,
                         clustering_order=SortOrder(["a"]))
        cat.create_index("t_ab", "t", SortOrder(["a", "b"]), included=["v"])
        return cat

    @staticmethod
    def builder_plans(catalog):
        """One plan per operator the builder (so the search) can produce."""
        from repro.expr import col
        from repro.expr.aggregates import count_star
        catalog.create_table(
            "w", Schema.of(("x", "int", 8), ("y", "int", 8)),
            rows=[(i % 5, i % 5) for i in range(50)])
        b = PlanBuilder(catalog)
        scan = b.table_scan("t")
        by_all = SortOrder(["a", "b", "v"])
        plans = {
            "scan": scan,
            "cov": b.covering_scan("t", "t_ab"),
            "clustering": b.clustering_scan("t"),
            "filter": b.filter(scan, col("a").eq(1)),
            "project": b.project(scan, ["b", "a"]),
            "compute": b.compute(scan, [("ab", col("a") + col("b"))]),
            "sort": b.sort(scan, SortOrder(["b"])),
            "partial": b.sort(scan, SortOrder(["a", "b"])),
            "agg": b.sort_aggregate(b.sort(scan, SortOrder(["a"])),
                                    SortOrder(["a"]), [count_star("n")]),
            "hashagg": b.hash_aggregate(scan, ["a"], [count_star("n")]),
            "limit": b.limit(scan, 3),
            "union_all": b.union_all(scan, scan),
            "merge_union": b.merge_union(scan, scan, by_all),
            "dedup": b.dedup(b.sort(scan, by_all), by_all),
            "hash_dedup": b.hash_dedup(scan),
            "merge_join": b.merge_join(scan, b.table_scan("w"),
                                       [("a", "x"), ("b", "y")]),
            "hash_join": b.hash_join(scan, b.table_scan("w"),
                                     [("a", "x"), ("b", "y")]),
        }
        # What the search's below-the-exchange placements are made of.
        shards = [b.sort(b.shard_of(scan, 2, i, 0.5), SortOrder(["b"]))
                  for i in range(2)]
        plans["gather"] = b.gather(shards, SortOrder(["b"]), scan.stats)
        plans["concat"] = b.gather([b.shard_of(scan, 2, i, 0.5)
                                    for i in range(2)], EMPTY_ORDER, scan.stats)
        partial = [b.sort_aggregate(shard, SortOrder(["b"]), [count_star("n")])
                   for shard in shards]
        whole = b.sort_aggregate(plans["sort"], SortOrder(["b"]),
                                 [count_star("n")])
        plans["combine"] = b.sorted_combine(
            b.gather(partial, SortOrder(["b"]), whole.stats), ["b"],
            [count_star("n")], whole.stats)
        return plans, whole

    def test_every_builder_op_lowers_and_runs(self, catalog):
        plans, whole = self.builder_plans(catalog)
        for name, plan in plans.items():
            op = operators_from_plan(plan, catalog)
            rows = op.run(ExecutionContext(catalog, check_orders=True))
            assert isinstance(rows, list), name
        assert plans["combine"].execute(catalog) == whole.execute(catalog)
        assert len(plans["merge_union"].execute(catalog)) == len(
            plans["hash_dedup"].execute(catalog)) == len(
            plans["dedup"].execute(catalog))
        assert sorted(plans["gather"].execute(catalog)) == sorted(
            catalog.table("t").rows) == sorted(plans["concat"].execute(catalog))
        assert sorted(plans["merge_join"].execute(catalog)) == sorted(
            plans["hash_join"].execute(catalog))

    def test_nothing_is_pulled_before_the_first_next(self, catalog):
        """``execute_batches(ctx)`` only *asks* for the stream: whatever
        operator lowering produces, no leaf is pulled (and so no work is
        done outside the metered, timed stream) until the first
        ``next()`` — a MergeJoin asks for both inputs before it pulls
        either."""
        from repro.engine import lowering
        from repro.engine.iterators import Operator

        class FirstPull(Operator):
            def __init__(self, child):
                super().__init__(child.schema, [child])
                self.pulled = False

            def execute_batches(self, ctx):
                self.pulled = True
                yield from self.children[0].execute_batches(ctx)

        plans, _ = self.builder_plans(catalog)
        lowered = set()
        for name, plan in plans.items():
            leaves = []

            def leaf(node):
                if not node.children:
                    leaves.append(FirstPull(operators_from_plan(node, catalog)))
                    return leaves[-1]

            op = operators_from_plan(plan, catalog, replace=leaf)
            lowered.update(type(o) for o in op.walk())
            for ctx in (ExecutionContext(catalog),
                        ExecutionContext(catalog, meter_timing=True,
                                         check_orders=True)):
                for source in leaves:
                    source.pulled = False
                stream = op.execute_batches(ctx)
                assert not any(source.pulled for source in leaves), name
                assert next(iter(stream), None) is not None, name
                assert any(source.pulled for source in leaves), name
        # A leaf that has work of its own to do before its first batch
        # does it on the first pull too.
        cov = operators_from_plan(plans["cov"], catalog)
        cov.index._leaf_image = None
        stream = cov.execute_batches(ExecutionContext(catalog))
        assert cov.index._leaf_image is None
        assert next(iter(stream)) and cov.index._leaf_image is not None
        inner = {cls for cls in vars(lowering).values()
                 if isinstance(cls, type) and issubclass(cls, Operator)
                 and cls is not Operator and "Scan" not in cls.__name__}
        assert inner <= lowered, inner - lowered

    def test_partial_sort_plan_requires_prefix(self, catalog):
        from repro.optimizer.plans import make_plan
        b = PlanBuilder(catalog)
        scan = b.table_scan("t")
        bogus = make_plan("PartialSort", scan.schema, SortOrder(["b"]),
                          scan.stats, 1.0, [scan], prefix=EMPTY_ORDER)
        with pytest.raises(ValueError):
            operators_from_plan(bogus, catalog)

    def test_unknown_op_rejected(self, catalog):
        from repro.optimizer.plans import make_plan
        b = PlanBuilder(catalog)
        scan = b.table_scan("t")
        bogus = make_plan("Teleport", scan.schema, EMPTY_ORDER, scan.stats, 0.0)
        with pytest.raises(ValueError):
            operators_from_plan(bogus, catalog)

    def test_merge_join_lowering_respects_permutation(self, catalog):
        cat = catalog
        cat.create_table(
            "u", Schema.of(("x", "int", 8), ("y", "int", 8)),
            rows=[(i % 5, i % 5) for i in range(50)])
        b = PlanBuilder(cat)
        join = b.merge_join(b.table_scan("t"), b.table_scan("u"),
                            [("b", "y"), ("a", "x")])
        rows = operators_from_plan(join, cat).run(
            ExecutionContext(cat, check_orders=True))
        expected = [l + r for l in cat.table("t").rows
                    for r in cat.table("u").rows
                    if l[1] == r[1] and l[0] == r[0]]
        assert sorted(rows) == sorted(expected)
        hashed = b.hash_join(b.table_scan("t"), b.table_scan("u"),
                             [("b", "y"), ("a", "x")])
        assert sorted(hashed.execute(cat)) == sorted(expected)
        assert hashed.stats.N == join.stats.N

    def test_plan_signature_and_describe(self, catalog):
        b = PlanBuilder(catalog)
        plan = b.sort(b.table_scan("t"), SortOrder(["a", "b"]))
        assert "PartialSort" in plan.signature()
        assert plan.describe()
        assert plan.arg("missing", 42) == 42

    def test_explain_names_a_limits_k(self, catalog):
        """EXPLAIN prints a LIMIT's row count, so LIMIT 5 and LIMIT 500
        read differently."""
        from repro.logical import Query

        explains = [Optimizer(catalog).optimize(
            Query.table("t").order_by("a", "b").limit(k)).explain()
            for k in (5, 500)]
        assert [explain.split(")")[0] for explain in explains] == [
            "Limit (5", "Limit (500"]

    def test_full_outer_merge_join_names_its_merge_key(self):
        """A FULL OUTER merge join claims no output order, yet EXPLAIN
        names the permutation it merges on, as for the other joins."""
        from repro.workloads import identical_r_tables, query4

        plan = Optimizer(identical_r_tables(2000),
                         enable_hash_join=False).optimize(query4())
        joins = plan.find_all("MergeJoin")
        assert [join.order for join in joins] == [EMPTY_ORDER, EMPTY_ORDER]
        assert [join.describe() for join in joins] == [
            "r1_c1=r3_c1 AND r1_c4=r3_c4 AND r1_c5=r3_c5"
            " on (r1_c1, r1_c4, r1_c5) [full outer]",
            "r1_c3=r2_c3 AND r1_c4=r2_c4 AND r1_c5=r2_c5"
            " on (r1_c3, r1_c4, r1_c5) [full outer]"]


class TestPaperClaims:
    """Integration checks of headline statements in the paper's text."""

    def test_optimality_with_exhaustive_contains_required_order(self):
        """Appendix A's flavour: the PYRO-E optimum is matched by PYRO-O's
        candidate set I(e, o) on a catalog where favorable orders exist."""
        cat = Catalog()
        cat.create_table("l", Schema.of(("a", "int", 8), ("b", "int", 8),
                                        ("c", "int", 8), ("p", "str", 72)),
                         stats=__import__("repro.storage", fromlist=["TableStats"]
                                          ).TableStats(500_000, {"a": 20, "b": 1000,
                                                                 "c": 1000}),
                         clustering_order=SortOrder(["a", "b"]))
        cat.create_table("r", Schema.of(("x", "int", 8), ("y", "int", 8),
                                        ("z", "int", 8), ("q", "str", 72)),
                         stats=__import__("repro.storage", fromlist=["TableStats"]
                                          ).TableStats(500_000, {"x": 20, "y": 1000,
                                                                 "z": 1000}))
        from repro.logical import Query
        q = Query.table("l").join("r", on=[("a", "x"), ("b", "y"), ("c", "z")])
        for required in (EMPTY_ORDER, SortOrder(["c", "a"])):
            e_cost = Optimizer(cat, strategy="pyro-e", refine=False,
                               enable_hash_join=False).optimize(
                q, required_order=required).total_cost
            o_cost = Optimizer(cat, strategy="pyro-o", refine=False,
                               enable_hash_join=False).optimize(
                q, required_order=required).total_cost
            assert o_cost == pytest.approx(e_cost, rel=1e-9), required

    def test_mrs_comparison_complexity(self):
        """§3.1 benefit 3: sorting k segments of n/k elements costs
        O(n log(n/k)) comparisons — the engine's stated rule, one
        boundary test per row plus ``m * ceil(log2 m)`` per m-row
        segment, is that to the letter."""
        import math
        import random
        schema = Schema.of(("s", "int", 8), ("v", "int", 8))
        rng = random.Random(0)
        n = 20_000
        measured = {}
        for k in (10, 100, 1000):
            rows = sorted(((i % k, rng.randrange(10**6)) for i in range(n)))
            ctx = ExecutionContext()
            list(sort_rows(rows, schema, SortOrder(["s", "v"]), ctx,
                           known_prefix=SortOrder(["s"])))
            measured[k] = ctx.comparisons.value
        # More segments → fewer comparisons, n·log2(n/k) shaped.
        assert measured[10] > measured[100] > measured[1000]
        for k in (10, 100, 1000):
            assert measured[k] == n + n * math.ceil(math.log2(n // k))
            bound = n * math.log2(n / k) * 2.5 + 3 * n
            assert measured[k] < bound, (k, measured[k], bound)
        assert measured[10] == 240_000

    def test_interesting_order_count_is_index_bound(self):
        """§6.3: "the number of interesting orders we try at each join …
        is of the order of the number of indices useful for the query"."""
        from repro.core.interesting import FavorableOrderStrategy
        from repro.logical import Query
        from repro.optimizer.pipeline.groups import GroupTable
        from repro.workloads import add_query3_indexes, tpch_stats_catalog
        cat = tpch_stats_catalog()
        add_query3_indexes(cat)
        q = Query.table("partsupp").join(
            "lineitem", on=[("ps_suppkey", "l_suppkey"),
                            ("ps_partkey", "l_partkey")])
        favorable = GroupTable(cat, q.expr).favorable
        orders = FavorableOrderStrategy().join_orders(favorable, q.expr,
                                                      EMPTY_ORDER)
        assert 1 <= len(orders) <= 3  # clustering + covering indexes only
