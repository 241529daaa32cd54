"""Randomized plan-parity fuzz suite.

Generates seeded random logical plans mixing joins (inner / left / full
outer), aggregates, unions, distinct, computed columns, limits and a
root ORDER BY over random catalogs (random clustering, random range
partition specs, random sort-memory sizes), and asserts the result rows
are **bit-identical** across every execution configuration:

* ``parallelism`` ∈ {1, 2, 4} (different physical plans: the shard-aware
  search may place enforcers, joins and aggregations per shard);
* ``batch_size`` ∈ {1, 64, default};
* row-at-a-time vs batch-vectorized driving (``batch_size=1`` keeps
  every batch under ``COLUMNAR_MIN_ROWS``, so those legs run the row
  functions and the default-size legs the whole-column kernels);
* order-checked execution (``check_orders=True``), so every operator's
  declared sort order is verified at run time;
* serial backend vs process backend vs direct execution of each plan,
  including a tally comparison: where a plan runs must not change any
  simulated cost counter, because every backend runs it as planned.

Every generated query ends with ``ORDER BY *all output columns*``, which
totally orders the output up to fully-duplicate rows — interchangeable
by definition — so exact list equality is the right oracle even when
different parallelism levels pick structurally different plans.  All
table values are small ints, keeping SUM/COUNT/MIN/MAX recombination
bit-exact across per-shard partial aggregation.

On a mismatch the suite *shrinks* the failing query: every logical
subtree is re-checked smallest-first and the minimal failing fragment is
reported together with the seed, so a one-line repro lands in the
assertion message.

The seed base is ``REPRO_FUZZ_SEED`` (default 0 — what CI pins) and the
plan count ``REPRO_FUZZ_PLANS`` (default 200, per the acceptance bar).
"""

import os
import random

import pytest

from repro.core.sort_order import SortOrder
from repro.engine import ExecutionContext, flatten_batches
from repro.expr import col, param
from repro.expr.aggregates import AggSpec, count_star
from repro.expr.expressions import Comparison
from repro.logical import Query
from repro.logical.algebra import Annotator, BaseRelation, Join, Limit, OrderBy
from repro.service import ProcessPoolBackend, QuerySession, SerialBackend
from repro.storage import Catalog, RangePartitioning, Schema, SystemParameters

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
NUM_PLANS = int(os.environ.get("REPRO_FUZZ_PLANS", "200"))
CHUNKS = 4

AGG_FUNCS = ("sum", "min", "max", "count", "avg")


# -- random catalogs ---------------------------------------------------------------------
def random_catalog(rng: random.Random) -> Catalog:
    """2–3 small int tables; random clustering, range partitioning and
    sort-memory size so in-memory, spilling, contiguous and filtered-
    partition regimes all appear across seeds."""
    catalog = Catalog(SystemParameters(
        sort_memory_blocks=rng.choice([2, 4, 16, 10_000])))
    for t in range(rng.randint(2, 3)):
        names = [f"t{t}_c{i}" for i in range(rng.randint(2, 4))]
        # Declared widths vary so sorts cross the spill boundary: a
        # 60-row table of 200-byte columns is ~12 blocks against 2–16
        # blocks of sort memory, putting per-shard enforcement in play.
        schema = Schema.of(*[(n, "int", rng.choice([8, 8, 64, 200]))
                             for n in names])
        num_rows = rng.randint(20, 60)
        domain = rng.choice([4, 10, 40])
        rows = [tuple(rng.randrange(domain) for _ in names)
                for _ in range(num_rows)]
        clustered = rng.random() < 0.6
        clustering = SortOrder([names[0]]) if clustered else SortOrder(())
        partitioning = None
        if domain > 2 and rng.random() < 0.45:
            cuts = sorted(rng.sample(range(1, domain),
                                     min(rng.randint(1, 3), domain - 1)))
            partitioning = RangePartitioning(names[0], tuple(cuts))
        catalog.create_table(f"t{t}", schema, rows=rows,
                             clustering_order=clustering,
                             partitioning=partitioning)
    return catalog


# -- random queries ----------------------------------------------------------------------
def _random_filter(rng: random.Random, q: Query, cols: list[str]) -> Query:
    c = rng.choice(cols)
    value = rng.randrange(40)
    comparison = rng.choice([col(c).lt, col(c).le, col(c).gt, col(c).ge,
                             col(c).eq])
    return q.where(comparison(value))


def random_query(rng: random.Random, catalog: Catalog) -> Query:
    available = [table.name for table in catalog.tables()]
    rng.shuffle(available)
    q = Query.table(available.pop())
    cols = list(catalog.table(q.expr.table_name).schema.names)
    fresh = [0]

    for _ in range(rng.randint(1, 4)):
        choice = rng.random()
        if choice < 0.18:
            q = _random_filter(rng, q, cols)
        elif choice < 0.30 and len(cols) > 1:
            keep = sorted(rng.sample(range(len(cols)),
                                     rng.randint(1, len(cols))))
            cols = [cols[i] for i in keep]
            q = q.select(*cols)
        elif choice < 0.40:
            name = f"x{fresh[0]}"
            fresh[0] += 1
            q = q.compute(**{name: col(rng.choice(cols)) + rng.randrange(5)})
            cols = cols + [name]
        elif choice < 0.62 and available:
            other = available.pop()
            other_cols = list(catalog.table(other).schema.names)
            pairs = [(rng.choice(cols), rng.choice(other_cols))
                     for _ in range(rng.randint(1, 2))]
            # Join predicates reject duplicates on either side.
            seen_l: set[str] = set()
            seen_r: set[str] = set()
            deduped = []
            for l, r in pairs:
                if l not in seen_l and r not in seen_r:
                    deduped.append((l, r))
                    seen_l.add(l)
                    seen_r.add(r)
            pairs = deduped
            how = rng.choice(["inner", "inner", "left", "full"])
            q = q.join(other, on=pairs, how=how)
            cols = cols + other_cols
        elif choice < 0.80:
            group = sorted(rng.sample(range(len(cols)),
                                      rng.randint(1, min(2, len(cols)))))
            group_cols = [cols[i] for i in group]
            aggs = []
            for j in range(rng.randint(1, 2)):
                name = f"a{fresh[0]}"
                fresh[0] += 1
                if rng.random() < 0.2:
                    aggs.append(count_star(name))
                else:
                    aggs.append(AggSpec(rng.choice(AGG_FUNCS),
                                        col(rng.choice(cols)), name))
            q = q.group_by(group_cols, *aggs)
            cols = group_cols + [a.output_name for a in aggs]
        elif choice < 0.90:
            q = _random_filter(rng, q, cols).union(_random_filter(rng, q, cols))
        else:
            q = q.distinct()

    q = q.order_by(*cols)
    if rng.random() < 0.2:
        q = q.limit(rng.randint(1, 40))
    return q


# -- the parity oracle -------------------------------------------------------------------
def unenforced_join_pairs(plan) -> list[str]:
    """Equality pairs of a logical join that its merge join neither
    merges on nor has enforced by the filter directly above it."""
    missing = []
    edges = [(None, plan)] + [(parent, node) for parent in plan.walk()
                              for node in parent.children]
    for parent, node in edges:
        logical = node.arg("logical")
        if node.op != "MergeJoin" or logical is None:
            continue
        enforced = set(node.arg("predicate").pairs)
        if parent is not None and parent.op == "Filter":
            enforced |= {(str(c.left), str(c.right))
                         for c in parent.arg("predicate").conjuncts()
                         if isinstance(c, Comparison) and c.op == "="}
        missing += [f"{l}={r} of MergeJoin ({node.describe()})"
                    for l, r in logical.predicate.pairs
                    if (l, r) not in enforced]
    return missing


def execution_mismatches(catalog: Catalog, query) -> list[str]:
    """Run *query* under every configuration; names of configs whose rows
    differ from the serial reference (empty = parity holds)."""
    session = QuerySession(catalog)
    reference = session.execute(query)
    results: dict[str, list[tuple]] = {}
    for parallelism in (1, 2, 4):
        for batch_size in (1, 64, None):
            name = f"p{parallelism}/b{batch_size or 'def'}"
            results[name] = session.execute(query, parallelism=parallelism,
                                            batch_size=batch_size)
    # Order-checked execution: every declared order is verified per row.
    checked = ExecutionContext(catalog, check_orders=True)
    results["p4/checked"] = session.execute(query, parallelism=4, ctx=checked)
    # Row-at-a-time driving of the sharded plan.
    plan = session.prepare(query, parallelism=4).plan
    row_ctx = ExecutionContext(catalog, batch_size=1)
    results["p4/rows"] = list(flatten_batches(
        plan.to_operator(catalog).execute_batches(row_ctx)))
    bad = [name for name, rows in results.items() if rows != reference]
    # Rows can agree and all be wrong: a merge join must merge on, or
    # have filtered above it, every pair of the join it implements.
    return bad + [f"p{parallelism}/join pairs" for parallelism in (1, 4)
                  if unenforced_join_pairs(
                      session.prepare(query, parallelism=parallelism).plan)]


def shrink_failure(catalog: Catalog, query) -> str:
    """Smallest failing logical fragment (each subtree re-ordered on its
    own output columns and re-checked), for the assertion message."""
    candidates = sorted(query.expr.walk(), key=lambda e: sum(1 for _ in e.walk()))
    for node in candidates:
        annotator = Annotator(catalog, node)
        sub = Query.of(node).order_by(*annotator.schema_of(node).names)
        try:
            bad = execution_mismatches(catalog, sub)
        except Exception as exc:  # a crash is as good as a mismatch
            return f"{sub.pretty()}\n(shrunk fragment raises: {exc!r})"
        if bad:
            return f"{sub.pretty()}\n(shrunk fragment mismatches: {bad})"
    return query.pretty() + "\n(no smaller failing fragment found)"


def run_seed(seed: int) -> None:
    rng = random.Random(seed)
    catalog = random_catalog(rng)
    query = random_query(rng, catalog)
    try:
        mismatches = execution_mismatches(catalog, query)
    except Exception:
        print(f"\nfuzz seed {seed} crashed on:\n{query.pretty()}")
        raise
    if mismatches:
        fragment = shrink_failure(catalog, query)
        pytest.fail(
            f"fuzz seed {seed}: configs {mismatches} diverge from the "
            f"serial reference.\nquery:\n{query.pretty()}\n"
            f"minimal failing fragment:\n{fragment}")


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_plan_parity_fuzz(chunk):
    per_chunk = (NUM_PLANS + CHUNKS - 1) // CHUNKS
    start = BASE_SEED + chunk * per_chunk
    for seed in range(start, start + per_chunk):
        run_seed(seed)


# -- join-enumerator result parity -------------------------------------------------------
REORDERING_ENUMERATORS = ("simpli-squared", "greedy-m2m")


def random_join_catalog(rng: random.Random) -> Catalog:
    """4–6 small int tables for multi-leaf inner-join regions: unlike
    :func:`random_catalog`, wide enough that join-order rewriting
    (needs >= 3 leaves in one region) fires on most seeds."""
    catalog = Catalog(SystemParameters(
        sort_memory_blocks=rng.choice([4, 16, 10_000])))
    for t in range(rng.randint(4, 6)):
        names = [f"t{t}_c{i}" for i in range(rng.randint(2, 4))]
        schema = Schema.of(*[(n, "int", 8) for n in names])
        domain = rng.choice([6, 8, 10])
        rows = [tuple(rng.randrange(domain) for _ in names)
                for _ in range(rng.randint(10, 25))]
        clustering = (SortOrder([names[0]]) if rng.random() < 0.5
                      else SortOrder(()))
        catalog.create_table(f"t{t}", schema, rows=rows,
                             clustering_order=clustering)
    return catalog


def random_join_region_query(rng: random.Random, catalog: Catalog) -> Query:
    """One maximal inner-join region over every table, joined in a
    random connected order with 1–2 predicate pairs per step."""
    tables = [table.name for table in catalog.tables()]
    rng.shuffle(tables)
    q = Query.table(tables[0])
    placed_cols = list(catalog.table(tables[0]).schema.names)
    for name in tables[1:]:
        new_cols = list(catalog.table(name).schema.names)
        pairs = []
        used_l: set[str] = set()
        used_r: set[str] = set()
        for _ in range(rng.randint(1, 2)):
            l, r = rng.choice(placed_cols), rng.choice(new_cols)
            if l not in used_l and r not in used_r:
                pairs.append((l, r))
                used_l.add(l)
                used_r.add(r)
        q = q.join(name, on=pairs)
        placed_cols += new_cols
    q = q.order_by(*placed_cols)
    if rng.random() < 0.3:
        q = q.limit(rng.randint(1, 50))
    return q


@pytest.mark.parametrize("enumerator", REORDERING_ENUMERATORS)
def test_enumerator_parity_on_fuzz_corpus(enumerator):
    """Each reordering enumerator returns exactly the rows the default
    exhaustive enumerator returns, on every corpus query (serial and
    sharded execution)."""
    for seed in range(BASE_SEED, BASE_SEED + NUM_PLANS):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        query = random_query(rng, catalog)
        reference = QuerySession(catalog).execute(query)
        session = QuerySession(catalog, join_enumerator=enumerator)
        for parallelism in (1, 4):
            rows = session.execute(query, parallelism=parallelism)
            assert rows == reference, (
                f"{enumerator} diverges from exhaustive on fuzz seed "
                f"{seed} at parallelism {parallelism}:\n{query.pretty()}")


def nested_loop_rows(catalog: Catalog, expr) -> tuple[list[str], list[tuple]]:
    """``(column names, rows)`` of a join-region query by the definition
    of its operators and nothing of the engine's: every pair of rows of
    an inner join's inputs tested against every equality, ``sorted`` for
    the ORDER BY, a slice for the LIMIT.  NULL-free by construction of
    :func:`random_join_catalog`."""
    if isinstance(expr, BaseRelation):
        table = catalog.table(expr.table_name)
        return list(table.schema.names), list(table.rows)
    if isinstance(expr, Join) and expr.join_type == "inner":
        lnames, lrows = nested_loop_rows(catalog, expr.left)
        rnames, rrows = nested_loop_rows(catalog, expr.right)
        on = [(lnames.index(l), rnames.index(r)) for l, r in expr.predicate.pairs]
        return lnames + rnames, [lrow + rrow for lrow in lrows for rrow in rrows
                                 if all(lrow[i] == rrow[j] for i, j in on)]
    names, rows = nested_loop_rows(catalog, expr.child)
    if isinstance(expr, OrderBy):
        positions = [names.index(c) for c in expr.order]
        return names, sorted(rows, key=lambda row: [row[p] for p in positions])
    if isinstance(expr, Limit):
        return names, rows[:expr.k]
    raise NotImplementedError(expr.label())


@pytest.mark.parametrize("enumerator", ("exhaustive",) + REORDERING_ENUMERATORS)
def test_enumerator_parity_on_join_regions(enumerator):
    """Every enumerator — the default included, which is therefore no
    reference — returns the nested-loop answer on wide inner-join
    regions, where a reordering enumerator's rewrite actually fires; and
    it must fire, or the parity claim is vacuous."""
    from repro.optimizer.pipeline import make_enumerator
    enum = make_enumerator(enumerator)
    rewrites = 0
    for seed in range(BASE_SEED, BASE_SEED + 40):
        rng = random.Random(seed)
        catalog = random_join_catalog(rng)
        query = random_join_region_query(rng, catalog)
        if enum.reorder(catalog, query.expr) != query.expr:
            rewrites += 1
        _, reference = nested_loop_rows(catalog, query.expr)
        session = QuerySession(catalog, join_enumerator=enumerator)
        for parallelism in (1, 4):
            rows = session.execute(query, parallelism=parallelism)
            assert rows == reference, (
                f"{enumerator} diverges from the nested-loop answer on "
                f"join-region seed {seed} at parallelism {parallelism}:\n"
                f"{query.pretty()}")
    assert rewrites >= 10 or enumerator == "exhaustive", (
        f"{enumerator} only rewrote {rewrites}/40 join-region queries — "
        f"the parity run is not exercising the reordering path")


def test_reduced_merge_key_keeps_every_join_pair():
    """Join-region seed 4244: the top join is ``t3_c3=t1_c2 AND
    t2_c0=t1_c1`` over a left input in which ``t3_c3 = t2_c0`` already
    holds (both equal ``t4_c0``).  PYRO-O reduces the merge key to
    ``(t3_c3)`` — enough to *sort* on — and the plan once dropped the
    second pair with it: 296 rows for the nested loop's 24.  Every
    strategy under every enumerator returns the nested-loop rows, and the
    reduced merge join carries the pair it left out as a filter."""
    from repro.core.interesting import STRATEGY_VARIANTS
    from repro.optimizer.pipeline import ENUMERATORS
    rng = random.Random(4244)
    catalog = random_join_catalog(rng)
    query = random_join_region_query(rng, catalog)
    _, reference = nested_loop_rows(catalog, query.expr)
    assert len(reference) == 24
    for enumerator in ENUMERATORS:
        for strategy in STRATEGY_VARIANTS:
            session = QuerySession(catalog, strategy=strategy,
                                   join_enumerator=enumerator)
            for parallelism in (1, 4):
                assert session.execute(query, parallelism=parallelism) \
                    == reference, (enumerator, strategy, parallelism)
    plan = QuerySession(catalog).prepare(query).plan
    assert unenforced_join_pairs(plan) == []
    reduced = [node for node in plan.walk() if node.op == "Filter"
               and node.children[0].op == "MergeJoin"]
    assert [repr(node.arg("predicate")) for node in reduced] == ["t2_c0 = t1_c1"]


# -- backend parity: the plan is the only statement of what executes ---------------------
def backend_divergences(catalog: Catalog, plans, pool) -> list[str]:
    """Run each ``(label, parallelism, bound plan)`` directly, on the
    serial backend and on *pool*; labels whose rows or ``tallies()``
    differ from the direct run (empty = parity holds)."""
    bad = []
    for label, parallelism, plan in plans:
        direct = ExecutionContext(catalog)
        rows = plan.to_operator(catalog).run(direct)
        for backend in (SerialBackend(), pool):
            ctx = ExecutionContext(catalog)
            got = backend.run_plan(plan, catalog, parallelism=parallelism,
                                   ctx=ctx)
            if got != rows:
                bad.append(f"{label}/{backend.name}/rows")
            if ctx.tallies() != direct.tallies():
                bad.append(f"{label}/{backend.name}/tallies")
    return bad


def report_shapes_catalog() -> Catalog:
    """``benchmarks/e2e``'s ``report_process`` table at 1100 rows: 24
    blocks of 88-byte rows, 46 to a block."""
    rng = random.Random(1)
    catalog = Catalog(SystemParameters(sort_memory_blocks=11))
    schema = Schema.of(("sym", "int", 8), ("ts", "int", 8),
                       ("qty", "int", 8), ("tag", "str", 64))
    rows = [(rng.randrange(64), rng.randrange(100_000),
             rng.randrange(1, 500), f"t{rng.randrange(997)}")
            for _ in range(1100)]
    catalog.create_table("trades", schema, rows=rows,
                         clustering_order=SortOrder(["sym"]))
    return catalog


def test_backends_run_the_plan_as_planned():
    """Equal rows and equal ``tallies()`` on serial, process and direct
    execution, for every fuzz-corpus plan and the three report_process
    shapes at parallelism 1, 2 and 4.  ``parallelism`` is a planning
    input only: the engine used to re-shard unsharded scans at run time
    into a plan the optimizer never priced (27 blocks read for the
    pinned 24-block filter below)."""
    for seed in range(BASE_SEED, BASE_SEED + NUM_PLANS):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        query = random_query(rng, catalog)
        session = QuerySession(catalog)
        plans = [(f"p{k}", k, session.prepare(query, parallelism=k).plan)
                 for k in (1, 2, 4)]
        pool = ProcessPoolBackend(catalog, workers=1)
        try:
            bad = backend_divergences(catalog, plans, pool)
        finally:
            pool.close()
        assert not bad, f"fuzz seed {seed}: {bad}\n{query.pretty()}"

    catalog = report_shapes_catalog()
    trades = Query.table("trades")
    pinned = trades.where(col("qty").ge(250))
    shapes = {
        "report": (trades.order_by("ts", "sym", "qty", "tag"), {}),
        "volume": (trades.where(col("qty").ge(param("min_qty")))
                   .group_by(["sym"], count_star("n"),
                             AggSpec("sum", col("qty"), "vol"))
                   .order_by("sym"), {"min_qty": 250}),
        "recent": (trades.where(col("ts").ge(90_000))
                   .select("ts", "sym", "qty").order_by("ts", "sym", "qty"),
                   {}),
        "pinned": (pinned, {}),
    }
    session = QuerySession(catalog)
    plans = [(f"{name}/p{k}", k,
              session.prepare(query, parallelism=k).bind(**binds))
             for name, (query, binds) in shapes.items() for k in (1, 2, 4)]
    pool = ProcessPoolBackend(catalog, workers=1)
    try:
        assert not backend_divergences(catalog, plans, pool)
        # The pinned example: one unsharded scan costed at 24 blocks
        # (plus the filter's CPU), and 24 blocks read everywhere.
        prepared = session.prepare(pinned, parallelism=4)
        (scan,) = prepared.plan.find_all("TableScan")
        assert scan.total_cost == 24 and int(prepared.total_cost) == 24
        for backend in (SerialBackend(), pool):
            ctx = ExecutionContext(catalog)
            backend.run_plan(prepared.plan, catalog, parallelism=4, ctx=ctx)
            assert ctx.io.blocks_read == 24, backend.name
    finally:
        pool.close()


def test_process_backend_columnar_parity():
    """Prepared plans now carry unpicklable kernel bundles; the process
    backend must strip them (``strip_plan``), let workers recompile
    through their own kernel caches, and still return bit-identical rows
    to the in-process columnar engine."""
    from repro.service import QueryServer

    for seed in range(BASE_SEED + 100, BASE_SEED + 106):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        query = random_query(rng, catalog)
        reference = QuerySession(catalog).execute(query)
        with QueryServer(catalog, backend="process", parallelism=4,
                         max_inflight=2, pool_workers=2) as server:
            assert server.execute(query).rows == reference, f"seed {seed}"


def test_fuzz_exercises_new_machinery():
    """The suite only means something if the generated population
    actually reaches the sharded machinery: across the first 60 seeds,
    sharded executions must plan merge exchanges, range partition scans
    and outer joins somewhere."""
    ops_seen: set[str] = set()
    for seed in range(BASE_SEED, BASE_SEED + 60):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        query = random_query(rng, catalog)
        session = QuerySession(catalog)
        plan = session.prepare(query, parallelism=4).plan
        ops_seen |= {node.op for node in plan.walk()}
        for node in plan.walk():
            if node.op == "MergeJoin" and node.arg("join_type") != "inner":
                ops_seen.add("OuterMergeJoin")
    assert "MergeExchange" in ops_seen, ops_seen
    assert {"MergeJoin", "HashJoin", "SortAggregate"} <= ops_seen, ops_seen
