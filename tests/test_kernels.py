"""Generated row kernels, the one compiled form of an expression: the
filter and compute shapes held to the row oracle at every batch size
with every parameter bound at call time, what may enter the source of
every shape (the aggregate shapes' rows are held to the oracle in
``tests/test_closed_runs.py``), the kernel cache, plans that carry no
compiled code, and the zero-recompilation serving contract."""

import io
import pathlib
import pickle
import re
import tokenize

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.core.sort_order import SortOrder
from repro.engine import KERNELS, ExecutionContext, kernel_stats, strip_plan
from repro.engine.kernels import (
    COMPUTE,
    FILTER,
    HASH_AGGREGATE,
    SORT_AGGREGATE,
    compile_kernel,
    kernel_source,
)
from repro.expr import And, Const, Or, UnboundParamError, col, param
from repro.expr.aggregates import AGGREGATES, AggSpec, count_star
from repro.expr.expressions import BinOp, Comparison, Expression
from repro.logical import Query
from repro.service import QuerySession
from repro.storage import Catalog, Schema, SystemParameters
from tests import row_oracle

SCHEMA = Schema.of(("a", "int", 8), ("b", "int", 8), ("c", "int", 8))


def assert_shapes_match_oracle(exprs, predicate, rows, binds, schema):
    """The compute kernel over *exprs* and the filter kernel over
    *predicate* equal the row oracle on *rows*."""
    columns = [[fn(row) for row in rows]
               for fn in (row_oracle.evaluate(e, schema, binds) for e in exprs)]
    keep = row_oracle.evaluate(predicate, schema, binds)
    assert compile_kernel(COMPUTE, exprs, schema)(rows, binds) == \
        [row + tuple(values) for row, *values in zip(rows, *columns)]
    assert compile_kernel(FILTER, [predicate], schema)(rows, binds) == \
        [row for row in rows if keep(row)]


NULLY_ROWS = [
    (1, 2, 3),
    (None, 2, 3),
    (1, None, 3),
    (None, None, None),
    (0, 0, 0),
    (-5, 7, None),
]

EXPRESSIONS = [
    col("a"),
    Const(42),
    Const(None),
    col("a") + col("b"),
    col("a") + Const(3),
    Const(3) * col("b"),
    col("a") - Const(None),
    col("a").lt(col("b")),
    col("a").ge(Const(2)),
    Const(2).lt(col("b")),
    col("a").eq(Const(None)),
    And(col("a").lt(2), col("b").ge(0)),
    Or(col("a").lt(2), col("b").ge(7)),
    Or(And(col("a").lt(2), col("b").ge(0)), col("c").eq(3)),
    col("a").eq(col("a")),
]


class TestKernelParity:
    @pytest.mark.parametrize("expr", EXPRESSIONS, ids=str)
    def test_matches_row_compile_under_nulls(self, expr):
        assert_shapes_match_oracle([expr], expr, NULLY_ROWS, {}, SCHEMA)

    @pytest.mark.parametrize("expr", EXPRESSIONS, ids=str)
    def test_empty_and_singleton_batches(self, expr):
        assert_shapes_match_oracle([expr], expr, [], {}, SCHEMA)
        for row in NULLY_ROWS:
            assert_shapes_match_oracle([expr], expr, [row], {}, SCHEMA)

    def test_conjunction_short_circuit_matches_eager(self):
        # All-False first conjunct: later conjuncts never run — the
        # verdicts must still line up.
        expr = And(col("a").lt(-100), col("b").ge(0))
        assert_shapes_match_oracle([expr], expr, NULLY_ROWS, {}, SCHEMA)
        # All-True first disjunct: dual case for Or.
        expr = Or(col("a").eq(col("a")), col("b").lt(0))
        assert_shapes_match_oracle([expr], expr, NULLY_ROWS, {}, SCHEMA)

    def test_unbound_param_raises(self):
        """A kernel over a parameter generates and compiles; running it
        without the value raises the seed-era ``ValueError`` naming it."""
        kernel = compile_kernel(FILTER, [col("a").lt(param("x"))], SCHEMA)
        with pytest.raises(UnboundParamError, match=":x"):
            kernel([(1, 2, 3)], {})
        kernel = compile_kernel(COMPUTE, [col("a") + param("x")], SCHEMA)
        with pytest.raises(ValueError, match=":x"):
            kernel([(1, 2, 3)], {"y": 1})
        assert kernel([(1, 2, 3)], {"x": None}) == [(1, 2, 3, None)]


# -- kernels against the row oracle, at every batch size ---------------------------------
PROP_SCHEMA = Schema.of(("i", "int", 8), ("j", "int", 8),
                        ("s", "str", 8), ("t", "str", 8))
INTS = st.sampled_from([None, -2, -1, 0, 1, 2, 3])
STRS = st.sampled_from([None, "", "a", "b", "ab"])
INT_LEAVES = st.sampled_from([col("i"), col("j"), param("x"), param("y")])
INT_EXPR = st.recursive(
    st.one_of(INT_LEAVES, INT_LEAVES, INTS.map(Const)),
    lambda inner: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*"), inner, inner),
        st.builds(BinOp, st.just("/"), inner,
                  st.sampled_from([1, 2, -3]).map(Const))),
    max_leaves=6)
STR_LEAVES = st.sampled_from([col("s"), col("t"), param("u")])
STR_EXPR = st.one_of(STR_LEAVES, STR_LEAVES, STRS.map(Const))
COMPARISON = st.one_of(*(
    st.builds(Comparison, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
              side, side)
    for side in (INT_EXPR, STR_EXPR)))
PREDICATE = st.recursive(
    COMPARISON,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: And(*ps)),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Or(*ps))),
    max_leaves=6)


NO_NULLS = {"x": 1, "y": -1, "u": "a"}
NULL_BINDS = {"x": None, "y": None, "u": None}


def without_nulls(pool, binds):
    """*pool* and *binds* with every NULL replaced by a value of its
    column's or parameter's type."""
    fill = (1, -1, "a", "b")
    return ([tuple(f if v is None else v for v, f in zip(row, fill))
             for row in pool],
            {name: NO_NULLS[name] if v is None else v
             for name, v in binds.items()})


@given(exprs=st.lists(st.one_of(INT_EXPR, STR_EXPR, PREDICATE), min_size=1,
                      max_size=3),
       predicate=PREDICATE,
       pool=st.lists(st.tuples(INTS, INTS, STRS, STRS), min_size=1,
                     max_size=12),
       binds=st.fixed_dictionaries({"x": INTS, "y": INTS, "u": STRS}))
# A batch for each case of the two-valued pass: no NULL, a NULL in an
# ordering-compared column, ``= :param`` bound to NULL, ``!=`` and
# column ``=`` column over NULLs.
@example(exprs=[col("i") * col("j")], predicate=col("i").le(col("j")),
         pool=[(1, 2, "a", "b"), (2, 1, "b", "a")], binds=NO_NULLS)
@example(exprs=[col("i") + param("x")],
         predicate=And(col("s").eq("a"), col("i").gt(param("y"))),
         pool=[(1, 2, "a", "b"), (None, 2, "a", "b"), (3, 1, "a", "a")],
         binds=NO_NULLS)
@example(exprs=[col("i").eq(param("x")), col("s").eq(param("u"))],
         predicate=Or(col("i").eq(param("x")), col("s").eq(param("u"))),
         pool=[(None, 1, None, "a"), (1, 1, "a", "a")], binds=NULL_BINDS)
@example(exprs=[col("i").ne(Const(1)), col("s").ne(col("t"))],
         predicate=Or(col("i").ne(param("x")), col("s").ne(col("t"))),
         pool=[(None, 1, None, "a"), (2, 1, "a", None), (1, 1, "a", "a")],
         binds=NO_NULLS)
@example(exprs=[col("i").eq(col("j")), col("s").eq(col("t"))],
         predicate=Or(col("i").eq(col("j")), col("s").eq(col("t"))),
         pool=[(None, None, None, None), (1, 1, "a", "b"), (2, 1, "a", "a")],
         binds=NO_NULLS)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_row_oracle(exprs, predicate, pool, binds):
    """Random trees over int and str columns and parameters, NULLs in
    both: the compute and filter kernels equal the oracle row by
    row on batches of 0, 1, 7, 8 and 1024 rows, with every parameter
    bound at call time (``None`` included).  Each case also runs with
    its NULLs replaced, so the two-valued pass decides it whole as well
    as handing NULL-bearing batches to the exact pass."""
    for rows_of, values in ((pool, binds), without_nulls(pool, binds)):
        for size in (0, 1, 7, 8, 1024):
            rows = (rows_of * (size // len(rows_of) + 1))[:size]
            assert_shapes_match_oracle(exprs, predicate, rows, values,
                                       PROP_SCHEMA)


def test_an_error_not_caused_by_a_null_still_raises():
    """The exact pass re-raises what the two-valued pass could not
    decide: a string against an int is a TypeError with or without a
    NULL in the batch."""
    for rows in ([(0, 0, "a", "b")], [(0, 0, None, "b"), (0, 0, "a", "b")]):
        with pytest.raises(TypeError):
            compile_kernel(FILTER, [col("s").ge(Const(1))], PROP_SCHEMA)(rows, {})
        with pytest.raises(TypeError):
            compile_kernel(COMPUTE, [col("s") + Const(1)], PROP_SCHEMA)(rows, {})


def test_a_null_that_short_circuits_an_operand_raises_nothing():
    """``a < b / c`` with ``a`` NULL never divides in the exact pass, so
    the ZeroDivisionError the two-valued pass meets first must not
    escape."""
    expr = col("a").lt(col("b") / col("c"))
    rows = [(None, 1, 0), (1, 4, 2), (3, 4, 2)]
    assert compile_kernel(FILTER, [expr], SCHEMA)(rows, {}) == [(1, 4, 2)]
    assert compile_kernel(COMPUTE, [expr], SCHEMA)(rows, {}) == \
        [(None, 1, 0, False), (1, 4, 2, True), (3, 4, 2, False)]
    with pytest.raises(ZeroDivisionError):
        compile_kernel(FILTER, [expr], SCHEMA)([(1, 4, 0)], {})


def test_a_kernel_with_no_bare_operand_has_one_pass():
    """``!=`` and column ``=`` column keep their NULL tests in the
    two-valued pass, so a kernel of only those holds one comprehension;
    a constant spelled by both passes gets one name."""
    for predicate in (col("i").ne(Const(1)), col("i").eq(col("j")),
                      And(col("s").ne(Const("a")), col("i").ne(param("x")))):
        source, _ = kernel_source(FILTER, [predicate], PROP_SCHEMA)
        assert "try" not in source and source.count("for r in rows") == 1
    source, namespace = kernel_source(FILTER, [col("i").lt(Const(1))],
                                      PROP_SCHEMA)
    assert source.count("for r in rows") == 2
    assert [name for name in namespace if GENERATED.fullmatch(name)] == ["_c0"]


def test_fallbacks_count_the_batches_the_exact_pass_decides():
    """``kernel_fallbacks`` counts a batch the two-valued pass could not
    decide, and only such a batch."""
    ge = compile_kernel(FILTER, [col("i").ge(param("x"))], PROP_SCHEMA)
    eq = compile_kernel(FILTER, [col("i").eq(param("x"))], PROP_SCHEMA)
    plain, padded = [(1, 0, "a", "b")], [(1, 0, "a", "b"), (None, 0, "a", "b")]
    for kernel, rows, binds, fell_back in (
            (ge, plain, {"x": 0}, 0), (ge, padded, {"x": 0}, 1),
            (ge, plain, {"x": None}, 1),
            (eq, padded, {"x": 1}, 0), (eq, padded, {"x": None}, 0)):
        before = kernel_stats()["kernel_fallbacks"]
        kernel(rows, binds)
        assert kernel_stats()["kernel_fallbacks"] - before == fell_back, \
            (rows, binds)


def test_a_compute_over_outer_join_padding_falls_back_per_batch():
    """Arithmetic over a left join's padded column: every batch holding
    a padded row is decided by the exact pass, and the rows are SQL's."""
    cat = Catalog(SystemParameters())
    cat.create_table("l", Schema.of(("lk", "int", 8)),
                     rows=[(i,) for i in range(40)])
    cat.create_table("r", Schema.of(("rk", "int", 8), ("rv", "int", 8)),
                     rows=[(i, i) for i in range(40) if i % 10 != 9])
    query = (Query.table("l").left_outer_join("r", on=[("lk", "rk")])
             .compute(w=col("rv") + 1).select("lk", "w").order_by("lk"))
    before = kernel_stats()["kernel_fallbacks"]
    rows = QuerySession(cat).execute(
        query, ctx=ExecutionContext(cat, batch_size=10))
    assert rows == [(i, None if i % 10 == 9 else i + 1) for i in range(40)]
    assert kernel_stats()["kernel_fallbacks"] - before >= 1


# -- what may enter the source -----------------------------------------------------------
#: Every name a generated kernel may spell besides the generator's own
#: ``_cN`` globals, ``_pN`` parameter locals, ``_tN`` temporaries and
#: ``_sN`` aggregate state slots.
KERNEL_WORDS = {"def", "kernel", "rows", "binds", "return", "r", "for", "in",
                "if", "else", "is", "and", "or", "not", "None", "True",
                "False", "_bound", "groups", "get", "k", "s", "carry", "key",
                "head", "out", "append", "items", "try", "except",
                "Exception", "_fell_back"}
GENERATED = re.compile(r"_[cpst]\d+")


def test_no_constant_or_parameter_name_enters_the_source():
    nasty = 'a"b\'\nc" + __import__("os").getcwd() + "'
    exprs = [col("s").eq(Const(nasty)), col("t").ne(param("secret_name")),
             Const(nasty), col("s")]
    predicate = Or(*exprs[:2])
    aggregates = tuple((name, arg) for name in ("count", "sum", "min", "max",
                                                "avg", "count_star")
                       for arg in exprs)
    for shape, shaped in ((FILTER, [predicate]), (COMPUTE, exprs),
                          (HASH_AGGREGATE, (("s", "t"), aggregates)),
                          (SORT_AGGREGATE, (("s",), ("t", "s"), aggregates))):
        source, namespace = kernel_source(shape, shaped, PROP_SCHEMA)
        assert "__import__" not in source and "secret_name" not in source
        assert nasty not in source and repr(nasty) not in source
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                assert token.string in KERNEL_WORDS \
                    or GENERATED.fullmatch(token.string), token
            assert token.type != tokenize.STRING, token
            if token.type == tokenize.NUMBER:
                assert token.string.isdigit() or token.string == "0.0", token
        assert nasty in namespace.values() and "secret_name" in namespace.values()
    rows = [(0, 0, nasty, "x"), (0, 0, "x", "x"), (0, 0, None, "y")]
    binds = {"secret_name": "x"}
    assert_shapes_match_oracle(exprs, predicate, rows, binds, PROP_SCHEMA)


def test_a_parameterized_template_compiles_once():
    expr = And(col("a").lt(param("hi")), col("b").ne(param("skip")))
    rows = [(i % 13, i % 3, i) for i in range(40)]
    KERNELS.clear()
    before = kernel_stats()
    for hi in range(50):
        kernel = KERNELS.get(FILTER, [expr], SCHEMA)
        assert kernel(rows, {"hi": hi, "skip": hi % 3}) == \
            [r for r in rows if r[0] < hi and r[1] != hi % 3]
    after = kernel_stats()
    assert after["kernels_compiled"] == before["kernels_compiled"] + 1
    assert after["kernel_cache_hits"] == before["kernel_cache_hits"] + 49


class TestKernelCache:
    def test_hits_and_compiles_are_counted(self):
        exprs = [col("a") + col("b") + Const(17)]  # unlikely to collide
        KERNELS.clear()
        before = kernel_stats()
        first = KERNELS.get(COMPUTE, exprs, SCHEMA)
        second = KERNELS.get(COMPUTE, exprs, SCHEMA)
        after = kernel_stats()
        assert first is second
        assert after["kernels_compiled"] == before["kernels_compiled"] + 1
        assert after["kernel_cache_hits"] == before["kernel_cache_hits"] + 1

    def test_schema_is_part_of_the_key(self):
        other = Schema.of(("b", "int", 8), ("a", "int", 8))
        KERNELS.clear()
        fn1 = KERNELS.get(COMPUTE, [col("a")], SCHEMA)
        fn2 = KERNELS.get(COMPUTE, [col("a")], other)
        assert fn1([(10, 20, 30)], {}) == [(10, 20, 30, 10)]
        assert fn2([(10, 20)], {}) == [(10, 20, 20)]

    def test_unhashable_expression_compiles_uncached(self):
        expr = col("a").eq(Const([1, 2]))  # list payload: unhashable
        cached = len(KERNELS._cache)
        compiled = kernel_stats()["kernels_compiled"]
        for _ in range(2):
            fn = KERNELS.get(FILTER, [expr], SCHEMA)
            assert fn([([1, 2], 0, 0), ([1], 0, 0)], {}) == [([1, 2], 0, 0)]
        assert kernel_stats()["kernels_compiled"] == compiled + 2
        assert len(KERNELS._cache) == cached


def _catalog():
    cat = Catalog(SystemParameters())
    schema = Schema.of(("k", "int", 8), ("v", "int", 8))
    rows = [(i % 7, i % 11) for i in range(300)]
    cat.create_table("t", schema, rows=rows,
                     clustering_order=SortOrder(["k"]))
    return cat


def _query():
    return (Query.table("t").where(col("v").lt(9))
            .compute(w=col("v") + 1)
            .group_by(["k"], AggSpec("sum", col("w"), "s"), count_star("n"))
            .order_by("k"))


class TestPlanBundles:
    """A plan carries expressions, never compiled code: prepare compiles
    nothing, and the operators compile when a cache entry lowers."""

    def test_lowering_not_prepare_compiles_each_expression(self):
        cat = _catalog()
        session = QuerySession(cat)
        KERNELS.clear()
        before = kernel_stats()["kernels_compiled"]
        prepared = session.prepare(_query())
        assert kernel_stats()["kernels_compiled"] == before
        prepared.execute()
        # Four expressions (v < 9, v + 1, the sum's w and the count's
        # constant) in three operators: one kernel each, when lowered.
        assert kernel_stats()["kernels_compiled"] == before + 3

    def test_bundles_do_not_leak_into_explain(self):
        cat = _catalog()
        session = QuerySession(cat)
        prepared = session.prepare(_query())
        assert "kernels" not in prepared.explain().lower()

    def test_parameterized_nodes_stay_bundle_free(self):
        cat = _catalog()
        session = QuerySession(cat)
        q = Query.table("t").where(col("v").lt(param("cut"))).order_by("k", "v")
        prepared = session.prepare(q)
        for node in prepared.plan.walk():
            assert not any(callable(value) for _, value in node.args)
        # The value arrives at execute time, same answer as a literal.
        expected = session.execute(
            Query.table("t").where(col("v").lt(5)).order_by("k", "v"))
        assert prepared.execute(cut=5) == expected

    def test_a_lowered_plan_pickles_and_its_stripped_copy_runs_alike(self):
        cat = _catalog()
        session = QuerySession(cat)
        prepared = session.prepare(_query())
        rows = prepared.execute()  # lowered: the operators hold kernels
        pickle.dumps(prepared.plan)  # ... and the plan none
        stripped = pickle.loads(pickle.dumps(strip_plan(prepared.plan)))
        assert stripped.execute(cat, ExecutionContext(cat)) == rows


@pytest.mark.parametrize("batch_size", [1, 7, 8, 1024])
def test_compute_without_outputs_passes_rows_through(batch_size):
    cat = Catalog(SystemParameters())
    rows = [(i, i % 3) for i in range(20)]
    cat.create_table("t", Schema.of(("k", "int", 8), ("v", "int", 8)),
                     rows=rows)
    got = QuerySession(cat).execute(
        Query.table("t").compute(),
        ctx=ExecutionContext(cat, batch_size=batch_size))
    assert got == rows


def test_removed_names_stay_gone():
    """One compiled form, generated per operator: the row closures, the
    per-expression column closures, the per-execution re-binding, the
    column side of ``RowBatch``, the aggregates' run folds, bulk forms
    and argument-column kernels, the join's row buffer and the switches
    between them are gone, and a stale caller of either old form fails
    loudly."""
    for name in ("fold", "bulk"):
        assert not hasattr(AGGREGATES["sum"], name)
    for name in ("compile", "compile_batch"):
        assert not hasattr(Expression, name)
        with pytest.raises(AttributeError):
            getattr(col("a"), name)(SCHEMA)
    src = pathlib.Path(repro.__file__).parent
    docs = pathlib.Path(__file__).parent.parent / "docs"
    gone = re.compile(r"COLUMNAR_MIN_ROWS|attach_plan_kernels|OperatorKernels"
                      r"|\brow_fns?\b|compile_batch|expression_kernels"
                      r"|bind_expression|from_columns|columnar_batches"
                      r"|_fold_sorted_groups|_closed_groups|\bVALUES\b|\.bulk\b"
                      r"|BatchBuilder")
    hits = [f"{path.parent.name}/{path.name}:{number}"
            for path in sorted(src.rglob("*.py")) + sorted(docs.glob("*.md"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)
            or (path.parent.name == "expr" and "def compile(" in line)]
    assert hits == []


class TestZeroRecompilationServing:
    def test_cached_plan_reexecution_compiles_nothing(self):
        """The acceptance pin: prepare once, then every further execute
        of the cached plan performs zero kernel compilations."""
        cat = _catalog()
        session = QuerySession(cat)
        query = _query()
        first = session.execute(query)  # prepare + lower + execute
        baseline = kernel_stats()["kernels_compiled"]
        for _ in range(3):
            assert session.execute(query) == first
        prepared = session.prepare(query)
        assert prepared.from_cache
        assert prepared.execute() == first
        assert kernel_stats()["kernels_compiled"] == baseline

    def test_session_and_server_stats_expose_kernel_counters(self):
        from repro.service import QueryServer

        cat = _catalog()
        session = QuerySession(cat)
        session.execute(_query())
        stats = session.stats()
        for key in ("kernels_compiled", "kernel_cache_hits",
                    "kernel_fallbacks"):
            assert key in stats and stats[key] >= 0
        with QueryServer(cat) as server:
            server.execute(_query())
            sstats = server.stats()
        for key in ("kernels_compiled", "kernel_cache_hits",
                    "kernel_fallbacks"):
            assert key in sstats and sstats[key] >= 0
