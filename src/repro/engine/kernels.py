"""Generated row kernels and the process-global cache that holds them.

Each operator that evaluates expressions or aggregates (Filter, Compute,
HashAggregate, SortAggregate and SortedCombine) runs one generated
Python function over a batch's rows, in one of four shapes:

* ``filter`` — ``kernel(rows, binds)`` is ``[r for r in rows if P]``;
* ``compute`` — ``kernel(rows, binds)`` is ``[r + (E1, …, Ek) for r in rows]``;
* ``hash_aggregate`` — ``kernel(rows, binds, groups)`` folds every row
  into ``groups``, a dict from group key to state slots, and
  ``kernel(None, binds, groups)`` returns the output rows in first-seen
  group order;
* ``sort_aggregate`` — ``kernel(rows, binds, carry)`` folds rows grouped
  on the key and returns the rows of the groups that close in the
  batch; ``carry`` (a list, empty at first) holds the open group between
  calls, and ``kernel(None, binds, carry)`` returns its row.

A filter or compute kernel evaluates its comprehension in two passes.
The **two-valued pass** runs first and writes most operands bare: an
ordering comparison and arithmetic, because a NULL operand raises
``TypeError`` there, and ``=`` with at most one column operand, because
a NULL column then reads ``False`` as SQL's UNKNOWN does (a constant is
never NULL, arithmetic raises, and a parameter operand of ``=`` is
tested against ``None`` once in the prologue).  ``!=`` and column
``=`` column keep their NULL tests.  If the pass raises, the **exact
pass**, SQL's NULL rule operand by operand, runs over the whole batch,
so rows and errors are exactly the exact pass's: it catches any
exception, because a NULL that short-circuits an operand in the exact
pass (``a < b / c`` with ``a`` NULL never divides) does not in the
two-valued one.  A NULL-free batch is evaluated once; a batch that meets
a NULL in an ordering comparison or in arithmetic is evaluated twice,
and ``kernel_fallbacks`` (:func:`kernel_stats`) counts it.  Aggregate
kernels have one pass: their NULL skipping is semantics.

An aggregate kernel is one loop over the rows.  It builds the group key
inline (a bare value for one column, else a tuple), finds or opens the
group, and advances every aggregate with the inline statements its
:class:`~repro.expr.aggregates.AggregateFunction` states as templates:
each distinct column argument is read once, and the aggregates that
skip NULLs on it share one test.  With no group columns there is one
group, and it has a row even over no input, as SQL requires.

The source is written by the expressions themselves
(:meth:`Expression.emit <repro.expr.expressions.Expression.emit>`) and
the aggregate templates through a :class:`KernelSource`, compiled with
``exec`` once, and cached.  Only names the generator makes, integer
column positions, operator tokens from a fixed table and the templates'
own literals enter the source.  Constant values and parameter names
reach the function as globals; a parameter is a local read from
``binds`` once per call, and a missing one raises
:class:`~repro.expr.expressions.UnboundParamError` naming it.

:data:`KERNELS` is a process-global LRU keyed by ``(shape, spec, schema
column names)``.  The spec is the predicate, the computed expressions,
or an aggregate's group columns and ``(function, argument)`` pairs.
Expressions are frozen dataclasses (hashable, structurally equal), so
operators of the same shape against the same schema anywhere in the
process share the function, and a parameterized template compiles once,
whatever its values.  Unhashable expressions (a ``Const`` holding a
list, say) compile uncached.  The operator builds its kernel at
construction, that is when a plan-cache entry lowers its operator tree
(:mod:`repro.engine.prepared`), so a warm execution compiles nothing.

Kernels never ride a plan: a plan holds expressions only, so it pickles
as it is, and each process-pool worker compiles the subplans it lowers
through its own :data:`KERNELS`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Mapping, Sequence

from ..expr.aggregates import AGGREGATES
from ..expr.expressions import Col, UnboundParamError

#: ``kernel(rows, binds[, state]) -> list``.
Kernel = Callable[..., Any]

FILTER, COMPUTE = "filter", "compute"
HASH_AGGREGATE, SORT_AGGREGATE = "hash_aggregate", "sort_aggregate"

#: The key of the group a sort-aggregate kernel has not opened yet.
_NO_GROUP = object()


def _bound(binds: Mapping[str, Any], name: str) -> Any:
    """The value *binds* gives parameter *name*."""
    try:
        return binds[name]
    except KeyError:
        raise UnboundParamError(
            f"unbound query parameter :{name}; execute the query through a "
            "prepared statement that supplies a binding") from None


def _fell_back() -> None:
    """Count a batch that a two-valued pass handed to the exact pass."""
    KERNELS.count_fallback()


class KernelSource:
    """The names one kernel's source may use, handed out while its
    expressions emit: ``r[i]`` for a column, ``_cN`` globals for constants
    and getters, ``_pN`` locals for parameters (read from ``binds`` by a
    line of :attr:`prologue`) and ``_tN`` temporaries.  A constant keeps
    its name for the kernel, so both passes spell it alike.

    :attr:`two_valued` tells the expressions which pass they emit for
    (see :meth:`two_passes`)."""

    def __init__(self, schema) -> None:
        self.schema = schema
        self.namespace: dict[str, Any] = {"_bound": _bound,
                                          "_fell_back": _fell_back}
        self.prologue: list[str] = []
        self.two_valued = False
        self._nonnull: dict[str, None] = {}
        self._consts: dict[int, str] = {}
        self._params: dict[str, str] = {}
        self._temps = 0

    def column(self, name: str) -> str:
        return f"r[{self.schema.position(name):d}]"

    def const(self, value: Any) -> str:
        # Keyed by identity: the namespace holds the value, so its id is
        # not reused, and 1, 1.0 and True keep their own names.
        name = self._consts.get(id(value))
        if name is None:
            name = self._consts[id(value)] = f"_c{len(self._consts)}"
            self.namespace[name] = value
        return name

    def param(self, name: str) -> str:
        local = self._params.get(name)
        if local is None:
            local = self._params[name] = f"_p{len(self._params)}"
            self.prologue.append(f"{local} = _bound(binds, {self.const(name)})")
        return local

    def temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def nonnull(self, local: str) -> None:
        """Run the two-valued pass only when parameter *local* is bound
        to a value: one test per call, in the kernel's prologue."""
        self._nonnull[local] = None

    def two_passes(self, comprehension: Callable[[], str]) -> list[str]:
        """The statements of a kernel that returns *comprehension*, a
        list comprehension over ``rows`` emitted once per pass.

        The two-valued pass runs first when every parameter it passed to
        :meth:`nonnull` is bound to a value.  If it raises, the exact
        pass (SQL's NULL rules, operand by operand) runs over the whole
        batch and gives its rows or its error.  When the two passes
        would emit the same source there is one."""
        self.two_valued, self._temps = True, 0
        fast = comprehension()
        self.two_valued, self._temps = False, 0
        exact = comprehension()
        if fast == exact:
            return [f"return {exact}"]
        lines = ["try:", f"    return {fast}", "except Exception:",
                 "    _fell_back()"]
        if self._nonnull:
            test = " and ".join(f"{local} is not None" for local in self._nonnull)
            lines = [f"if {test}:", *(f"    {line}" for line in lines)]
        return [*lines, f"return {exact}"]


def _tuple(items: Sequence[str]) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _group_key(gen: KernelSource, columns: Sequence[str]) -> str:
    cells = [gen.column(name) for name in columns]
    return cells[0] if len(cells) == 1 else _tuple(cells)


def _aggregate_parts(gen: KernelSource, aggregates: Sequence[tuple],
                     slot: Callable[[int], str]):
    """The state slots' initial values, the statements folding row ``r``
    into them (slot *i* is named ``slot(i)``) and each aggregate's
    output expression."""
    inits: list[str] = []
    results: list[str] = []
    plain: list[str] = []
    guarded: dict[Any, tuple[str, str, list[str]]] = {}
    for j, (name, arg) in enumerate(aggregates):
        func = AGGREGATES[name]
        names = {f"s{i}": slot(len(inits) + i) for i in range(len(func.slots))}
        inits += func.slots
        results.append(func.result.format(**names))
        if not func.ignores_null:
            plain += func.advance.format(**names).splitlines()
            continue
        key = arg.name if isinstance(arg, Col) else j
        if key not in guarded:
            guarded[key] = (gen.temp(), arg.emit(gen), [])
        value, _, body = guarded[key]
        body += func.advance.format(v=value, **names).splitlines()
    lines = []
    for value, source, body in guarded.values():
        lines += [f"{value} = {source}", f"if {value} is not None:",
                  *(f"    {line}" for line in body)]
    return inits, lines + plain, results


def _hash_aggregate(gen: KernelSource, keys: Sequence[str],
                    aggregates: Sequence[tuple]) -> tuple[list[str], list[str]]:
    inits, advance, results = _aggregate_parts(gen, aggregates, "s[{}]".format)
    state = "[" + ", ".join(inits) + "]"
    finals = "".join(f"{result}, " for result in results)
    row = f"(k, {finals})" if len(keys) == 1 else f"k + ({finals})"
    finish = ["if rows is None:"]
    if not keys:
        finish.append(f"    if not groups: groups[()] = {state}")
    finish.append(f"    return [{row} for k, s in groups.items()]")
    loop = ["get = groups.get", "for r in rows:", f"    k = {_group_key(gen, keys)}",
            "    s = get(k)", "    if s is None:", f"        s = groups[k] = {state}",
            *(f"    {line}" for line in advance)]
    return finish, loop


def _sort_aggregate(gen: KernelSource, keys: Sequence[str], heads: Sequence[str],
                    aggregates: Sequence[tuple]) -> tuple[list[str], list[str]]:
    inits, advance, results = _aggregate_parts(gen, aggregates, "_s{}".format)
    slots = [f"_s{i}" for i in range(len(inits))]
    carried = ", ".join(["key", "head", *slots])
    none = gen.const(_NO_GROUP)
    row = "head + " + _tuple(results)
    if list(heads) != list(keys):
        head = _tuple([gen.column(name) for name in heads])
    else:
        head = "(k, )" if len(keys) == 1 else "k"
    finish = [f"{carried} = carry or {_tuple([none, '()', *inits])}",
              "if rows is None:",
              f"    return [{row}]" if not heads
              else f"    return [] if key is {none} else [{row}]"]
    loop = ["out = []", "for r in rows:", f"    k = {_group_key(gen, keys)}",
            "    if k != key:", f"        if key is not {none}:",
            f"            out.append({row})", "        key = k", f"        head = {head}",
            *(f"        {name} = {value}" for name, value in zip(slots, inits)),
            *(f"    {line}" for line in advance),
            f"carry[:] = {carried}", "return out"]
    return finish, loop


def kernel_source(shape: str, spec: Sequence, schema) -> tuple[str, dict[str, Any]]:
    """The source of the *shape* kernel over *spec* against *schema*,
    and the globals it runs in."""
    gen = KernelSource(schema)
    state = ""
    if shape == FILTER:
        (predicate,) = spec
        finish, loop = [], gen.two_passes(
            lambda: f"[r for r in rows if {predicate.emit(gen)}]")
    elif shape == COMPUTE:
        finish, loop = [], gen.two_passes(
            lambda: "[r + (" + "".join(f"{e.emit(gen)}, " for e in spec)
            + ") for r in rows]")
    elif shape == HASH_AGGREGATE:
        state = ", groups"
        finish, loop = _hash_aggregate(gen, *spec)
    elif shape == SORT_AGGREGATE:
        state = ", carry"
        finish, loop = _sort_aggregate(gen, *spec)
    else:
        raise ValueError(f"unknown kernel shape {shape!r}")
    lines = [f"def kernel(rows, binds{state}):",
             *(f"    {line}" for line in [*finish, *gen.prologue, *loop])]
    return "\n".join(lines) + "\n", gen.namespace


def compile_kernel(shape: str, spec: Sequence, schema) -> Kernel:
    source, namespace = kernel_source(shape, spec, schema)
    exec(compile(source, f"<{shape} kernel>", "exec"), namespace)
    return namespace["kernel"]


class KernelCache:
    """Thread-safe process-global LRU of generated kernels."""

    #: Kernels kept before the least recently used is dropped.
    CAPACITY = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cache: OrderedDict = OrderedDict()
        self.kernels_compiled = 0
        self.kernel_cache_hits = 0
        self.kernel_fallbacks = 0

    def get(self, shape: str, spec: Sequence, schema) -> Kernel:
        """The *shape* kernel over *spec* against *schema*."""
        try:
            key = (shape, tuple(spec), tuple(schema.names))
            hash(key)
        except TypeError:
            key = None  # unhashable payload (e.g. Const([...])) → uncached
        if key is not None:
            with self._lock:
                fn = self._cache.get(key)
                if fn is not None:
                    self._cache.move_to_end(key)
                    self.kernel_cache_hits += 1
                    return fn
        fn = compile_kernel(shape, spec, schema)  # outside the lock
        with self._lock:
            self.kernels_compiled += 1
            if key is not None:
                self._cache[key] = fn
                if len(self._cache) > self.CAPACITY:
                    self._cache.popitem(last=False)
        return fn

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()

    def count_fallback(self) -> None:
        with self._lock:
            self.kernel_fallbacks += 1


#: The process-global kernel cache (one per serving process / pool worker).
KERNELS = KernelCache()


def kernel_stats() -> dict[str, int]:
    """Kernel telemetry counters, flat and picklable.

    Process-global (not per-session): surfaced once by
    ``QuerySession.stats()`` and ``QueryServer.stats()``.
    """
    return {
        "kernels_compiled": KERNELS.kernels_compiled,
        "kernel_cache_hits": KERNELS.kernel_cache_hits,
        "kernel_fallbacks": KERNELS.kernel_fallbacks,
    }
