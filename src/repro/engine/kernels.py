"""Generated row kernels and the process-global cache that holds them.

Each operator that evaluates expressions (Filter, Compute and the two
aggregates) runs one generated Python function over a batch's rows,
``kernel(rows, binds)``, in one of three shapes:

* ``filter`` — ``[r for r in rows if P]``;
* ``compute`` — ``[r + (E1, …, Ek) for r in rows]``;
* ``values`` — one list per aggregate argument: ``[E for r in rows]``,
  with a bare column read by ``list(map(itemgetter(i), rows))`` and a
  constant repeated.

The source is written by the expressions themselves
(:meth:`Expression.emit <repro.expr.expressions.Expression.emit>`)
through a :class:`KernelSource`, compiled with ``exec`` once, and cached.
Only names the generator makes, integer column positions and operator
tokens from a fixed table enter the source.  Constant values and
parameter names reach the function as globals; a parameter is a local
read from ``binds`` once per call, and a missing one raises
:class:`~repro.expr.expressions.UnboundParamError` naming it.

:data:`KERNELS` is a process-global LRU keyed by ``(shape, expressions,
schema column names)``.  Expressions are frozen dataclasses (hashable,
structurally equal), so operators of the same shape against the same
schema anywhere in the process share the function, and a parameterized
template compiles once, whatever its values.  Unhashable expressions (a
``Const`` holding a list, say) compile uncached.  The operator builds its
kernel at construction, that is when a plan-cache entry lowers its
operator tree (:mod:`repro.engine.prepared`), so a warm execution
compiles nothing.

Kernels never ride a plan: a plan holds expressions only, so it pickles
as it is, and each process-pool worker compiles the subplans it lowers
through its own :data:`KERNELS`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from ..expr.expressions import Col, Const, Expression, UnboundParamError

#: ``kernel(rows, binds) -> list``.
Kernel = Callable[[list, Mapping[str, Any]], list]

FILTER, COMPUTE, VALUES = "filter", "compute", "values"


def _bound(binds: Mapping[str, Any], name: str) -> Any:
    """The value *binds* gives parameter *name*."""
    try:
        return binds[name]
    except KeyError:
        raise UnboundParamError(
            f"unbound query parameter :{name}; execute the query through a "
            "prepared statement that supplies a binding") from None


class KernelSource:
    """The names one kernel's source may use, handed out while its
    expressions emit: ``r[i]`` for a column, ``_cN`` globals for constants
    and getters, ``_pN`` locals for parameters (read from ``binds`` by a
    line of :attr:`prologue`) and ``_tN`` temporaries."""

    def __init__(self, schema) -> None:
        self.schema = schema
        self.namespace: dict[str, Any] = {"_bound": _bound}
        self.prologue: list[str] = []
        self._params: dict[str, str] = {}
        self._temps = 0

    def column(self, name: str) -> str:
        return f"r[{self.schema.position(name):d}]"

    def const(self, value: Any) -> str:
        name = f"_c{len(self.namespace)}"
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


def _value_list(expr: Expression, gen: KernelSource) -> str:
    if isinstance(expr, Col):
        return f"list(map({gen.const(itemgetter(gen.schema.position(expr.name)))}, rows))"
    if isinstance(expr, Const):
        return f"[{expr.emit(gen)}] * len(rows)"
    return f"[{expr.emit(gen)} for r in rows]"


def kernel_source(shape: str, exprs: Sequence[Expression],
                  schema) -> tuple[str, dict[str, Any]]:
    """The source of the *shape* kernel over *exprs* against *schema*,
    and the globals it runs in."""
    gen = KernelSource(schema)
    if shape == FILTER:
        (predicate,) = exprs
        body = f"[r for r in rows if {predicate.emit(gen)}]"
    elif shape == COMPUTE:
        row = "".join(f"{e.emit(gen)}, " for e in exprs)
        body = f"[r + ({row}) for r in rows]"
    elif shape == VALUES:
        body = "[" + ", ".join(_value_list(e, gen) for e in exprs) + "]"
    else:
        raise ValueError(f"unknown kernel shape {shape!r}")
    lines = ["def kernel(rows, binds):",
             *(f"    {line}" for line in gen.prologue), f"    return {body}"]
    return "\n".join(lines) + "\n", gen.namespace


def compile_kernel(shape: str, exprs: Sequence[Expression], schema) -> Kernel:
    source, namespace = kernel_source(shape, exprs, schema)
    exec(compile(source, f"<{shape} kernel>", "exec"), namespace)
    return namespace["kernel"]


class KernelCache:
    """Thread-safe process-global LRU of generated kernels."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._cache: OrderedDict = OrderedDict()
        self.kernels_compiled = 0
        self.kernel_cache_hits = 0

    def get(self, shape: str, exprs: Sequence[Expression], schema) -> Kernel:
        """The *shape* kernel over *exprs* against *schema*."""
        try:
            key = (shape, tuple(exprs), tuple(schema.names))
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
        fn = compile_kernel(shape, exprs, schema)  # outside the lock
        with self._lock:
            self.kernels_compiled += 1
            if key is not None:
                self._cache[key] = fn
                if len(self._cache) > self.capacity:
                    self._cache.popitem(last=False)
        return fn

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.kernels_compiled = 0
            self.kernel_cache_hits = 0


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
    }


def reset_kernel_stats() -> None:
    """Zero the kernel counters (tests and benchmarks)."""
    KERNELS.reset_stats()
