"""Catalog statistics and derived cardinality estimates.

The optimizer's cost model (Section 3.2) needs three quantities:

* ``N(e)`` — expected number of result tuples,
* ``B(e)`` — expected number of blocks,
* ``D(e, s)`` — number of distinct values of attribute set *s*.

:class:`TableStats` stores base-table numbers (either measured from a
materialised table or declared for *stats-only* catalogs that model the
paper's full-size TPC-H tables without materialising 6M rows), and
:class:`StatsView` carries derived statistics through the logical
algebra using System-R style estimation, refined with two pieces of
catalog knowledge:

* **candidate keys** — a join whose equality pairs cover a key of one
  side behaves like a foreign-key lookup, not an independent cross
  filter;
* **column-group distinct counts** — multi-column distincts for
  correlated groups (e.g. TPC-H's ``{l_partkey, l_suppkey}`` has 800K
  combinations, not ``200K × 10K``), the equivalent of the "extended
  statistics" real systems keep.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..core.sort_order import AttributeEquivalence
from .schema import Schema

#: Default disk block size, bytes (the paper assumes 4 KB blocks).
DEFAULT_BLOCK_SIZE = 4096

#: Default sketch precision: 2**10 = 1024 one-byte registers per column.
DEFAULT_SKETCH_PRECISION = 10


class DistinctSketch:
    """Mergeable HLL-style distinct-count sketch.

    ``2**p`` one-byte registers, each holding the maximum leading-zero
    rank observed for hashes routed to it.  Two sketches built over
    different row sets merge by register-wise max, so the merged sketch
    estimates the distinct count of the *union* of the two value sets —
    overlap-aware, unlike summing per-input distinct counts.

    Hashing uses :func:`hashlib.blake2b` over ``repr(value)`` rather
    than the builtin ``hash``: the builtin is salted per process, and
    sketches travel to pool workers inside catalog snapshots, so two
    processes must bucket the same value identically for merges to be
    meaningful.
    """

    __slots__ = ("p", "registers")

    def __init__(self, p: int = DEFAULT_SKETCH_PRECISION,
                 registers: Optional[bytes] = None) -> None:
        if not 4 <= p <= 16:
            raise ValueError("sketch precision must be in [4, 16]")
        self.p = p
        m = 1 << p
        if registers is None:
            self.registers = bytearray(m)
        else:
            if len(registers) != m:
                raise ValueError("register array does not match precision")
            self.registers = bytearray(registers)

    def add(self, value: object) -> None:
        digest = hashlib.blake2b(repr(value).encode("utf-8", "backslashreplace"),
                                 digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        index = h >> (64 - self.p)
        width = 64 - self.p
        rest = h & ((1 << width) - 1)
        rank = width - rest.bit_length() + 1
        if rank > self.registers[index]:
            self.registers[index] = rank

    @staticmethod
    def of_values(values: Iterable[object],
                  p: int = DEFAULT_SKETCH_PRECISION) -> "DistinctSketch":
        sketch = DistinctSketch(p)
        for value in values:
            sketch.add(value)
        return sketch

    def union(self, other: "DistinctSketch") -> "DistinctSketch":
        """Sketch of the union of both value sets (register-wise max)."""
        if self.p != other.p:
            raise ValueError("cannot merge sketches of different precision")
        merged = bytes(max(a, b) for a, b in zip(self.registers, other.registers))
        return DistinctSketch(self.p, merged)

    def estimate(self) -> float:
        """HLL estimate with the linear-counting small-range correction."""
        m = 1 << self.p
        alpha = 0.7213 / (1.0 + 1.079 / m)
        harmonic = 0.0
        zeros = 0
        for r in self.registers:
            harmonic += 2.0 ** -r
            if r == 0:
                zeros += 1
        raw = alpha * m * m / harmonic
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return raw

    def __reduce__(self):
        return (DistinctSketch, (self.p, bytes(self.registers)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistinctSketch(p={self.p}, estimate~{self.estimate():.0f})"


def blocks_for(num_rows: float, row_bytes: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """``B(e)`` from a row count and average row width."""
    if num_rows <= 0:
        return 0
    return max(1, math.ceil(num_rows * row_bytes / block_size))


@dataclass
class TableStats:
    """Statistics of one base table.

    ``distinct`` maps column name → number of distinct values (absent
    columns default to ``num_rows``, i.e. treated as unique).
    ``group_distinct`` optionally maps frozen column-name sets to their
    joint distinct count, for correlated groups.
    """

    num_rows: int
    distinct: dict[str, int] = field(default_factory=dict)
    group_distinct: dict[frozenset, int] = field(default_factory=dict)
    sketches: dict[str, DistinctSketch] = field(default_factory=dict)

    def distinct_of(self, column: str) -> int:
        if self.num_rows == 0:
            return 0
        d = self.distinct.get(column, self.num_rows)
        return max(1, min(d, self.num_rows))

    @staticmethod
    def measure(rows: list[tuple], schema: Schema) -> "TableStats":
        """Exact statistics computed from materialised rows.

        Alongside exact distinct counts, each column gets a
        :class:`DistinctSketch` built from the same distinct value set
        (adding duplicates is idempotent, so hashing only the distinct
        values is both cheaper and identical).  Per-shard and
        per-partition stats therefore carry mergeable sketches for free.
        """
        distinct: dict[str, int] = {}
        sketches: dict[str, DistinctSketch] = {}
        for i, col in enumerate(schema):
            values = {row[i] for row in rows}
            distinct[col.name] = len(values)
            sketches[col.name] = DistinctSketch.of_values(values)
        return TableStats(num_rows=len(rows), distinct=distinct,
                          sketches=sketches)


def measure_shards(rows: list[tuple], schema: Schema,
                   shard_count: int) -> list[TableStats]:
    """Exact per-shard statistics of *shard_count* contiguous row ranges.

    Shard *i* covers rows ``[i·n/k, (i+1)·n/k)`` — the same arithmetic as
    :func:`repro.engine.scans.shard_bounds` — so the optimizer's
    shard-aware placement is priced with the distinct counts and row
    counts each shard will *actually* see, not the uniform ``scaled(1/k)``
    approximation (which is exact on row counts for contiguous shards but
    can be wildly wrong on distincts under clustering skew).
    """
    n = len(rows)
    out = []
    for i in range(shard_count):
        lo = i * n // shard_count
        hi = (i + 1) * n // shard_count
        out.append(TableStats.measure(rows[lo:hi], schema))
    return out


def measure_partitions(rows: list[tuple], schema: Schema, position: int,
                       index_of, num_partitions: int) -> list[TableStats]:
    """Exact per-partition statistics under a value-range partitioning.

    ``index_of(value)`` maps a partition-column value (at tuple
    *position*) to its partition index.  Unlike contiguous shards, range
    partitions skew on *row counts* too, which is what makes measured
    statistics load-bearing for the placement decision.
    """
    buckets: list[list[tuple]] = [[] for _ in range(num_partitions)]
    for row in rows:
        buckets[index_of(row[position])].append(row)
    return [TableStats.measure(bucket, schema) for bucket in buckets]


class StatsView:
    """Derived statistics of an intermediate result (immutable).

    ``keys`` holds candidate keys (frozen column-name sets) known to be
    unique in this result; ``group_distinct`` joint distinct counts for
    specific column groups.  Both refine ``D(e, s)``.
    """

    __slots__ = ("schema", "num_rows", "_distinct", "_eq", "keys", "group_distinct",
                 "_sketches")

    def __init__(self, schema: Schema, num_rows: float,
                 distinct: Mapping[str, float],
                 eq: Optional[AttributeEquivalence] = None,
                 keys: Iterable[frozenset] = (),
                 group_distinct: Optional[Mapping[frozenset, float]] = None,
                 sketches: Optional[Mapping[str, DistinctSketch]] = None) -> None:
        self.schema = schema
        self.num_rows = max(0.0, float(num_rows))
        self._distinct = dict(distinct)
        self._eq = eq
        self.keys = tuple(frozenset(k) for k in keys)
        self.group_distinct = dict(group_distinct or {})
        #: Per-column value-domain sketches.  A sketch bounds the set of
        #: values a column *may* hold, so it survives filters and joins
        #: (which only shrink the domain) and merges under unions.
        self._sketches = dict(sketches or {})

    # -- core quantities ---------------------------------------------------------
    @property
    def N(self) -> float:
        """``N(e)``: expected tuple count."""
        return self.num_rows

    def B(self, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
        """``B(e)``: expected block count at the schema's row width."""
        return blocks_for(self.num_rows, self.schema.row_bytes, block_size)

    def _resolve(self, column: str) -> Optional[str]:
        """Map *column* to a known column via equivalence classes."""
        if column in self._distinct:
            return column
        if self._eq is not None:
            for name in self._distinct:
                if self._eq.same(name, column):
                    return name
        return None

    def distinct_of(self, column: str) -> float:
        """``D(e, {column})`` with equivalence-class fallback."""
        if self.num_rows == 0:
            return 0.0
        name = self._resolve(column)
        d = self._distinct.get(name) if name else None
        if d is None:
            d = self.num_rows
        return max(1.0, min(d, self.num_rows))

    def sketch_of(self, column: str) -> Optional[DistinctSketch]:
        """This column's value-domain sketch, via equivalence classes."""
        if column in self._sketches:
            return self._sketches[column]
        if self._eq is not None:
            for name, sketch in self._sketches.items():
                if self._eq.same(name, column):
                    return sketch
        return None

    def _covers_key(self, columns: set[str]) -> bool:
        """Whether *columns* (eq-resolved) contain a candidate key."""
        resolved = {self._resolve(c) or c for c in columns}
        return any(key <= resolved for key in self.keys)

    def distinct_of_set(self, columns: Iterable[str]) -> float:
        """``D(e, s)``: exact group statistic if declared, ``N`` if the
        set covers a key, independence product otherwise."""
        columns = list(columns)
        if not columns:
            return 1.0
        if self.num_rows == 0:
            return 0.0
        resolved = frozenset(self._resolve(c) or c for c in columns)
        exact = self.group_distinct.get(resolved)
        if exact is not None:
            return max(1.0, min(exact, self.num_rows))
        if self._covers_key(set(columns)):
            return self.num_rows
        product = 1.0
        for c in columns:
            product *= self.distinct_of(c)
            if product >= self.num_rows:
                return self.num_rows
        return max(1.0, min(product, self.num_rows))

    # -- derivation through operators ----------------------------------------------
    def scaled(self, selectivity: float, schema: Optional[Schema] = None) -> "StatsView":
        """Result of a filter with the given selectivity."""
        selectivity = min(1.0, max(0.0, selectivity))
        new_rows = self.num_rows * selectivity
        new_schema = schema or self.schema
        distinct = {c: min(d, new_rows) if new_rows > 0 else 0.0
                    for c, d in self._distinct.items()}
        groups = {g: min(d, new_rows) for g, d in self.group_distinct.items()}
        return StatsView(new_schema, new_rows, distinct, self._eq, self.keys, groups,
                         self._sketches)

    def projected(self, names: Iterable[str]) -> "StatsView":
        names = list(names)
        schema = self.schema.project(names)
        name_set = set(names)
        distinct = {n: self._distinct[n] for n in names if n in self._distinct}
        keys = [k for k in self.keys if k <= name_set]
        groups = {g: d for g, d in self.group_distinct.items() if g <= name_set}
        sketches = {n: self._sketches[n] for n in names if n in self._sketches}
        return StatsView(schema, self.num_rows, distinct, self._eq, keys, groups,
                         sketches)

    def with_eq(self, eq: AttributeEquivalence) -> "StatsView":
        return StatsView(self.schema, self.num_rows, self._distinct, eq,
                         self.keys, self.group_distinct, self._sketches)

    def with_rows(self, num_rows: float) -> "StatsView":
        distinct = {c: min(d, num_rows) for c, d in self._distinct.items()}
        groups = {g: min(d, num_rows) for g, d in self.group_distinct.items()}
        return StatsView(self.schema, num_rows, distinct, self._eq, self.keys, groups,
                         self._sketches)

    def with_keys(self, keys: Iterable[frozenset]) -> "StatsView":
        return StatsView(self.schema, self.num_rows, self._distinct, self._eq,
                         tuple(self.keys) + tuple(frozenset(k) for k in keys),
                         self.group_distinct, self._sketches)

    def join(self, other: "StatsView",
             join_pairs: list[tuple[str, str]],
             eq: Optional[AttributeEquivalence] = None) -> "StatsView":
        """Equi-join estimate: ``N = Nl·Nr / max(D_l(s), D_r(s))`` over the
        pair *sets* (so keys and group statistics engage), with key-based
        output-key propagation."""
        schema = self.schema.concat(other.schema)
        eq = eq or self._eq
        if self.num_rows == 0 or other.num_rows == 0:
            return StatsView(schema, 0.0, {}, eq)
        left_cols = [l for l, _ in join_pairs]
        right_cols = [r for _, r in join_pairs]
        d_left = self.distinct_of_set(left_cols)
        d_right = other.distinct_of_set(right_cols)
        rows = self.num_rows * other.num_rows / max(1.0, d_left, d_right)

        distinct = dict(self._distinct)
        distinct.update(other._distinct)
        for left_col, right_col in join_pairs:
            d = min(self.distinct_of(left_col), other.distinct_of(right_col))
            distinct[left_col] = d
            distinct[right_col] = d
        distinct = {c: min(d, rows) for c, d in distinct.items()}

        # Key propagation: when the pair set covers a key of one side,
        # each row of the *other* side matches at most one row, so the
        # other side's keys remain keys of the join output.
        out_keys: list[frozenset] = []
        if other._covers_key(set(right_cols)):
            out_keys.extend(self.keys)
        if self._covers_key(set(left_cols)):
            out_keys.extend(other.keys)
        groups = dict(self.group_distinct)
        groups.update(other.group_distinct)
        groups = {g: min(d, rows) for g, d in groups.items()}
        sketches = dict(self._sketches)
        sketches.update(other._sketches)
        return StatsView(schema, rows, distinct, eq, out_keys, groups, sketches)

    def union(self, other: "StatsView",
              eq: Optional[AttributeEquivalence] = None) -> "StatsView":
        """Union estimate (left schema wins, columns paired positionally):
        row counts add, and per-column distincts combine by *sketch
        union* when both sides carry a sketch — overlap-aware, so two
        branches over the same value domain no longer double-count — and
        fall back to the no-overlap sum otherwise, capped at the row
        count."""
        rows = self.num_rows + other.num_rows
        rename = dict(zip(self.schema.names, other.schema.names))
        distinct: dict[str, float] = {}
        sketches: dict[str, DistinctSketch] = {}
        for c in self.schema.names:
            no_overlap = self.distinct_of(c) + other.distinct_of(rename[c])
            d = no_overlap
            left = self.sketch_of(c)
            right = other.sketch_of(rename[c])
            if left is not None and right is not None and left.p == right.p:
                merged = left.union(right)
                sketches[c] = merged
                d = min(d, merged.estimate())
            distinct[c] = min(rows, d)
        return StatsView(self.schema, rows, distinct, eq or self._eq,
                         sketches=sketches)

    def grouped(self, group_columns: list[str], schema: Schema) -> "StatsView":
        """Aggregate output: one row per distinct group key (which is, by
        construction, a key of the output)."""
        rows = self.distinct_of_set(group_columns)
        distinct = {c: min(self.distinct_of(c), rows) for c in group_columns}
        sketches = {c: self._sketches[c] for c in group_columns
                    if c in self._sketches}
        return StatsView(schema, rows, distinct, self._eq,
                         [frozenset(group_columns)], {}, sketches)

    @staticmethod
    def of_table(schema: Schema, stats: TableStats,
                 eq: Optional[AttributeEquivalence] = None,
                 keys: Iterable[Iterable[str]] = ()) -> "StatsView":
        distinct = {c.name: float(stats.distinct_of(c.name)) for c in schema}
        key_sets = [frozenset(k) for k in keys]
        groups = {frozenset(g): float(d) for g, d in stats.group_distinct.items()}
        sketches = {c.name: stats.sketches[c.name] for c in schema
                    if c.name in stats.sketches}
        return StatsView(schema, float(stats.num_rows), distinct, eq,
                         key_sets, groups, sketches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatsView(N={self.num_rows:.0f}, cols={self.schema.names})"
