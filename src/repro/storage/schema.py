"""Relational schemas.

A :class:`Schema` is an ordered list of :class:`Column` descriptors.  Rows
are plain Python tuples positionally aligned with the schema; the schema
supplies name→position lookup and per-column byte widths used by the
simulated block I/O model (the paper costs everything in 4 KB-block I/O
units, so byte widths matter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Column:
    """A named, typed column with an average storage width in bytes.

    ``avg_size`` feeds ``B(e)`` (blocks of an intermediate result); the
    paper's Example 1 relies on tuple widths of 100/80/40 bytes.
    """

    name: str
    type: str = "int"
    avg_size: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")
        if self.avg_size <= 0:
            raise ValueError(f"column {self.name}: avg_size must be positive")

    def renamed(self, name: str) -> "Column":
        return Column(name, self.type, self.avg_size)


class Schema:
    """An ordered collection of :class:`Column` objects with fast name lookup."""

    __slots__ = ("_columns", "_index", "names", "row_bytes")

    def __init__(self, columns: Iterable[Column]) -> None:
        self._columns: tuple[Column, ...] = tuple(columns)
        #: Column names in order, and the average width of one row in
        #: bytes (min 1) — read per cost estimate, so derived once here.
        self.names: tuple[str, ...] = tuple(c.name for c in self._columns)
        self.row_bytes: int = max(1, sum(c.avg_size for c in self._columns))
        self._index: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if name in self._index:
                raise ValueError(f"duplicate column name {name!r} in schema")
            self._index[name] = i

    # -- container protocol -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __getitem__(self, key) -> Column:
        if isinstance(key, str):
            return self._columns[self._index[key]]
        return self._columns[key]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        return f"Schema({', '.join(c.name for c in self._columns)})"

    def __reduce__(self):
        # Columns only: names, widths and the index are rebuilt on load.
        return (Schema, (self._columns,))

    # -- lookups ------------------------------------------------------------------
    def position(self, name: str) -> int:
        """Index of column *name*; raises ``KeyError`` with a helpful message."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no column {name!r}; schema has {self.names}") from None

    def positions(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.position(n) for n in names)

    def has_all(self, names: Iterable[str]) -> bool:
        return all(n in self._index for n in names)

    # -- construction helpers -----------------------------------------------------
    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to *names*, in the given order."""
        return Schema(self._columns[self.position(n)] for n in names)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join output: our columns followed by *other*'s."""
        return Schema(self._columns + other._columns)

    def rename(self, mapping: dict[str, str]) -> "Schema":
        return Schema(c.renamed(mapping.get(c.name, c.name)) for c in self._columns)

    @staticmethod
    def of(*cols: tuple) -> "Schema":
        """Shorthand: ``Schema.of(("a", "int", 4), ("b",), "c")``."""
        built = []
        for spec in cols:
            if isinstance(spec, str):
                built.append(Column(spec))
            elif isinstance(spec, Column):
                built.append(spec)
            else:
                built.append(Column(*spec))
        return Schema(built)


@dataclass(frozen=True)
class FunctionalDependency:
    """A functional dependency ``determinants → dependents``.

    Used for order-requirement reduction (Simmen-style): once a stream is
    sorted on a set of attributes that functionally determine *x*, adding
    *x* to the sort key is a no-op.  The paper invokes this for Query 3
    ("the functional dependency {ps_partkey, ps_suppkey} → {ps_availqty}
    holds").
    """

    determinants: frozenset[str]
    dependents: frozenset[str]

    def __post_init__(self) -> None:
        if not self.determinants:
            raise ValueError("functional dependency needs at least one determinant")

    @staticmethod
    def key(key_columns: Iterable[str], all_columns: Iterable[str]) -> "FunctionalDependency":
        """FD induced by a candidate key: key → every other column."""
        key_set = frozenset(key_columns)
        return FunctionalDependency(key_set, frozenset(all_columns) - key_set)

    def __repr__(self) -> str:
        lhs = ",".join(sorted(self.determinants))
        rhs = ",".join(sorted(self.dependents))
        return f"FD({lhs} -> {rhs})"
