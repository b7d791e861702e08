"""Self-maps on [0, n) and on the naturals, plus their JSON wire format.

Two representations cover everything the rest of the package reasons about:

* ``FiniteTable`` -- a lookup table on the domain [0, n).
* ``DescribedNatMap`` -- a map on the naturals given by a finite prefix
  table together with one additive shift per residue class: points below
  the prefix length map through the table, and a point ``x`` at or above
  it maps to ``x + shifts[x % modulus]``.

The described form keeps orbit finiteness and orbit intersection decidable
while still expressing successors, finite perturbations of the identity,
pivot maps, and eventually-arithmetic fixed-point structures.

``point_index`` orders the fixed (or the moved) points of either form: the
ones below the prefix are listed, and above it they repeat with the modulus,
so counting them below x and finding the n-th one take constant work.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Collection, Union

from .errors import InvalidMap, OutOfDomain, ParseError


def _check_natural(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidMap(f"{what} must be a natural number, got {value!r}")
    return value


def _cache_hash(sm: object, fields: tuple) -> None:
    """Store the hash of a map's fields once: maps key every orbit cache, and
    rehashing their tuples on each lookup cost most of a cached call.
    Equality still compares the fields."""
    object.__setattr__(sm, "_hash", hash(fields))


@dataclass(frozen=True)
class FiniteTable:
    """A self-map on [0, n) stored as a lookup table."""

    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        n = len(self.table)
        if n == 0:
            raise InvalidMap("a finite table needs at least one entry")
        for i, v in enumerate(self.table):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise InvalidMap(f"table entry {v!r} at {i} is outside [0, {n})")
        _cache_hash(self, (self.table,))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.table)

    def __call__(self, x: int) -> int:
        # len() rather than the size property: this is the oracle's hottest call
        table = self.table
        if not 0 <= x < len(table):
            raise OutOfDomain(f"{x} is outside [0, {len(table)})")
        return table[x]

    def _table_on(self, points: Collection[int]) -> tuple[int, ...]:
        """The table, once every point of ``points`` is shown to lie in
        [0, n): callers then index it, and the graph's arrays, directly, and
        no point is read from an array's end."""
        table = self.table
        n = len(table)
        for x in points:  # a loop: cheaper than min and max on a few points
            if not 0 <= x < n:
                raise OutOfDomain(f"{x} is outside [0, {n})")
        return table

    def iterate(self, x: int, k: int) -> int:
        """Apply the map ``k`` times; ``k = 0`` returns ``x`` unchanged."""
        if not 0 <= x < self.size:
            raise OutOfDomain(f"{x} is outside [0, {self.size})")
        for _ in range(k):
            x = self.table[x]
        return x


@dataclass(frozen=True)
class DescribedNatMap:
    """A self-map on the naturals: finite prefix table + residue-class shifts."""

    prefix: tuple[int, ...] = ()
    modulus: int = 1
    shifts: tuple[int, ...] = (0,)

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "shifts", tuple(self.shifts))
        if not isinstance(self.modulus, int) or self.modulus < 1:
            raise InvalidMap(f"modulus must be a positive integer, got {self.modulus!r}")
        if len(self.shifts) != self.modulus:
            raise InvalidMap(
                f"expected {self.modulus} shifts, got {len(self.shifts)}"
            )
        for i, v in enumerate(self.prefix):
            _check_natural(v, f"prefix entry at {i}")
        n = len(self.prefix)
        for r, c in enumerate(self.shifts):
            if not isinstance(c, int) or isinstance(c, bool):
                raise InvalidMap(f"shift for residue {r} must be an integer")
            # smallest point the shift ever applies to is >= prefix length
            if n + c < 0:
                raise InvalidMap(
                    f"shift {c} for residue {r} maps some natural below zero"
                )
        _cache_hash(self, (self.prefix, self.modulus, self.shifts))

    def __hash__(self) -> int:
        return self._hash

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    def __call__(self, x: int) -> int:
        if not isinstance(x, int) or x < 0:
            raise OutOfDomain(f"{x} is not a natural number")
        if x < len(self.prefix):
            return self.prefix[x]
        return x + self.shifts[x % self.modulus]

    def iterate(self, x: int, k: int) -> int:
        """Apply the map ``k`` times; ``k = 0`` returns ``x`` unchanged."""
        if not isinstance(x, int) or x < 0:
            raise OutOfDomain(f"{x} is not a natural number")
        for _ in range(k):
            x = self(x)
        return x


SelfMap = Union[FiniteTable, DescribedNatMap]


@dataclass(frozen=True)
class PointIndex:
    """The fixed (or the moved) points of a self-map, in increasing order.

    Below ``start`` (the prefix length, or the size of a finite table) they
    are listed in ``head``; at or above it a point belongs exactly when its
    residue modulo ``modulus`` is in ``residues``, so the sequence repeats
    with the modulus.  Both queries are ``bisect`` and ``divmod`` on these
    tuples, so they cost the same at any height.
    """

    head: tuple[int, ...]
    start: int
    modulus: int
    residues: tuple[int, ...]

    @property
    def finite(self) -> bool:
        """True when every such point lies in ``head``."""
        return not self.residues

    def _tail_below(self, x: int) -> int:
        """Naturals below x whose residue is in ``residues``."""
        q, r = divmod(x, self.modulus)
        return q * len(self.residues) + bisect_left(self.residues, r)

    def below(self, x: int) -> int:
        """How many of the points are below x."""
        if x <= self.start:
            return bisect_left(self.head, x)
        return len(self.head) + self._tail_below(x) - self._tail_below(self.start)

    def nth(self, n: int) -> int:
        """The n-th point (0-based); IndexError when there are fewer than n + 1."""
        if 0 <= n < len(self.head):
            return self.head[n]
        if n < 0 or self.finite:
            raise IndexError(f"no such point at index {n}")
        k = n - len(self.head) + self._tail_below(self.start)
        q, i = divmod(k, len(self.residues))
        return q * self.modulus + self.residues[i]


def point_index(sm: SelfMap, fixed: bool) -> PointIndex:
    """Index of the fixed points of ``sm`` (``fixed=True``) or of its moved points."""
    if isinstance(sm, FiniteTable):
        table, modulus, shifts = sm.table, 1, ()
    else:
        table, modulus, shifts = sm.prefix, sm.modulus, sm.shifts
    head = tuple(x for x, v in enumerate(table) if (v == x) == fixed)
    residues = tuple(r for r, c in enumerate(shifts) if (c == 0) == fixed)
    return PointIndex(head, len(table), modulus, residues)


def succ() -> DescribedNatMap:
    """n -> n + 1 on the naturals."""
    return DescribedNatMap((), 1, (1,))


def identity_nat() -> DescribedNatMap:
    """The identity on the naturals."""
    return DescribedNatMap((), 1, (0,))


NAMED_MAPS = {
    "succ": succ,
    "id": identity_nat,
}


def named_map(name: str) -> DescribedNatMap:
    try:
        return NAMED_MAPS[name]()
    except KeyError:
        raise ParseError(f"unknown named map {name!r}") from None


def parse_map(text: bytes | str) -> SelfMap:
    """Parse the JSON map format into a validated self-map.

    ``{"kind": "finite", "size": n, "table": [...]}`` or
    ``{"kind": "nat", "prefix": [...], "modulus": m, "shifts": [...]}``
    (``prefix`` may be omitted when empty).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    return map_from_obj(obj)


def map_from_obj(obj: object) -> SelfMap:
    if not isinstance(obj, dict):
        raise ParseError("map description must be a JSON object")
    kind = obj.get("kind")
    if kind == "finite":
        _require_keys(obj, {"kind", "size", "table"})
        table = obj["table"]
        if not isinstance(table, list):
            raise ParseError("'table' must be a list")
        sm = FiniteTable(tuple(table))
        if obj["size"] != sm.size:
            raise InvalidMap(f"declared size {obj['size']} != table length {sm.size}")
        return sm
    if kind == "nat":
        _require_keys(obj, {"kind", "modulus", "shifts"}, optional={"prefix"})
        prefix = obj.get("prefix", [])
        if not isinstance(prefix, list) or not isinstance(obj["shifts"], list):
            raise ParseError("'prefix' and 'shifts' must be lists")
        return DescribedNatMap(tuple(prefix), obj["modulus"], tuple(obj["shifts"]))
    raise ParseError(f"unknown map kind {kind!r}")


def _require_keys(obj: dict, required: set, optional: set = frozenset()) -> None:
    keys = set(obj)
    missing = required - keys
    extra = keys - required - optional
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    if extra:
        raise ParseError(f"unexpected keys: {sorted(extra)}")


def map_to_obj(sm: SelfMap) -> dict:
    if isinstance(sm, FiniteTable):
        return {"kind": "finite", "size": sm.size, "table": list(sm.table)}
    obj = {"kind": "nat", "modulus": sm.modulus, "shifts": list(sm.shifts)}
    if sm.prefix:
        obj["prefix"] = list(sm.prefix)
    return obj


def serialize_map(sm: SelfMap) -> str:
    """Canonical serialization: sorted keys, defaults omitted, no whitespace."""
    return json.dumps(map_to_obj(sm), sort_keys=True, separators=(",", ":"))
