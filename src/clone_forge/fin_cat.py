"""The category of finite ordinals and all functions between them.

Objects are natural numbers, a morphism m -> n is a table of images into
{0, ..., n-1}.  Block coproducts, the merge/insert/swap generating maps and
exhaustive hom-set enumeration are the combinatorial substrate for every law
checker in this package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

from .checks import LawCheck, Report


class ShapeError(ValueError):
    """A map's endpoints do not match what an operation requires."""


# The hash-cons table shared by every map in the process, keyed by
# (dom, cod, table).  Equal maps are therefore one object.
_MAPS: dict = {}
_INT = frozenset((int,))


class Interned:
    """Base of the hash-consed values, whose ``==`` and hashing are identity.

    A subclass's constructor returns the one object for its arguments, which
    ``__match_args__`` names, and sets its slots with ``object.__setattr__``
    only when it first builds that object; the object is immutable after.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy, deepcopy and unpickling rebuild through the constructor,
        # which hands back the interned value
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


class FinMap(Interned):
    """A total function {0..dom-1} -> {0..cod-1} stored as a tuple of images.

    Maps are hash-consed: ``FinMap(dom, cod, table)`` returns the one map with
    those endpoints and images, so equal maps are the same object and ``==``
    and hashing are identity.  Validation runs once, when a map is first
    built.  Build maps only through the ``FinMap`` constructor.
    """

    __slots__ = ("dom", "cod", "table")
    __match_args__ = ("dom", "cod", "table")

    def __new__(cls, dom: int, cod: int, table=()) -> "FinMap":
        table = tuple(table)
        # bool and float images hash like ints and would hit the interned
        # int map, so the types are checked before the lookup
        if (
            type(dom) is not int
            or type(cod) is not int
            or not _INT.issuperset(map(type, table))
        ):
            raise ShapeError(f"non-integer map data {dom!r}->{cod!r} {list(table)!r}")
        key = (dom, cod, table)
        f = _MAPS.get(key)
        if f is None:
            if dom < 0 or cod < 0:
                raise ShapeError(f"negative endpoints {dom}->{cod}")
            if len(table) != dom:
                raise ShapeError(
                    f"table {list(table)} has length {len(table)}, expected {dom}"
                )
            for pos, img in enumerate(table):
                if not 0 <= img < cod:
                    raise ShapeError(f"image {img} at {pos} outside codomain {cod}")
            f = object.__new__(cls)
            object.__setattr__(f, "dom", dom)
            object.__setattr__(f, "cod", cod)
            object.__setattr__(f, "table", table)
            f = _MAPS.setdefault(key, f)
        return f

    def __call__(self, i: int) -> int:
        return self.table[i]

    def __repr__(self) -> str:
        return f"FinMap({self.dom}->{self.cod} {list(self.table)})"

    def to_json(self) -> dict:
        return {"dom": self.dom, "cod": self.cod, "table": list(self.table)}


def identity(n: int) -> FinMap:
    return FinMap(n, n, tuple(range(n)))


def compose(f: FinMap, g: FinMap) -> FinMap:
    """f followed by g."""
    if f.cod != g.dom:
        raise ShapeError(f"cannot compose {f} with {g}")
    return FinMap(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def compose_all(maps) -> FinMap:
    return reduce(compose, maps)


compose_cached = lru_cache(maxsize=None)(compose)


def coproduct(f: FinMap, g: FinMap) -> FinMap:
    """Block sum: f on the left summand, g shifted onto the right one."""
    table = f.table + tuple(f.cod + v for v in g.table)
    return FinMap(f.dom + g.dom, f.cod + g.cod, table)


@lru_cache(maxsize=None)
def shifted(f: FinMap) -> FinMap:
    """f beside a one-point identity block; memoized, it is built constantly."""
    return coproduct(f, identity(1))


@lru_cache(maxsize=None)
def old(n: int) -> FinMap:
    """The inclusion of n into n+1 that misses the top point."""
    return FinMap(n, n + 1, tuple(range(n)))


def new(n: int) -> FinMap:
    """The top point of n+1, as a map out of 1."""
    return FinMap(1, n + 1, (n,))


@dataclass(frozen=True)
class Generators:
    """The merge, insert and swap maps on the one-point object."""

    c: FinMap
    w: FinMap
    s: FinMap


def generators() -> Generators:
    return Generators(
        c=FinMap(2, 1, (0, 0)),
        w=FinMap(0, 1, ()),
        s=FinMap(2, 2, (1, 0)),
    )


def enumerate_maps(m: int, n: int) -> list[FinMap]:
    """All n**m maps m -> n, tables in lexicographic order.

    The order is a file-format contract: serialized action tables are keyed
    by it.  m = 0 yields exactly the empty map, even when n = 0; n = 0 with
    m > 0 yields nothing.  Each call returns a new list of the maps built
    at the first call for (m, n).
    """
    return list(_maps(m, n))


@lru_cache(maxsize=None)
def _maps(m: int, n: int) -> tuple[FinMap, ...]:
    return tuple(FinMap(m, n, t) for t in itertools.product(range(n), repeat=m))


def symmetric_monoid_diagrams(
    c: FinMap, w: FinMap, s: FinMap
) -> tuple[tuple[str, tuple[FinMap, ...], tuple[FinMap, ...]], ...]:
    """The eight commuting diagrams asked of a merge/insert/swap triple.

    Each entry is (law, leg, leg); a leg composes left to right and the two
    legs of an entry share endpoints.
    """
    i1 = identity(1)
    return (
        ("associativity", (coproduct(c, i1), c), (coproduct(i1, c), c)),
        ("left-unit", (coproduct(w, i1), c), (i1,)),
        ("right-unit", (coproduct(i1, w), c), (i1,)),
        ("merge-after-swap", (s, c), (c,)),
        ("swap-involution", (s, s), (identity(2),)),
        (
            "braid",
            (coproduct(s, i1), coproduct(i1, s), coproduct(s, i1)),
            (coproduct(i1, s), coproduct(s, i1), coproduct(i1, s)),
        ),
        ("insert-swap", (coproduct(w, i1), s), (coproduct(i1, w),)),
        (
            "merge-swap",
            (coproduct(s, i1), coproduct(i1, s), coproduct(c, i1)),
            (coproduct(i1, c), s),
        ),
    )


def check_symmetric_monoid(c: FinMap, w: FinMap, s: FinMap) -> Report:
    """Decide all eight diagrams for a candidate triple by table composition.

    Each diagram is one exhaustive instance; a failed check's witness holds
    the two unequal composites as lhs and rhs.
    """
    for cand, dom, cod in ((c, 2, 1), (w, 0, 1), (s, 2, 2)):
        if (cand.dom, cand.cod) != (dom, cod):
            raise ShapeError(f"expected a {dom}->{cod} map, got {cand}")
    report = Report()
    for law, left, right in symmetric_monoid_diagrams(c, w, s):
        lhs = compose_all(left)
        rhs = compose_all(right)
        witness = None if lhs == rhs else {"lhs": lhs, "rhs": rhs}
        report.checks.append(LawCheck(law, witness is None, "exhaustive", 1, witness))
    return report
