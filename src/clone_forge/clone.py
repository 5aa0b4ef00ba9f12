"""Abstract clones: carriers indexed by arity with simultaneous substitution.

Provides the free term clone over a signature, the clone of term operations
of a finite algebra, three built-in clones, and the induced category whose
hom-sets are tuples of carrier elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from .checks import (
    CarrierUnavailable, CheckPolicy, Group, Report, check_law, is_count, is_index, stage_carriers
)
from .fin_cat import Interned


class ContextError(ValueError):
    """A term or an index escapes the variable context it was declared in."""


# The hash-cons tables shared by every term in the process: a Var is keyed by
# its index, an App by its args in its operator's own table, so no key is
# built beside the args tuple the term keeps.  Equal terms are one object.
_VARS: dict[int, "Var"] = {}
_APPS: dict[str, dict[tuple, "App"]] = {}

# FreeClone keeps at most two generations of this many substitution tables.
# Measured on the demo's clone-laws:free-b2e0 job run alone at default flags
# (scripts/demo_jobs.py, Python 3.11, x86-64): peak RSS 39.5 / 40.3 / 44.1 /
# 72.8 MB and 1.82 / 1.51 / 1.39 / 1.27 million _subst calls at N = 256 /
# 1,024 / 4,096 / unbounded; its CPU time and the demo's wall time did not
# move beyond the run-to-run spread.  Each demo job runs in its own child,
# and this job is the largest, so at 1,024 the demo peaks at about 40.6 MB.
MEMO_TABLES = 1024


class Var(Interned):
    """A variable; min_context is the smallest context it lives in.

    Terms are hash-consed: ``Var(i)`` returns the one variable with index i,
    so equal terms are the same object and ``==`` is identity.  Build terms
    only through the ``Var`` and ``App`` constructors.
    """

    __slots__ = ("index", "min_context")
    __match_args__ = ("index",)

    def __new__(cls, index: int) -> "Var":
        if type(index) is not int:  # a bool or a float would hit an int's entry
            raise ContextError(f"variable index {index!r} is not an int")
        t = _VARS.get(index)
        if t is None:
            if index < 0:
                raise ContextError(f"negative variable index {index}")
            t = object.__new__(cls)
            object.__setattr__(t, "index", index)
            object.__setattr__(t, "min_context", index + 1)
            t = _VARS.setdefault(index, t)
        return t

    def __repr__(self) -> str:
        return f"x{self.index}"


class App(Interned):
    """An operator applied to argument terms.

    Hash-consed like ``Var``: ``App(op, args)`` returns the one term with
    that operator and those (already interned) arguments, so ``==`` is
    identity and min_context is computed once per distinct term.
    """

    __slots__ = ("op", "args", "min_context")
    __match_args__ = ("op", "args")

    def __new__(cls, op: str, args) -> "App":
        return _app(op, tuple(args))

    def __repr__(self) -> str:
        if not self.args:
            return self.op
        return f"{self.op}({', '.join(map(repr, self.args))})"


Term = Var | App


def _app(op: str, args: tuple) -> App:
    """The interned App with operator op and this tuple of interned args.

    The one interning path: ``App(...)`` converts its args and calls it, and
    substitution calls it on the args tuple it has just built.
    """
    table = _APPS.get(op)
    if table is None:
        table = _APPS.setdefault(op, {})
    t = table.get(args)
    if t is None:
        t = object.__new__(App)
        object.__setattr__(t, "op", op)
        object.__setattr__(t, "args", args)
        floor = 0
        for a in args:
            if a.min_context > floor:
                floor = a.min_context
        object.__setattr__(t, "min_context", floor)
        t = table.setdefault(args, t)
    return t


class Signature:
    """Operator names with their arities."""

    def __init__(self, operators: dict[str, int]):
        for name, arity in operators.items():
            if not name or not isinstance(name, str):
                raise ValueError(f"bad operator name {name!r}")
            if not is_count(arity):
                raise ValueError(f"bad arity {arity!r} for operator {name!r}")
        self.operators = dict(sorted(operators.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{v}" for k, v in self.operators.items())
        return f"Signature({inner})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self.operators == other.operators


@dataclass(frozen=True)
class Budget:
    """Bounds for enumerating infinite carriers during checks."""

    max_depth: int = 2
    max_arity: int = 3

    def __post_init__(self) -> None:
        if not (is_count(self.max_depth) and is_count(self.max_arity)):
            raise ValueError("budget bounds must be non-negative ints")


def _context_error(t: Term, context: int) -> ContextError:
    return ContextError(
        f"term {t!r} needs a context of at least {t.min_context}, got {context}"
    )


def check_projection(m: int, i: int) -> None:
    """Raise ContextError unless i indexes a projection at arity m."""
    if not is_index(i, m):
        raise ContextError(f"projection index {i!r} outside arity {m}")


def _check_substitution(m: int, n: int, t: Term, us: tuple[Term, ...]) -> None:
    if len(us) != m:
        raise ContextError(f"expected {m} substituends, got {len(us)}")
    if t.min_context > m:
        raise _context_error(t, m)
    for u in us:
        if u.min_context > n:
            raise _context_error(u, n)


def _subst(t: App, us: tuple[Term, ...], done: dict[Term, Term]) -> Term:
    """Replace each x_i in the open App t, which done lacks, by us[i].

    done maps open subterms already substituted along us to their results;
    it is filled in place, so a later call along the same us reuses them.
    Each argument is handled here: a variable is read from us, a closed
    argument, which has no variable to replace, is kept and not stored, and
    an open one is taken from done or substituted by a recursive call.  A
    nested closure here would leave a reference cycle for the collector per
    call.
    """
    args = []
    for a in t.args:
        if type(a) is Var:
            a = us[a.index]
        elif a.min_context:
            r = done.get(a)
            a = _subst(a, us, done) if r is None else r
        args.append(a)
    r = done[t] = _app(t.op, tuple(args))
    return r


def free_iota(m: int, i: int) -> Term:
    """The i-th variable in a context of m variables."""
    check_projection(m, i)
    return Var(i)


def free_mu(m: int, n: int, t: Term, us) -> Term:
    """Simultaneously replace the m variables of t by terms over n variables."""
    us = tuple(us)
    _check_substitution(m, n, t, us)
    if type(t) is Var:
        return us[t.index]
    return t if t.min_context == 0 else _subst(t, us, {})


class Clone:
    """Carriers C_n with substitution mu and projections iota."""

    def elems(self, n: int, budget: Budget | None = None) -> list:
        raise NotImplementedError

    def mu(self, m: int, n: int, t, us):
        raise NotImplementedError

    def iota(self, m: int, i: int):
        raise NotImplementedError


class FreeClone(Clone):
    """Syntax trees over a signature; substitution is literal substitution."""

    def __init__(self, signature: Signature):
        self.signature = signature
        self._layers: dict[int, list[list[Term]]] = {}
        # one table per substituend tuple, open subterm -> its substitution
        # along us, in two generations of at most MEMO_TABLES tables each
        self._mu_young: dict[tuple[Term, ...], dict[Term, Term]] = {}
        self._mu_old: dict[tuple[Term, ...], dict[Term, Term]] = {}

    def elems(self, n: int, budget: Budget | None = None) -> list[Term]:
        depth = (Budget() if budget is None else budget).max_depth
        layers = self._layers.setdefault(n, [[Var(i) for i in range(n)]])
        while len(layers) <= depth:
            # a term is new at this depth when an argument lies in the last layer
            pool = [t for layer in layers for t in layer]
            last = set(layers[-1])
            fresh: list[Term] = []
            for op, arity in self.signature.operators.items():
                if arity == 0:
                    if len(layers) == 1:
                        fresh.append(App(op, ()))
                    continue
                for args in itertools.product(pool, repeat=arity):
                    if not last.isdisjoint(args):
                        fresh.append(App(op, args))
            layers.append(fresh)
        return [t for layer in layers[: depth + 1] for t in layer]

    def mu(self, m, n, t, us):
        us = tuple(us)
        _check_substitution(m, n, t, us)
        if type(t) is Var:
            return us[t.index]
        if t.min_context == 0:
            return t
        # terms are interned, so us hashes and compares by identity.  An
        # entry depends on the subterm and us alone, so dropping a table
        # costs only its rebuild: a table in use moves to the young
        # generation, and a full young generation replaces the old one.
        done = self._mu_young.get(us)
        if done is None:
            done = self._mu_old.pop(us, None)
            if done is None:
                done = {}
            if len(self._mu_young) >= MEMO_TABLES:
                self._mu_old, self._mu_young = self._mu_young, {}
            self._mu_young[us] = done
        # a whole-term hit answers without a call into _subst
        r = done.get(t)
        return _subst(t, us, done) if r is None else r

    def iota(self, m, i):
        return free_iota(m, i)


@dataclass
class FiniteAlgebra:
    """A finite carrier {0..k-1} with operation tables.

    Tables are row-major over argument tuples with the last argument varying
    fastest.
    """

    carrier_size: int
    operations: dict[str, tuple[int, tuple[int, ...]]]

    def __post_init__(self) -> None:
        k = self.carrier_size
        if not is_count(k, 1):
            raise ValueError("carrier must be a non-empty integer size")
        # tables are normalised in a copy, so the caller's dict stays as given
        operations = {}
        for name, (arity, table) in self.operations.items():
            table = tuple(table)
            # a bool or float is named as such, not as out of range
            if type(arity) is not int or any(type(v) is not int for v in table):
                raise ValueError(f"operation {name!r}: non-integer arity or table entry")
            # for k >= 2, k**arity has more than arity bits: a longer arity is
            # rejected before the power is formed
            if (not is_count(arity) or (k > 1 and arity >= len(table).bit_length())
                    or len(table) != k**arity):
                raise ValueError(f"operation {name!r}: table does not match arity")
            if not all(is_index(v, k) for v in table):
                raise ValueError(f"operation {name!r}: value outside carrier")
            operations[name] = (arity, table)
        self.operations = operations


def _columns(fs, k: int, width: int) -> list[int]:
    """Row index into a k-ary table of each of the width columns of fs.

    Column j of the value tables fs is the argument tuple (f[j] for f in fs);
    the index is built one table at a time, last argument varying fastest.
    """
    idx = [0] * width
    for f in fs:
        idx = [i * k + v for i, v in zip(idx, f, strict=True)]
    return idx


class FiniteClone(Clone):
    """Term operations of a finite algebra, as value tables k**n -> k.

    Carriers are generated from projections by closing under the algebra's
    operations; they can grow doubly exponentially, so construction is gated
    by max_arity.  Substitution checks table lengths on a miss of its result
    memo, and builds the column index of each (n, us) once.
    """

    def __init__(self, algebra: FiniteAlgebra, max_arity: int):
        self.algebra = algebra
        self.max_arity = max_arity
        self._carriers: dict[int, list[tuple[int, ...]]] = {}
        self._mu_memo: dict[tuple, tuple[int, ...]] = {}
        # row indices of the columns of us at arity n, keyed by (n, us)
        self._columns_memo: dict[tuple, list[int]] = {}

    def elems(self, n: int, budget: Budget | None = None) -> list[tuple[int, ...]]:
        if n > self.max_arity:
            raise CarrierUnavailable(
                f"carrier C_{n} not constructed: clone was closed up to arity "
                f"{self.max_arity}"
            )
        if n not in self._carriers:
            self._carriers[n] = self._closure(n)
        return list(self._carriers[n])

    def _closure(self, n: int) -> list[tuple[int, ...]]:
        """The projections at arity n closed under the operations, in the
        order found: each round applies every operation to every argument
        tuple of the elements found so far, in product order.

        A value is the operation's table substituted along its argument
        tuple.  A tuple of elements that were all there in the previous round
        gave its value then, so a round substitutes only along the tuples
        holding an element the round before it added.
        """
        elems = [self.iota(n, i) for i in range(n)]
        seen = set(elems)
        old = None  # the elements of the round before; none in the first
        changed = True
        while changed:
            changed = False
            snapshot = list(elems)
            for arity, table in self.algebra.operations.values():
                for fs in itertools.product(snapshot, repeat=arity):
                    if old is not None and old.issuperset(fs):
                        continue
                    cand = self.mu(arity, n, table, fs)
                    if cand not in seen:
                        seen.add(cand)
                        elems.append(cand)
                        changed = True
            old = set(snapshot)
        return elems

    def mu(self, m, n, t, us):
        us = tuple(us)
        if len(us) != m:
            raise ContextError(f"expected {m} substituends, got {len(us)}")
        key = (n, t, us)
        r = self._mu_memo.get(key)
        if r is None:
            k = self.algebra.carrier_size
            if len(t) != k**m:
                raise ContextError(
                    f"value table at arity {m} needs {k**m} entries, got {len(t)}"
                )
            idx = self._columns_memo.get((n, us))
            if idx is None:
                width = k**n
                for u in us:
                    if len(u) != width:
                        raise ContextError(
                            f"substituend at arity {n} needs {width} entries, got {len(u)}"
                        )
                idx = self._columns_memo[n, us] = _columns(us, k, width)
            r = self._mu_memo[key] = tuple(map(t.__getitem__, idx))
        return r

    def iota(self, m, i):
        check_projection(m, i)
        k = self.algebra.carrier_size
        stride = k ** (m - 1 - i)
        return tuple((j // stride) % k for j in range(k**m))


STAR = "*"


class InitialClone(Clone):
    """Carrier C_n = {0..n-1}; substitution selects."""

    def elems(self, n, budget=None):
        return list(range(n))

    def mu(self, m, n, t, us):
        us = tuple(us)
        if len(us) != m or not 0 <= t < m:
            raise ContextError(f"bad substitution instance ({m},{n})")
        return us[t]

    def iota(self, m, i):
        check_projection(m, i)
        return i


class TerminalClone(Clone):
    """Every carrier is a singleton."""

    def elems(self, n, budget=None):
        return [STAR]

    def mu(self, m, n, t, us):
        return STAR

    def iota(self, m, i):
        check_projection(m, i)
        return STAR


class ArrowClone(Clone):
    """Empty carrier at arity 0, singletons above."""

    def elems(self, n, budget=None):
        return [] if n == 0 else [STAR]

    def mu(self, m, n, t, us):
        if n == 0:
            raise ContextError("arity-0 carrier of the arrow clone is empty")
        return STAR

    def iota(self, m, i):
        check_projection(m, i)
        return STAR


_BUILTINS = {
    "initial": InitialClone,
    "terminal": TerminalClone,
    "arrow": ArrowClone,
}


def builtin_clone(name: str) -> Clone:
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin clone {name!r}; have {sorted(_BUILTINS)}")
    return _BUILTINS[name]()


def clone_laws_check(
    clone: Clone, budget: Budget = Budget(), policy: CheckPolicy = CheckPolicy()
) -> Report:
    """Check associativity, projection and right identity of substitution."""
    report = Report()
    carriers = stage_carriers(lambda n: clone.elems(n, budget), budget.max_arity, report)
    mu = clone.mu

    def associativity(l, m, n):
        # a sweep varies zs fastest, so mu(l, m, x, ys) is kept for the last (x, ys)
        prefix = inner = None

        def sides(x, *vals):
            nonlocal prefix, inner
            ys, zs = vals[:l], vals[l:]
            if (x, ys) != prefix:
                inner = mu(l, m, x, ys)
                prefix = (x, ys)
            return mu(m, n, inner, zs), mu(l, n, x, tuple([mu(m, n, y, zs) for y in ys]))

        return sides

    def projection(m, n, i, *xs):
        return mu(m, n, clone.iota(m, i), xs), xs[i]

    def right_identity(m, iotas, x):
        return mu(m, m, x, iotas), x

    report.checks.append(check_law("associativity", policy, "x ys zs lhs rhs", (
        (f"l={l},m={m},n={n}", (),
         [carriers[l], Group([carriers[m]] * l), Group([carriers[n]] * m)],
         associativity(l, m, n))
        for l, m, n in itertools.product(carriers, repeat=3)
    )))
    report.checks.append(check_law("projection", policy, "i xs lhs rhs", (
        (f"m={m},n={n}", (), [list(range(m)), Group([carriers[n]] * m)],
         partial(projection, m, n))
        for m, n in itertools.product(carriers, repeat=2) if m
    )))
    report.checks.append(check_law("right-identity", policy, "x lhs", (
        (f"m={m}", (), [carriers[m]],
         partial(right_identity, m, tuple(clone.iota(m, i) for i in range(m))))
        for m in carriers
    )))
    return report


@dataclass(frozen=True)
class TheoryHom:
    """A morphism src -> dst of the induced theory: dst carrier elements."""

    src: int
    dst: int
    components: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.dst:
            raise ValueError(
                f"hom {self.src}->{self.dst} needs {self.dst} components, "
                f"got {len(self.components)}"
            )


def theory_identity(clone: Clone, m: int) -> TheoryHom:
    return TheoryHom(m, m, tuple(clone.iota(m, i) for i in range(m)))


def theory_compose(clone: Clone, f: TheoryHom, g: TheoryHom) -> TheoryHom:
    """The composite g-then-f; component k is f's k-th component substituted
    along g's components."""
    if g.dst != f.src:
        raise ValueError(f"cannot compose {f.src}->{f.dst} after {g.src}->{g.dst}")
    mu, m, n, us = clone.mu, f.src, g.src, g.components
    # f.dst components by construction, so the constructor's check is skipped
    composite = object.__new__(TheoryHom)
    composite.__dict__.update(
        src=n, dst=f.dst, components=tuple([mu(m, n, comp, us) for comp in f.components])
    )
    return composite


def theory_laws_check(
    clone: Clone,
    bound: int = 3,
    budget: Budget = Budget(),
    policy: CheckPolicy = CheckPolicy(),
    compose_fn=theory_compose,
) -> Report:
    """Associativity and identity laws of theory composition up to bound."""
    report = Report()
    carriers = stage_carriers(lambda n: clone.elems(n, budget), bound, report)

    def associativity(a, b, c, d):
        # a sweep varies h fastest, so f, g and their composite are kept for
        # the last (f, g)
        prefix = f = g = fg = None

        def sides(*vals):
            nonlocal prefix, f, g, fg
            if vals[: d + c] != prefix:
                f = TheoryHom(c, d, vals[:d])
                g = TheoryHom(b, c, vals[d : d + c])
                fg = compose_fn(clone, f, g)
                prefix = vals[: d + c]
            h = TheoryHom(a, b, vals[d + c :])
            return compose_fn(clone, fg, h), compose_fn(clone, f, compose_fn(clone, g, h))

        return sides

    def unit(m, n, *vals):
        f = TheoryHom(m, n, vals)
        left = compose_fn(clone, theory_identity(clone, n), f)
        right = compose_fn(clone, f, theory_identity(clone, m))
        return (left, right), (f, f)

    def homs(m, n):
        return Group([carriers[m]] * n, partial(TheoryHom, m, n))

    report.checks.append(check_law("hom-associativity", policy, "f g h lhs rhs", (
        (f"{a}->{b}->{c}->{d}", (), [homs(c, d), homs(b, c), homs(a, b)],
         associativity(a, b, c, d))
        for a, b, c, d in itertools.product(carriers, repeat=4)
    )))
    report.checks.append(check_law("hom-identity", policy, "f lhs rhs", (
        (f"{m}->{n}", (), [homs(m, n)], partial(unit, m, n))
        for m, n in itertools.product(carriers, repeat=2)
    )))
    return report


def enumerate_theory_homs(
    clone: Clone, m: int, n: int, budget: Budget = Budget(), *, limit: int
) -> tuple[int, list[TheoryHom]]:
    """The size of the hom-set m -> n and its first ``limit`` homs.

    Only the homs returned are built, so the size may be far beyond memory.
    """
    carrier = list(clone.elems(m, budget))
    combos = itertools.islice(itertools.product(carrier, repeat=n), limit)
    return len(carrier) ** n, [TheoryHom(m, n, combo) for combo in combos]


def clone_hom_families(h, src: Clone, dst: Clone, carriers: dict[int, list]) -> dict:
    """clone_hom_check's laws as {law: (names, families)} on the source's carriers.

    A law's samples are seeded by the name it is checked under.
    """

    def iota(m, i):
        return h(m, src.iota(m, i)), dst.iota(m, i)

    def mu(m, n, t, *us):
        return h(n, src.mu(m, n, t, us)), dst.mu(m, n, h(m, t), tuple(h(n, u) for u in us))

    return {
        "iota-preservation": ("m i lhs rhs", (
            (f"m={m}", (m,), [list(range(m))], partial(iota, m)) for m in carriers
        )),
        "mu-preservation": ("t us lhs rhs", (
            (f"m={m},n={n}", (), [carriers[m], Group([carriers[n]] * m)], partial(mu, m, n))
            for m, n in itertools.product(carriers, repeat=2)
        )),
    }


def clone_hom_check(
    h,
    src: Clone,
    dst: Clone,
    budget: Budget = Budget(),
    policy: CheckPolicy = CheckPolicy(),
) -> Report:
    """Check that the family h(m, -) preserves projections and substitution."""
    report = Report()
    carriers = stage_carriers(lambda n: src.elems(n, budget), budget.max_arity, report)
    for law, (names, families) in clone_hom_families(h, src, dst, carriers).items():
        report.checks.append(check_law(law, policy, names, families))
    return report
