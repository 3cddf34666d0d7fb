"""Classification of simple and indecomposable modules across field extensions.

A module over GF(p^k) is treated as a descent datum for a module over the
algebraic closure.  The key relation is "lies under": V over K lies under U
over L (K a subfield of L) when U is a direct summand of V extended to L,
equivalently when V is a summand of U restricted to K.  `up_relation`
computes both routes and cross-checks them.  The extension route
decomposes Ext_L V and looks for U among its summand classes.  The
restriction route decomposes nothing: for an indecomposable V, whose End
is local, V is a summand of M exactly when some composite V -> M -> V of
Hom basis maps is invertible (`_is_summand`; Auslander, Reiten & Smalo,
Representation Theory of Artin Algebras, 1995).  Restricting a simple
module to the prime field lands on a single simple class (its trace),
extensions split into one Galois orbit of components, and the absolutely
simple constituents of a simple W live over the extension of degree
dim End(W), in exactly dim End(W) classes.  Summing those fiber sizes
reproduces the number of p-regular conjugacy classes, which this module
checks against an independent count.

Inside one `verify_classification` call, restrictions of scalars,
decompositions, Hom bases, isomorphism tests and simplicity tests are kept
by module content and computed once per distinct input, so each distinct
(module, subfield) pair has one restricted module, which keeps what is
worked out on it; the memo ends with the call.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass

from .errors import ConsistencyError, InconclusiveError, InputError, NotSubfieldError
from .finite_field import FiniteField, automorphisms, embed, make_field
from . import linalg
from .meataxe import (
    SimpleSet,
    decompose,
    end_structure,
    is_indecomposable,
    is_isomorphic,
    is_simple,
    simple_modules,
)
from .modrep import Rep, extend_scalars, frobenius_twist, hom_space, restrict_scalars
from .perm_group import PermGroup


@dataclass
class ModuleFlags:
    simple: bool
    absolutely_simple: bool
    indecomposable: bool
    absolutely_indecomposable: bool


def classify_module(V: Rep, seed: int = 0) -> ModuleFlags:
    """Simplicity and indecomposability of V, absolutely and over its field."""
    if V.dim == 0:
        raise InputError("classification flags are undefined for the zero module")
    simple = _simple(V, seed)
    h, rad_dim, local = end_structure(V, seed=seed)
    return ModuleFlags(
        simple=simple,
        absolutely_simple=simple and h == 1,
        indecomposable=local,
        absolutely_indecomposable=local and h - rad_dim == 1,
    )


# Results keyed by module content; set only while verify_classification runs.
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("classify_memo", default=None)


def _recall(key, compute):
    """compute(), or its stored result when a memo is in scope.

    `key` is a callable, so nothing is hashed outside the scope."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    k = key()
    if k not in memo:
        memo[k] = compute()
    return memo[k]


def _summand_classes(V: Rep, seed: int = 0) -> list[tuple[Rep, int]]:
    return list(
        _recall(
            lambda: ("decompose", seed, V.key()),
            lambda: tuple(decompose(V, seed=seed).summands),
        )
    )


def _iso(V: Rep, U: Rep, seed: int) -> bool:
    return _recall(
        lambda: ("iso", seed, V.key(), U.key()),
        lambda: bool(is_isomorphic(V, U, seed=seed)),
    )


def _simple(V: Rep, seed: int) -> bool:
    return _recall(
        lambda: ("simple", seed, V.key()), lambda: bool(is_simple(V, seed=seed))
    )


def _hom(V: Rep, U: Rep):
    """The basis of Hom(V, U) from `hom_space`, read-only; it does not
    depend on the seed."""

    def solve():
        basis = hom_space(V, U)
        basis.setflags(write=False)
        return basis

    return _recall(lambda: ("hom", V.key(), U.key()), solve)


def _restrict(V: Rep, K: FiniteField) -> Rep:
    """V restricted to the subfield K: one module per distinct (V, K)."""
    return _recall(lambda: ("restrict", V.key(), K), lambda: restrict_scalars(V, K))


def _is_summand(X: Rep, M: Rep) -> bool:
    """Is the indecomposable X a direct summand of M?

    End(X) is local, so its non-units form the ideal rad End(X), and the
    composites g f of f: X -> M and g: M -> X span a two-sided ideal.  X
    is a summand exactly when that ideal holds a unit, that is, when some
    composite of basis maps is invertible.
    """
    field, d = X.field, X.dim
    fs = _hom(X, M)
    if not len(fs):
        return False
    # the (dim M x h d) maps f_i side by side; g times them gives every g f_i
    stacked = fs.transpose(1, 0, 2).reshape(M.dim, -1)
    for g in _hom(M, X):  # stop at the first invertible composite
        composites = field.mat_mul(g, stacked).reshape(d, len(fs), d).transpose(1, 0, 2)
        if any(linalg.is_invertible(field, c) for c in composites):
            return True
    return False


def _check_restriction(V: Rep, W: Rep, seed: int) -> None:
    """Raise ConsistencyError unless V is simple and its restriction to the
    field of the simple module W is a sum of copies of W.

    For a simple W, dim Hom(W, M) = [soc M : W] dim End(W), so M is W^s
    exactly when dim Hom(W, M) dim W = dim End(W) dim M.
    """
    if not _simple(V, seed):
        raise ConsistencyError("a dim %d component over %r is not simple" % (V.dim, V.field))
    M = _restrict(V, W.field)
    h, e = len(_hom(W, M)), len(W.endomorphisms())
    if h * W.dim != e * M.dim:
        raise ConsistencyError(
            "restriction of a dim %d component over %r is not a sum of copies of "
            "the dim %d simple: dim Hom %d, dim End %d" % (V.dim, V.field, W.dim, h, e)
        )


def up_relation(lower: Rep, upper: Rep, seed: int = 0) -> bool:
    """Does the indecomposable `lower` (over K) lie under the indecomposable
    `upper` (over L)?

    Two routes, which must agree.  Extension: `upper` is isomorphic to a
    summand class of the decomposition of `lower` extended to L.
    Restriction: `lower` is a summand of `upper` restricted to K, decided
    by the Hom pairing test of `_is_summand`, which decomposes nothing.  A
    decomposable `lower` or `upper` raises InputError.
    """
    if lower.group != upper.group:
        raise InputError("modules of different groups are never related")
    K, L = lower.field, upper.field
    if K.p != L.p or L.n % K.n != 0:
        return False
    if not (is_indecomposable(lower, seed=seed) and is_indecomposable(upper, seed=seed)):
        raise InputError("lies-under is defined for indecomposable modules; decompose first")
    via_extension = any(
        _iso(W, upper, seed)
        for W, _ in _summand_classes(extend_scalars(lower, L), seed)
    )
    via_restriction = _is_summand(lower, _restrict(upper, K))
    if via_extension != via_restriction:
        raise ConsistencyError(
            "the two characterisations of the lies-under relation disagree"
        )
    return via_extension


@dataclass
class FiberLevel:
    degree: int
    field: FiniteField
    entries: list[tuple[Rep, int]]  # summand class and its multiplicity


def _check_single_galois_orbit(entries, field: FiniteField, seed: int) -> None:
    reps = [W for W, _ in entries]
    reached = set()
    for sigma in automorphisms(field):
        twisted = frobenius_twist(reps[0], sigma)
        for i, W in enumerate(reps):
            if _iso(twisted, W, seed):
                reached.add(i)
                break
        else:
            raise ConsistencyError("a Galois twist left the set of components")
    if reached != set(range(len(reps))):
        raise ConsistencyError("components form more than one Galois orbit")


def fiber(W: Rep, degree: int, seed: int = 0) -> FiberLevel:
    """Components of an indecomposable W extended by a degree-`degree`
    field extension.

    The component classes form a single orbit under the Galois group of the
    extension; this is asserted.
    """
    if degree < 1:
        raise InputError("extension degree must be positive")
    if not is_indecomposable(W, seed=seed):
        raise InputError("fibers are defined for indecomposable modules; decompose first")
    L = make_field(W.field.p, W.field.n * degree)
    entries = _summand_classes(extend_scalars(W, L), seed)
    if not entries:
        raise ConsistencyError("extension of a nonzero module has no components")
    _check_single_galois_orbit(entries, L, seed)
    return FiberLevel(degree, L, entries)


def trace_to_prime_field(V: Rep, seed: int = 0) -> Rep:
    """The simple prime-field module under a simple V: restrict and check
    homogeneity (all components isomorphic, with the dimension balance)."""
    K = V.field
    F = make_field(K.p, 1)
    if not _simple(V, seed):
        raise InputError("trace to the prime field expects a simple module")
    classes = _summand_classes(_restrict(V, F), seed)
    if len(classes) != 1:
        raise ConsistencyError("restriction of a simple module is not homogeneous")
    W, s = classes[0]
    if not _simple(W, seed):
        raise ConsistencyError("restriction components of a simple module must be simple")
    if s * W.dim != K.n * V.dim:
        raise ConsistencyError("dimension balance fails for the restriction")
    return W


def _components_under(U: Rep, K: FiniteField, seed: int):
    """The summand classes of U restricted to the subfield K that lie under
    U, in decomposition order."""
    for V, _ in _summand_classes(_restrict(U, K), seed):
        if up_relation(V, U, seed=seed):
            yield V


def indecomposable_trace(V: Rep, seed: int = 0) -> Rep:
    """The unique indecomposable prime-field module lying under V."""
    if not end_structure(V, seed=seed)[2]:
        raise InputError("the partition map expects an indecomposable module")
    hits = list(_components_under(V, make_field(V.field.p, 1), seed))
    if len(hits) != 1:
        raise ConsistencyError(
            "expected exactly one prime-field component lying under the module, got %d"
            % len(hits)
        )
    return hits[0]


def _splitting_level(X: Rep, m: int, kind: str, defect, seed: int) -> FiberLevel:
    """The degree-m fiber of X, checked to hold m absolutely `kind`
    constituents of multiplicity one; defect(V) names what a constituent
    lacks, or is None."""
    level = fiber(X, m, seed=seed)
    if len(level.entries) != m:
        raise ConsistencyError(
            "expected %d absolutely %s constituents, found %d" % (m, kind, len(level.entries))
        )
    for V, mult in level.entries:
        if mult != 1:
            raise ConsistencyError("constituents above the splitting degree must be multiplicity-free")
        problem = defect(V)
        if problem:
            raise ConsistencyError(problem)
    return level


def splitting_fiber(W: Rep, seed: int = 0) -> FiberLevel:
    """Absolutely simple constituents of a simple prime-field module W.

    They live over the extension of degree m = dim End(W), form m classes
    of multiplicity one and a single Galois orbit; all of this is asserted.
    """
    F = W.field
    if F.n != 1:
        raise InputError("expected a module over the prime field")
    if not _simple(W, seed):
        raise InputError("expected a simple module")

    def defect(V: Rep) -> str | None:
        if not _simple(V, seed):
            return "constituent is not simple"
        if len(V.endomorphisms()) != 1:
            return "constituent is not absolutely simple"
        return None

    m = len(W.endomorphisms())
    return _splitting_level(W, m, "simple", defect, seed)


def indecomposable_splitting_fiber(Y: Rep, seed: int = 0) -> FiberLevel:
    """Absolutely indecomposable constituents of an indecomposable module."""
    F = Y.field
    if F.n != 1:
        raise InputError("expected a module over the prime field")
    h, rad_dim, local = end_structure(Y, seed=seed)
    if not local:
        raise InputError("expected an indecomposable module")

    def defect(V: Rep) -> str | None:
        hV, radV, localV = end_structure(V, seed=seed)
        return None if localV and hV - radV == 1 else "constituent is not absolutely indecomposable"

    return _splitting_level(Y, h - rad_dim, "indecomposable", defect, seed)


def descend_component(U: Rep, K: FiniteField, seed: int = 0) -> Rep:
    """A K-module V lying under an indecomposable U, K a subfield of the
    coefficient field.

    One always exists: U is a summand of its own restriction re-extended.
    Returns the first match among the restriction's components in canonical
    order.
    """
    L = U.field
    if K.p != L.p or L.n % K.n != 0:
        raise NotSubfieldError("target field is not a subfield of the coefficients")
    if not is_indecomposable(U, seed=seed):
        raise InputError("descent is defined for indecomposable modules; decompose first")
    V = next(_components_under(U, K, seed), None)
    if V is None:
        raise ConsistencyError("no restriction component lies under the module")
    return V


@dataclass
class ReportRow:
    index: int
    dim: int
    end_degree: int
    splitting_degree: int
    fiber_size: int


@dataclass
class ClassificationReport:
    p: int
    rows: list[ReportRow]
    total: int
    p_regular_classes: int

    @property
    def agree(self) -> bool:
        return self.total == self.p_regular_classes


def count_absolutely_simple(G: PermGroup, p: int, seed: int = 0) -> ClassificationReport:
    """Count absolutely simple classes over the closure by summing fiber
    sizes of the prime-field simples, then compare with the independent
    p-regular conjugacy class count."""
    F = make_field(p, 1)
    S = simple_modules(G, F, seed=seed)
    rows = []
    total = 0
    for i, W in enumerate(S.modules):
        level = splitting_fiber(W, seed=seed)
        rows.append(
            ReportRow(
                index=i,
                dim=W.dim,
                end_degree=S.end_degrees[i],
                splitting_degree=level.degree,
                fiber_size=len(level.entries),
            )
        )
        total += len(level.entries)
    return ClassificationReport(p, rows, total, G.p_regular_class_count(p))


@dataclass
class ClauseCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    p: int
    bound: int
    clauses: list[ClauseCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


def _clause(name: str, fn) -> ClauseCheck:
    try:
        detail = fn() or "ok"
        return ClauseCheck(name, True, detail)
    except (ConsistencyError, InconclusiveError) as exc:
        return ClauseCheck(name, False, str(exc) or exc.__class__.__name__)


def verify_classification(
    G: PermGroup, p: int, bound: int | None = None, seed: int = 0
) -> VerificationReport:
    """Check the classification statements on one group and prime, through
    field extensions of degree up to `bound` (at least 1)."""
    from . import limits

    bound = limits.DEGREE_BOUND if bound is None else bound
    if bound < 1:
        raise InputError("verification bound must be >= 1, got %d" % bound)
    F = make_field(p, 1)
    S = simple_modules(G, F, seed=seed)
    levels: dict[tuple[int, int], FiberLevel] = {}

    def get_level(i: int, n: int) -> FiberLevel:
        if (i, n) not in levels:
            levels[(i, n)] = fiber(S.modules[i], n, seed=seed)
        return levels[(i, n)]

    def subfield_lattice() -> str:
        checked = 0
        for n in range(1, bound + 1):
            L = make_field(p, n)
            for m in range(1, n + 1):
                K = make_field(p, m)
                if n % m == 0:
                    via = embed(K, L)
                    direct = embed(F, L)
                    through = embed(F, K)
                    for c in range(F.q):
                        a = int(through.apply_codes(c))
                        if int(via.apply_codes(a)) != int(direct.apply_codes(c)):
                            raise ConsistencyError("embedding triangle does not commute")
                    checked += 1
                else:
                    try:
                        embed(K, L)
                    except NotSubfieldError:
                        checked += 1
                    else:
                        raise ConsistencyError(
                            "embedding GF(p^%d) -> GF(p^%d) should not exist" % (m, n)
                        )
        return "%d subfield pairs checked" % checked

    def restriction_homogeneous() -> str:
        # each component restricts to copies of its own simple W, certified
        # by dim Hom(W, Res V) against the known W, with no decomposition
        checked = 0
        for i, W in enumerate(S.modules):
            for n in range(1, bound + 1):
                for V, _ in get_level(i, n).entries:
                    _check_restriction(V, W, seed)
                    checked += 1
        return "%d components restricted and matched" % checked

    def galois_orbits() -> str:
        checked = 0
        for i in range(len(S.modules)):
            for n in range(1, bound + 1):
                get_level(i, n)  # fiber() asserts the single-orbit property
                checked += 1
        return "%d fibers checked" % checked

    def up_both_routes() -> str:
        checked = 0
        top = min(4, bound)
        for i, W in enumerate(S.modules):
            for n in range(1, top + 1):
                # up_relation cross-checks both routes: the extension route
                # reads fiber()'s decomposition of Ext W from the memo, the
                # restriction route pairs Hom(W, Res V) with Hom(Res V, W)
                for V, _ in get_level(i, n).entries:
                    if not up_relation(W, V, seed=seed):
                        raise ConsistencyError("component does not lie over its own simple")
                    checked += 1
                # negative case: components of a different simple never relate
                for j in range(len(S.modules)):
                    if j == i:
                        continue
                    for U, _ in get_level(j, n).entries:
                        if up_relation(W, U, seed=seed):
                            raise ConsistencyError("distinct simples share a component")
                        checked += 1
                    break
        return "%d relation instances checked" % checked

    def fiber_partition() -> str:
        # the splitting fibers of the GF(p) simples partition the absolutely
        # simple classes, so their sizes sum to the p-regular class count
        total = 0
        for i, W in enumerate(S.modules):
            level = splitting_fiber(W, seed=seed)
            for V, _ in level.entries:  # each entry restricts into W's class
                _check_restriction(V, W, seed)
            total += len(level.entries)
        oracle = G.p_regular_class_count(p)
        if total != oracle:
            raise ConsistencyError(
                "absolutely simple count %d != %d p-regular classes" % (total, oracle)
            )
        return "count %d matches the p-regular class count" % total

    def transitivity() -> str:
        checked = 0
        for i in range(len(S.modules)):
            for n in range(1, bound + 1):
                for m in range(1, n):
                    if n % m != 0:
                        continue
                    for V, _ in get_level(i, n).entries:
                        mids = [
                            Vm
                            for Vm, _ in get_level(i, m).entries
                            if up_relation(Vm, V, seed=seed)
                        ]
                        if not mids:
                            raise ConsistencyError(
                                "no intermediate component between degrees %d and %d" % (m, n)
                            )
                        checked += 1
        return "%d factorizations found" % checked

    token = _MEMO.set({})  # one memo for all clauses, gone when the call ends
    try:
        clauses = [
            _clause("subfield-lattice", subfield_lattice),
            _clause("restriction-homogeneous", restriction_homogeneous),
            _clause("galois-orbit", galois_orbits),
            _clause("lies-under-both-routes", up_both_routes),
            _clause("fiber-partition-count", fiber_partition),
            _clause("transitivity", transitivity),
        ]
    finally:
        _MEMO.reset(token)
    return VerificationReport(p, bound, clauses)
