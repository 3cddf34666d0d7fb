"""MeatAxe-style structure algorithms: simplicity, chopping, Krull-Schmidt.

Simplicity testing uses Norton's criterion: for a random element z of the
enveloping algebra and an irreducible factor f of its minimal polynomial
with nullity(f(z)) = deg f, one spin of a null vector plus one spin of a
transpose null vector is conclusive.  Randomness only drives the search for
such a witness; reported answers are always verified, so a bad random
stream can at worst raise InconclusiveError, never a wrong verdict.

Indecomposability is decided exactly: E = End(V) is local if and only if
every composition factor of the regular module of E has dimension
dim E/rad(E).  By Wedderburn E/rad(E) = prod M_n(D), whose simple modules
have dimension n dim D against sum n^2 dim D, so only a division algebra
passes.  rad(E) is the annihilator of those factors (the trace-form
shortcut is unsound in characteristic p, so it is not used).  A module
keeps E and the verdict; the summands `decompose` returns carry both.

Splitting reads each endomorphism on the unit vectors e_s that generate
V as a KG-module, the seeds the standard-basis hom solve spins from.  A
G-map phi commutes with the action, so f(phi) e_s = 0 for every seed gives
f(phi) = 0 on V = sum_s KG e_s: the minimal polynomial of phi is the lcm of
the order polynomials of the k seeds, k Krylov chains instead of up to d.
It is unique, so the splitting is the one a full minimal polynomial gives.
The products in E are read on the seed columns too.

Isomorphism is decided exactly when either module is indecomposable: then
some basis map of Hom(V, U) is invertible if V and U are isomorphic at all.
Splitting an endomorphism algebra and comparing two decomposable modules
search random combinations of a basis, then every combination of a span of
at most SCAN_CAP elements (`_span_search`).

The simple modules of a group are the composition factors of its natural
permutation module closed under pairwise tensor products, the smallest
product first (the regular module when the natural module or a needed
product would exceed |G| dimensions).  Berman's theorem fixes in advance
how many classes there are and their End degrees, which stops the search
and certifies its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConsistencyError, InconclusiveError, InputError, _require
from .finite_field import FiniteField
from . import limits
from . import linalg
from . import polynomials as P
from .modrep import Rep, hom_basis_matrices, permutation_module, regular_module, tensor_product
from .perm_group import PermGroup


@dataclass
class SimplicityResult:
    simple: bool
    witness: np.ndarray | None  # rows spanning a proper invariant subspace
    note: str

    def __bool__(self) -> bool:
        return self.simple


@dataclass
class IsoResult:
    isomorphic: bool
    map: np.ndarray | None  # intertwiner source -> target when isomorphic
    reason: str

    def __bool__(self) -> bool:
        return self.isomorphic


@dataclass
class Decomposition:
    module: Rep
    summands: list[tuple[Rep, int]]
    basis: np.ndarray  # rows are the new basis vectors, grouped by summand

    def conjugated_matrices(self) -> list[np.ndarray]:
        field = self.module.field
        C = self.basis.T
        Cinv = linalg.inverse(field, C)
        return [field.mat_mul(field.mat_mul(Cinv, M), C) for M in self.module.matrices]

    def total_dim(self) -> int:
        return sum(W.dim * m for W, m in self.summands)


def _random_algebra_element(field: FiniteField, mats, dim: int, rng) -> np.ndarray:
    z = field.zeros(dim, dim)
    for _ in range(1 + int(rng.integers(0, 3))):
        w = field.identity(dim)
        for _ in range(1 + int(rng.integers(0, 3))):
            w = field.mat_mul(w, mats[int(rng.integers(0, len(mats)))])
        c = 1 + int(rng.integers(0, field.q - 1))
        z = field.add(z, field.mul(np.int64(c), w))
    return z


def _kernel_samples(field: FiniteField, null: np.ndarray, rng, extra: int):
    """First basis row of a kernel plus a few random nonzero combinations."""
    out = [null[0]]
    for _ in range(extra):
        cs = rng.integers(0, field.q, size=null.shape[0]).astype(np.int64)
        v = field.mat_vec(null.T.copy(), cs)
        if v.any():
            out.append(v)
    return out


def _nonzero_vectors(field: FiniteField, dim: int) -> np.ndarray:
    """Every nonzero vector of GF(q)^dim, in increasing order of sum v[i] * q^i."""
    codes = np.arange(1, field.q**dim, dtype=np.int64)
    return (codes[:, None] // field.q ** np.arange(dim, dtype=np.int64)) % field.q


def _projective_points(field: FiniteField, dim: int) -> np.ndarray:
    """One nonzero vector per line of GF(q)^dim, the one whose first nonzero
    coordinate is 1, in the order of `_nonzero_vectors`."""
    vecs = _nonzero_vectors(field, dim)
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    return vecs[lead == 1]


def _exhaustive_simple(field: FiniteField, mats, dim: int):
    """Complete scan: simple iff every nonzero vector generates everything.

    Only called when field.q ** dim <= SCAN_CAP.  One representative per
    projective line suffices since spin(c*v) = spin(v).
    """
    for v in _projective_points(field, dim):
        span = linalg.spin(field, mats, [v])
        if span.dim < dim:
            return False, span.echelon_matrix()
    return True, None


def _norton(field: FiniteField, mats, dim: int, rng):
    """(True, None) if the module is simple, else (False, witness_rows).

    A proper spin of any kernel vector proves reducibility.  The simple
    verdict needs Norton's good case nullity(f(z)) = deg f, which need not
    exist when composition factors repeat, so bad factors still get their
    kernels sampled before moving on.
    """
    if dim == 1:
        return True, None
    if not mats:  # a group without generators: every line is a submodule
        return False, field.identity(dim)[:1]
    mats_t = [np.ascontiguousarray(M.T) for M in mats]
    for k in range(limits.RANDOM_ATTEMPTS):
        if k == 0:
            z = mats[0]  # deterministic first try
        else:
            z = _random_algebra_element(field, mats, dim, rng)
        mu = P.min_poly_mat(field, z)
        for f, _ in P.factor(field, mu):
            fz = P.eval_matrix(field, f, z)
            null = linalg.nullspace(field, fz)
            good = null.shape[0] == P.degree(f)
            extra = 0 if good else 3
            for v in _kernel_samples(field, null, rng, extra):
                span = linalg.spin(field, mats, [v])
                if span.dim < dim:
                    return False, span.echelon_matrix()
            null_t = linalg.nullspace(field, fz.T)
            for w in _kernel_samples(field, null_t, rng, extra):
                span_t = linalg.spin(field, mats_t, [w])
                if span_t.dim < dim:
                    # annihilator of a transpose-invariant subspace is invariant
                    return False, linalg.nullspace(field, span_t.echelon_matrix())
            if good:
                return True, None
    if field.q**dim <= limits.SCAN_CAP:
        return _exhaustive_simple(field, mats, dim)
    raise InconclusiveError(
        "no conclusive Norton witness after %d attempts (dim %d)" % (limits.RANDOM_ATTEMPTS, dim)
    )


def _chop(field: FiniteField, mats, dim: int, rng):
    """Composition factors of a matrix-list module as (mats, dim) pairs."""
    if dim == 0:
        return []
    ok, witness = _norton(field, mats, dim, rng)
    if ok:
        return [(mats, dim)]
    sub = linalg.action_on_subspace(field, witness, mats)
    quo, _ = linalg.action_on_quotient(field, witness, mats)
    k = witness.shape[0]
    return _chop(field, sub, k, rng) + _chop(field, quo, dim - k, rng)


def is_simple(V: Rep, seed: int = 0) -> SimplicityResult:
    """Norton simplicity test; truthy result, with a witness subspace if not."""
    if V.dim == 0:
        raise InputError("simplicity is undefined for the zero module")
    rng = np.random.default_rng(seed)
    ok, witness = _norton(V.field, list(V.matrices), V.dim, rng)
    if ok:
        return SimplicityResult(True, None, "conclusive Norton witness")
    return SimplicityResult(False, witness, "explicit invariant subspace")


def composition_factors(V: Rep, seed: int = 0) -> list[Rep]:
    """Multiset of composition factors, as fresh representations."""
    rng = np.random.default_rng(seed)
    parts = _chop(V.field, list(V.matrices), V.dim, rng)
    reps = [Rep(V.group, V.field, mats, check=False, dim=dim) for mats, dim in parts]
    reps.sort(key=lambda W: W.dim)
    return reps


# ----- endomorphism algebra structure -----


def _algebra_right_mults(field: FiniteField, basis, seeds):
    """Right multiplication matrices of an algebra given by a matrix basis,
    read on the columns `seeds`, on which every element is determined."""
    h = len(basis)
    d = basis[0].shape[0]
    space = linalg.RowSpace(field, d * len(seeds), track=True)
    for b in basis:
        if not space.add(b[:, seeds].reshape(-1)):
            raise ConsistencyError("algebra basis is linearly dependent")
    stack = np.concatenate(basis)  # (h * d, d)
    mults = []
    for b in basis:
        # row j of the products is (basis[j] @ b)[:, seeds], flattened
        residual, coords = space.reduce_rows(field.mat_mul(stack, b[:, seeds]).reshape(h, -1))
        if residual.any():
            raise ConsistencyError("algebra basis is not closed under products")
        mults.append(np.ascontiguousarray(coords.T))
    return mults


def _radical_coords(field: FiniteField, factors) -> np.ndarray:
    """Coordinates of rad(E): elements acting as zero on every factor."""
    Z = np.vstack([np.stack([M.reshape(-1) for M in fmats], axis=1) for fmats, _ in factors])
    return linalg.nullspace(field, Z)  # Z is (sum fdim^2, h)


def algebra_structure(field: FiniteField, basis, seeds, rng) -> tuple[int, int, bool]:
    """(dim E, dim rad E, is E local) for an algebra of matrices, each
    determined by its columns `seeds`.

    Local exactly when every factor of the regular module has dimension
    dim E/rad E (the simple modules of E/rad E = prod M_n(D) have
    dimension n dim D, the quotient sum n^2 dim D).
    """
    h = len(basis)
    if h == 1:
        return 1, 0, True
    mults = _algebra_right_mults(field, basis, seeds)
    factors = _chop(field, mults, h, rng)
    rad_dim = _radical_coords(field, factors).shape[0]
    return h, rad_dim, all(fdim == h - rad_dim for _, fdim in factors)


def end_structure(V: Rep, seed: int = 0) -> tuple[int, int, bool]:
    """(dim End, dim rad End, local?) of a module's endomorphism algebra, kept
    on the module: the verdict is certified, so it does not depend on the seed."""
    if V._structure is None:
        V._structure = algebra_structure(V.field, *V.endomorphisms(), np.random.default_rng(seed))
    return V._structure


def is_indecomposable(V: Rep, seed: int = 0) -> bool:
    if V.dim == 0:
        raise InputError("indecomposability is undefined for the zero module")
    return end_structure(V, seed)[2]


def is_absolutely_indecomposable(V: Rep, seed: int = 0) -> bool:
    h, rad_dim, local = end_structure(V, seed)
    return local and h - rad_dim == 1


def is_absolutely_simple(V: Rep, seed: int = 0) -> bool:
    if not is_simple(V, seed):
        return False
    return len(V.endomorphisms()[0]) == 1


# ----- Krull-Schmidt decomposition -----


def _combo(field: FiniteField, stack: np.ndarray, coeffs) -> np.ndarray:
    """sum_i coeffs[i] * stack[i]: the coefficient row times the stacked basis."""
    flat = stack.reshape(len(stack), -1)
    return field.mat_mul(np.asarray(coeffs)[None], flat).reshape(stack.shape[1:])


def _span_search(field: FiniteField, basis, rng, test):
    """First non-None test(x) over nonzero combinations x of a matrix basis.

    Seeded random combinations come first.  When the span has at most
    SCAN_CAP elements, every combination follows, so None means that none
    passes the test; a larger span raises InconclusiveError instead.
    """
    stack = np.stack(basis)
    h = len(basis)
    for _ in range(limits.RANDOM_ATTEMPTS):
        coeffs = field.rand_codes(rng, h)
        if coeffs.any():
            found = test(_combo(field, stack, coeffs))
            if found is not None:
                return found
    if field.q**h > limits.SCAN_CAP:
        raise InconclusiveError(
            "span search exhausted %d random attempts (span dim %d over %r)"
            % (limits.RANDOM_ATTEMPTS, h, field)
        )
    for coeffs in _nonzero_vectors(field, h):
        found = test(_combo(field, stack, coeffs))
        if found is not None:
            return found
    return None


def _split_by_min_poly(field: FiniteField, phi: np.ndarray, seeds):
    """Generalized eigenspace splitting from a G-endomorphism, if any.

    `seeds` index unit vectors that generate the module; the minimal
    polynomial is read on them alone.  A seed list that does not generate
    yields a divisor of it, whose eigenspaces fall short of the module and
    raise ConsistencyError, or a single factor and no split.
    """
    mu = P.min_poly_mat(field, phi, seeds)
    facs = P.factor(field, mu)
    if len(facs) < 2:
        return None
    pieces = []
    for f, e in facs:
        power = f
        for _ in range(e - 1):
            power = P.mul(field, power, f)
        pieces.append(linalg.nullspace(field, P.eval_matrix(field, power, phi)))
    if sum(piece.shape[0] for piece in pieces) != phi.shape[0]:
        raise ConsistencyError("generalized eigenspaces do not fill the module")
    return pieces


def _try_split(V: Rep, rng):
    """One splitting V = A + B as local row bases, or None if indecomposable,
    which leaves End(V) and its structure solved on V.

    Raises InconclusiveError only when the endomorphism algebra is too big
    to scan and randomized search failed; never returns a wrong None.
    """
    if V.dim == 1 or len(V.endomorphisms()[0]) == 1:  # End(V) is the field
        V._structure = (1, 0, True)
        return None
    field = V.field
    basis, seeds = V.endomorphisms()
    for phi in basis:  # deterministic candidates first
        pieces = _split_by_min_poly(field, phi, seeds)
        if pieces:
            return pieces
    V._structure = algebra_structure(field, basis, seeds, rng)
    if V._structure[2]:
        return None
    # a non-local algebra owns a nontrivial idempotent, whose minimal
    # polynomial x(x - 1) splits, so a complete scan cannot miss
    pieces = _span_search(field, basis, rng, lambda phi: _split_by_min_poly(field, phi, seeds))
    if pieces is None:
        raise ConsistencyError("non-local algebra without nontrivial idempotent")
    return pieces


def _module_key(V: Rep) -> tuple:
    return (V.dim, V.generator_char_polys())


def decompose(V: Rep, seed: int = 0) -> Decomposition:
    """Indecomposable direct summands, with an explicit splitting basis.

    Pieces split depth first, each a fresh Rep carrying its rows in V.  A
    piece that does not split is indecomposable and keeps End and that
    proof; the first invertible basis map of Hom(leaf, rep) decides its
    class.  The multiset of (dimension, multiplicity) pairs is
    seed-independent by the Krull-Schmidt theorem; the basis itself may
    vary with the seed.
    """
    field = V.field
    rng = np.random.default_rng(seed)
    classes: list[tuple[Rep, list]] = []  # (rep, [(leaf rows, leaf -> rep map)])
    root = Rep(V.group, field, V.matrices, check=False, dim=V.dim)  # V itself caches nothing
    work = [(field.identity(V.dim), root)] if V.dim else []
    while work:
        rows, leaf = work.pop()
        pieces = _try_split(leaf, rng)
        if pieces is not None:
            for piece in reversed(pieces):
                mats = linalg.action_on_subspace(field, piece, list(leaf.matrices))
                sub = Rep(V.group, field, mats, check=False, dim=len(piece))
                work.append((field.mat_mul(piece, rows), sub))
            continue
        for rep, members in classes:
            res, _ = _basis_iso(leaf, rep)
            if res:
                members.append((rows, res.map))
                break
        else:
            classes.append((leaf, [(rows, field.identity(leaf.dim))]))
    classes.sort(key=lambda cls: _module_key(cls[0]))
    adjusted = [
        field.mat_mul(linalg.inverse(field, iso).T, r) for _, ms in classes for r, iso in ms
    ]
    basis = np.vstack(adjusted) if adjusted else field.zeros(0, 0)
    return Decomposition(V, [(rep, len(ms)) for rep, ms in classes], basis)


# ----- isomorphism testing -----


def _basis_iso(V: Rep, U: Rep) -> tuple[IsoResult | None, list[np.ndarray]]:
    """Char-poly filter, Hom(V, U) basis and its first invertible map.

    Returns the verdict when these settle it, else (None, basis): then no
    basis map is invertible and dim Hom >= 2, which means "not isomorphic"
    as soon as V or U is indecomposable.
    """
    if V.dim != U.dim:
        return IsoResult(False, None, "different dimensions"), []
    if V.generator_char_polys() != U.generator_char_polys():
        return IsoResult(False, None, "generator characteristic polynomials differ"), []
    field = V.field
    basis = hom_basis_matrices(field, list(V.matrices), list(U.matrices), V.dim, U.dim)
    if not basis:
        return IsoResult(False, None, "no nonzero homomorphisms"), basis
    for M in basis:
        if linalg.is_invertible(field, M):
            return IsoResult(True, M, "invertible basis homomorphism"), basis
    if len(basis) == 1:
        return IsoResult(False, None, "hom space is one-dimensional and singular"), basis
    return None, basis


def is_isomorphic(V: Rep, U: Rep, seed: int = 0) -> IsoResult:
    if V.group != U.group:
        raise InputError("isomorphism test requires modules of the same group")
    if V.field is not U.field:
        raise InputError("isomorphism test requires a common coefficient field")
    if V.dim == U.dim == 0:
        return IsoResult(True, V.field.zeros(0, 0), "zero modules")
    if V is U:
        return IsoResult(True, V.field.identity(V.dim), "identical")
    res, basis = _basis_iso(V, U)
    if res is not None:
        return res
    # For indecomposable V and an isomorphism phi: V -> U, the singular maps
    # form the proper subspace phi * rad End(V), which holds no basis (same
    # with rad End(U) * phi for indecomposable U).
    if end_structure(V, seed)[2] or end_structure(U, seed)[2]:
        return IsoResult(False, None, "no invertible basis map and one side is indecomposable")
    field = V.field
    rng = np.random.default_rng(seed)
    M = _span_search(field, basis, rng, lambda M: M if linalg.is_invertible(field, M) else None)
    if M is None:
        return IsoResult(False, None, "no invertible homomorphism exists")
    return IsoResult(True, M, "invertible combination of basis homomorphisms")


# ----- canonical forms and the set of simple modules -----


def try_canonical_form(V: Rep) -> Rep | None:
    """Least spin-basis presentation of a simple module, if small enough.

    Spins one seed per projective point to a full basis (simple modules are
    cyclic from every nonzero vector) and keeps the matrix tuple that is
    lexicographically least.  Spinning c*v gives the basis c*B, in which the
    action has the same matrices as in B, so the other nonzero seeds add
    nothing.  Independent of the input basis.
    """
    field = V.field
    d = V.dim
    if d == 0 or d > limits.CANONICAL_DIM_CAP or field.q**d > limits.CANONICAL_ORBIT_CAP:
        return None
    mats = list(V.matrices)
    best_key = None
    best = None
    for v in _projective_points(field, d):
        log: list = []
        span = linalg.spin(field, mats, [v], log=log)
        _require(span.dim == d, "canonical form requires a simple module")
        A = _spin_action(log, len(mats), d)
        key = A.reshape(-1).tolist()
        if best_key is None or key < best_key:
            best_key = key
            best = A
    return Rep(V.group, field, list(best), check=False, dim=d)


def _spin_action(log: list, n_mats: int, d: int) -> np.ndarray:
    """Action matrices, stacked, in the raw basis of a full-dimensional logged spin.

    Column j of matrix g holds the raw-basis coordinates of mats[g] @ raw[j]:
    a unit vector when that image joined the basis, else the logged coords.
    """
    A = np.zeros((n_mats, d, d), dtype=np.int64)
    n_raw = 0
    for j, g, coords in log:
        if coords is None:
            if j >= 0:
                A[g, n_raw, j] = 1
            n_raw += 1
        else:
            A[g, : len(coords), j] = coords
    return A


@dataclass
class SimpleSet:
    group: PermGroup
    field: FiniteField
    modules: tuple[Rep, ...]
    end_degrees: tuple[int, ...]
    seed: int = dc_field(default=0)

    def __len__(self) -> int:
        return len(self.modules)

    def index_of(self, W: Rep, seed: int = 0) -> int:
        for i, M in enumerate(self.modules):
            if is_isomorphic(W, M, seed=seed):
                return i
        raise ConsistencyError("module is not isomorphic to any listed simple module")


def _add_new_factors(V: Rep, classes: list[Rep], rng, seed: int) -> None:
    """Append each composition factor of V that is not isomorphic to a listed class."""
    factors = _chop(V.field, list(V.matrices), V.dim, rng)
    for mats, dim in sorted(factors, key=lambda f: f[1]):
        W = Rep(V.group, V.field, mats, check=False, dim=dim)
        if not any(is_isomorphic(W, M, seed=seed) for M in classes):
            classes.append(W)


def _tensor_closure(start: Rep, count: int, seed: int) -> list[Rep] | None:
    """Simple modules from the factors of a faithful module and their products.

    Chops `start`, then W_i (x) W_j (i <= j) of the classes found so far,
    the product of least dimension first, until there are `count` classes.
    Every simple module is a factor of a tensor power of a faithful module
    (Steinberg, Proc. AMS 13, 1962), so when every product has been chopped
    every class has been found.  Returns None as soon as the least product
    not yet chopped has more than |G| dimensions.
    """
    rng = np.random.default_rng(seed)
    classes: list[Rep] = []
    _add_new_factors(start, classes, rng, seed)
    chopped: set[tuple[int, int]] = set()
    while len(classes) < count:
        pairs = [
            (classes[i].dim * classes[j].dim, j, i)
            for j in range(len(classes))
            for i in range(j + 1)
            if (i, j) not in chopped
        ]
        if not pairs:
            break
        dim, j, i = min(pairs)
        if dim > start.group.order:
            return None
        chopped.add((i, j))
        _add_new_factors(tensor_product(classes[i], classes[j]), classes, rng, seed)
    return classes


def simple_modules(G: PermGroup, K: FiniteField, seed: int = 0) -> SimpleSet:
    """All simple KG-modules up to isomorphism, certified by Berman's count.

    The classes come from `_tensor_closure` of the natural permutation
    module, or from chopping the regular module when the natural module or
    a needed tensor product has more than |G| dimensions.  Berman's theorem
    gives the number of classes and the multiset of their End degrees in
    advance (`PermGroup.berman_orbit_lengths`); both must match, which
    certifies that the list is complete and that every End degree is right.
    """
    lengths = G.berman_orbit_lengths(K.p, K.q)
    reps = None
    if G.degree <= G.order:
        reps = _tensor_closure(permutation_module(G, K), len(lengths), seed)
    if reps is None:
        reps = []
        _add_new_factors(regular_module(G, K), reps, np.random.default_rng(seed), seed)
    _require(
        len(reps) == len(lengths),
        "found %d simple modules, Berman's count is %d" % (len(reps), len(lengths)),
    )
    canon = [try_canonical_form(W) for W in reps]
    keys = [() if C is None else tuple(M.tobytes() for M in C.matrices) for C in canon]
    canon = [C or W for C, W in zip(canon, reps)]
    degrees = [len(W.endomorphisms()[0]) for W in canon]
    for W, e in zip(canon, degrees):  # by Schur's lemma End(W) is a field
        W._structure = (e, 0, True)
    _require(
        sorted(degrees) == lengths,
        "End degrees %s differ from Berman's orbit lengths %s" % (sorted(degrees), lengths),
    )
    # the canonical matrices break ties between distinct classes, so the
    # order does not depend on the seed where try_canonical_form applies
    order = sorted(
        range(len(canon)),
        key=lambda i: (canon[i].dim, degrees[i], _module_key(canon[i]), keys[i]),
    )
    return SimpleSet(
        G,
        K,
        tuple(canon[i] for i in order),
        tuple(degrees[i] for i in order),
        seed,
    )
