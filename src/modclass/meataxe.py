"""MeatAxe-style structure algorithms: simplicity, chopping, Krull-Schmidt.

Simplicity testing uses Norton's criterion: for a random element z of the
enveloping algebra and an irreducible factor f of its characteristic
polynomial (the same factors as its minimal polynomial's) with
nullity(f(z)) = deg f, one spin of a null vector plus one spin of a
transpose null vector is conclusive.  Chopping a module factors the
characteristic polynomial of its first generator once, at the root of the
chop tree, and hands each part of a split its share (`_chop`).  Norton's
test and splitting along End (below, `_span_search`) are the only Las
Vegas searches, both run by `_las_vegas`: random attempts, then a complete
scan of a space of at most SCAN_CAP elements.  Verdicts are verified, so a
bad random stream can at worst raise InconclusiveError, never a wrong
verdict.  Norton's scan spins one vector per projective point, as the
canonical form of a small simple module does, every point in lockstep
(`linalg.spin_each`).

Indecomposability is decided exactly: E = End(V) is local if and only if
every composition factor of the regular module of E has dimension
dim E/rad(E).  By Wedderburn E/rad(E) = prod M_n(D), whose simple modules
have dimension n dim D against sum n^2 dim D, so only a division algebra
passes.  rad(E) is the annihilator of those factors (the trace-form
shortcut is unsound in characteristic p, so it is not used).  A module
keeps E and the verdict; the summands `decompose` returns carry both, and
`decompose` works on V itself, so V keeps them too.  `end_structure` and
`_span_search` each make their generator from the seed they are given, so
no search shifts the draws of another, and a decomposition depends only on
the module's matrices and the seed, not on what the module already holds.

A permutation module, one whose generators all act by permutation
matrices, splits along the orbits on its unit vectors
(`Rep.point_orbits`, worked out once per module) before any End is
solved: KG e_x = K[orbit of x], so each orbit spans a summand.  A
trivially acting module falls apart into lines, and a sum of two regular
modules into the two.  Each transitive piece then splits along End.

Splitting reads each endomorphism on the unit vectors e_s that generate
V as a KG-module (`Rep.seeds`): the least points of the orbits of a
permutation module, else the seeds that the spin solving End(V) took up,
so V is not spun again for them.  A G-map phi commutes with the action, so
f(phi) e_s = 0 for every seed gives f(phi) = 0 on V = sum_s KG e_s: the
minimal polynomial of phi on V is its minimal polynomial on the span W of
the seeds' k Krylov chains, and so divides the characteristic polynomial
of phi on W, which one spin of k chains gives.  An irreducible factor f
of multiplicity m there has at most that multiplicity in the minimal
polynomial, so ker f(phi)^m is f's generalized eigenspace and the
splitting is the one a full minimal polynomial gives.  The products in E
are read on the seed columns too.

A piece split off along End(V) needs no hom solve of its own: with e the
projection onto it along the other pieces, End(eV) is the corner algebra
eEe of E = End(V) (Lux & Szoke, Exp. Math. 16, 2007), the span of the maps
e phi e read in the piece's coordinates, brought to the hom solver's
canonical basis.  Pieces with equal matrices are the same module, so within
one decomposition identical pieces (the lines of a trivially acting module,
the orbit blocks of a sum of two regular modules) split once and share
their leaves.

Isomorphism is decided exactly.  When either module is indecomposable,
some basis map of Hom(V, U) is invertible if V and U are isomorphic at all.
Otherwise U is decomposed against the classes of V: by Krull-Schmidt they
are isomorphic exactly when the multiplicities agree, and then the two
splitting bases compose to an isomorphism.  Generator characteristic
polynomials serve as sort keys of class representatives.

The simple modules of a group are the composition factors of its natural
permutation module closed under pairwise tensor products, the smallest
product first (the regular module when the natural module or a needed
product would exceed |G| dimensions).  Berman's theorem fixes in advance
how many classes there are and their End degrees, which stops the search
and certifies its result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InconclusiveError, InputError, _require
from .finite_field import FiniteField
from . import limits
from . import linalg
from . import modrep
from . import polynomials as P
from .modrep import Rep, hom_space, permutation_module, regular_module, tensor_product
from .perm_group import PermGroup


@dataclass
class SimplicityResult:
    simple: bool
    witness: np.ndarray | None  # rows spanning a proper invariant subspace

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


def _las_vegas(field: FiniteField, n: int, attempt, scan, what: str):
    """attempt(k) for k < RANDOM_ATTEMPTS until one gives a verdict (not None),
    then the complete scan() of a space of q^n <= SCAN_CAP elements; a larger
    space raises InconclusiveError, so no verdict is ever guessed."""
    for k in range(limits.RANDOM_ATTEMPTS):
        found = attempt(k)
        if found is not None:
            return found
    if field.q**n <= limits.SCAN_CAP:
        return scan()
    msg = "%s found no verdict in %d random attempts (dim %d over %r)"
    raise InconclusiveError(msg % (what, limits.RANDOM_ATTEMPTS, n, field))


def _exhaustive_simple(field: FiniteField, mats, dim: int):
    """Norton's complete scan (q^dim <= SCAN_CAP): simple iff every nonzero
    vector generates everything.  One point per projective line suffices
    since spin(c*v) = spin(v); all are spun in lockstep (`linalg.spin_each`),
    and the witness is the spin of the first whose span falls short."""
    points = _projective_points(field, dim)
    dims, _ = linalg.spin_each(field, mats, points)
    short = np.flatnonzero(dims < dim)
    if not short.size:
        return True, None
    return False, linalg.spin(field, mats, [points[short[0]]]).echelon_matrix()


def _char_factors(field: FiniteField, M: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """The factorization of the characteristic polynomial of M."""
    return P.factor(field, P.char_poly(field, M))


def _norton(field: FiniteField, mats, dim: int, rng, facs=None):
    """(True, None) if the module is simple, else (False, witness_rows).

    An attempt of `_las_vegas` tests z = the first generator, then random
    algebra elements, on the irreducible factors f of the characteristic
    polynomial of z, which are those of its minimal polynomial (Parker
    1984; Holt & Rees 1994); `facs` is that factorization for the first
    generator, when the caller knows it.  A proper spin of any kernel
    vector proves reducibility.  The simple verdict needs Norton's good
    case nullity(f(z)) = deg f, which need not exist when composition
    factors repeat, so bad factors still get their kernels sampled before
    moving on.
    """
    if dim == 1:
        return True, None
    if not mats:  # a group without generators: every line is a submodule
        return False, field.identity(dim)[:1]
    mats_t = [np.ascontiguousarray(M.T) for M in mats]

    def attempt(k):
        if k == 0:
            z = mats[0]
            factors = facs if facs is not None else _char_factors(field, z)
        else:
            z = _random_algebra_element(field, mats, dim, rng)
            factors = _char_factors(field, z)
        for f, _ in factors:
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
        return None

    scan = lambda: _exhaustive_simple(field, mats, dim)
    return _las_vegas(field, dim, attempt, scan, "Norton's test")


def _chop(field: FiniteField, mats, dim: int, rng, facs=None):
    """Composition factors of a matrix-list module as (mats, dim) pairs.

    `facs` is the factorization of the characteristic polynomial of the
    first generator, worked out at the root of the chop tree and handed
    down: a split is block triangular, so that polynomial is the product of
    the parts' ones.  The smaller part's own is split over the irreducible
    factors of `facs` by trial division, and the larger part gets the
    multiplicities that are left, so below the root the larger part's
    Krylov chain is never spun and `factor` runs only in random attempts.
    """
    if dim == 0:
        return []
    if facs is None and dim > 1 and mats:
        facs = _char_factors(field, mats[0])
    ok, witness = _norton(field, mats, dim, rng, facs)
    if ok:
        return [(mats, dim)]
    sub = linalg.action_on_subspace(field, witness, mats)
    quo, _ = linalg.action_on_quotient(field, witness, mats)
    k = witness.shape[0]
    sub_facs = quo_facs = None
    if mats:
        small = sub if 2 * k <= dim else quo
        own = P.multiplicities(field, P.char_poly(field, small[0]), [f for f, _ in facs])
        _require(
            all(m <= n for (_, n), m in zip(facs, own)),
            "characteristic polynomial of a part does not divide the module's",
        )
        mine = [(f, m) for (f, _), m in zip(facs, own) if m]
        rest = [(f, n - m) for (f, n), m in zip(facs, own) if n > m]
        sub_facs, quo_facs = (mine, rest) if small is sub else (rest, mine)
    return _chop(field, sub, k, rng, sub_facs) + _chop(field, quo, dim - k, rng, quo_facs)


def is_simple(V: Rep, seed: int = 0) -> SimplicityResult:
    """Norton simplicity test; truthy result, with a witness subspace if not."""
    if V.dim == 0:
        raise InputError("simplicity is undefined for the zero module")
    rng = np.random.default_rng(seed)
    ok, witness = _norton(V.field, list(V.matrices), V.dim, rng)
    return SimplicityResult(ok, witness)


def composition_factors(V: Rep, seed: int = 0) -> list[Rep]:
    """Multiset of composition factors, as fresh representations."""
    rng = np.random.default_rng(seed)
    parts = _chop(V.field, list(V.matrices), V.dim, rng)
    reps = [Rep(V.group, V.field, mats, check=False, dim=dim) for mats, dim in parts]
    reps.sort(key=lambda W: W.dim)
    return reps


# ----- endomorphism algebra structure -----


def _algebra_right_mults(field: FiniteField, basis: np.ndarray, seeds):
    """Right multiplication matrices of an algebra given by an (h, d, d)
    matrix basis, read on the columns `seeds`, on which every element is
    determined."""
    h, d, _ = basis.shape
    space = linalg.RowSpace(field, d * len(seeds), track=True)
    added, _ = space._insert_rows(basis[:, :, list(seeds)].reshape(h, -1))
    if not all(added):
        raise ConsistencyError("algebra basis is linearly dependent")
    stack = basis.reshape(h * d, d)
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
    mults = _algebra_right_mults(field, basis, seeds)
    factors = _chop(field, mults, h, rng)
    rad_dim = _radical_coords(field, factors).shape[0]
    return h, rad_dim, all(fdim == h - rad_dim for _, fdim in factors)


def end_structure(V: Rep, seed: int = 0) -> tuple[int, int, bool]:
    """(dim End, dim rad End, local?) of a module's endomorphism algebra, kept
    on the module: the verdict is certified, so it does not depend on the
    seed.  The one writer of ``V._structure`` besides Schur's lemma in
    `simple_modules`.

    When every generator acts as the identity, End is the full matrix
    algebra M_d(K), read off without solving for its d^2 unit maps; a line
    and a module whose End is the field are local with no random draw."""
    if V._structure is None:
        d = V.dim
        if d == 1 or all(np.array_equal(M, V.field.identity(d)) for M in V.matrices):
            V._structure = (d * d, 0, d == 1)
        elif len(V.endomorphisms()) == 1:  # End(V) is the field
            V._structure = (1, 0, True)
        else:
            rng = np.random.default_rng(seed)
            V._structure = algebra_structure(V.field, V.endomorphisms(), V.seeds(), rng)
    return V._structure


def is_indecomposable(V: Rep, seed: int = 0) -> bool:
    """Whether End(V) is local; a permutation module with more than one
    orbit is decomposable (as in :func:`_try_split`), so it needs no End."""
    if V.dim == 0:
        raise InputError("indecomposability is undefined for the zero module")
    if V.point_orbits is not None and len(V.point_orbits) > 1:
        return False
    return end_structure(V, seed)[2]


def is_absolutely_indecomposable(V: Rep, seed: int = 0) -> bool:
    if not is_indecomposable(V, seed):
        return False
    h, rad_dim, _ = end_structure(V, seed)
    return h - rad_dim == 1


def is_absolutely_simple(V: Rep, seed: int = 0) -> bool:
    if not is_simple(V, seed):
        return False
    return len(V.endomorphisms()) == 1


# ----- Krull-Schmidt decomposition -----


def _combo(field: FiniteField, stack: np.ndarray, coeffs) -> np.ndarray:
    """sum_i coeffs[i] * stack[i]: the coefficient row times the stacked basis."""
    flat = stack.reshape(len(stack), -1)
    return field.mat_mul(np.asarray(coeffs)[None], flat).reshape(stack.shape[1:])


def _span_search(field: FiniteField, basis: np.ndarray, seed: int, test):
    """First non-None test(x) over nonzero combinations x of an (h, m, n)
    matrix basis.

    Random combinations drawn from the seed are the attempts of
    `_las_vegas`, every combination its scan: None means that none passes
    the test, and a span of more than SCAN_CAP elements raises
    InconclusiveError instead.
    """
    h = len(basis)
    rng = np.random.default_rng(seed)

    def test_combo(coeffs):
        return test(_combo(field, basis, coeffs)) if coeffs.any() else None

    def scan():
        found = map(test_combo, _nonzero_vectors(field, h))
        return next((x for x in found if x is not None), None)

    attempt = lambda _: test_combo(field.rand_codes(rng, h))
    return _las_vegas(field, h, attempt, scan, "span search")


def _split_by_char_poly(field: FiniteField, phi: np.ndarray, seeds):
    """Generalized eigenspace splitting from a G-endomorphism, if any.

    `seeds` index unit vectors that generate the module; the characteristic
    polynomial is read on the span W of their Krylov chains alone.  An
    irreducible factor f of multiplicity m there has at most multiplicity m
    in the minimal polynomial, which is the same on W as on the module, so
    ker f(phi)^m is f's generalized eigenspace.  A seed list that does not
    generate yields eigenspaces that fall short of the module and raise
    ConsistencyError, or a single factor and no split.
    """
    facs = P.factor(field, P.char_poly(field, phi, seeds))
    if len(facs) < 2:
        return None
    pieces = []
    for f, m in facs:
        power = f
        for _ in range(m - 1):
            power = P.mul(field, power, f)
        pieces.append(linalg.nullspace(field, P.eval_matrix(field, power, phi)))
    if sum(piece.shape[0] for piece in pieces) != phi.shape[0]:
        raise ConsistencyError("generalized eigenspaces do not fill the module")
    return pieces


def _submodule(V: Rep, rows: np.ndarray) -> Rep:
    """The submodule of V spanned by the invariant row basis `rows`, in its coordinates."""
    mats = linalg.action_on_subspace(V.field, rows, list(V.matrices))
    return Rep(V.group, V.field, mats, check=False, dim=len(rows))


def _projections(field: FiniteField, pieces) -> list[np.ndarray]:
    """The projections pi_i onto the pieces of a direct sum along the others,
    in piece coordinates: the blocks of rows of C^-1, C = [p_1^T | p_2^T | ...]."""
    Cinv = linalg.inverse(field, np.concatenate(pieces).T)
    return np.split(Cinv, np.cumsum([len(p) for p in pieces])[:-1])


# The corner products take End(V) in chunks of at most this many cells
# (and one map at a time above it), so they never stack the whole basis.
_CORNER_CELLS = 1 << 20


def _split_with_corners(V: Rep, pieces):
    """The submodules P_i spanned by the row bases `pieces` of a splitting of
    V, as (rows, P_i) pairs, each with End(P_i) read off End(V).

    The projection e_i = p_i^T pi_i onto P_i along the other pieces is an
    idempotent of E = End(V), and End(P_i) is the corner algebra e_i E e_i
    (Fitting), in piece coordinates the span of pi_i phi p_i^T over the
    basis of E.  Its canonical basis is checked to intertwine.
    """
    field, d = V.field, V.dim
    basis = V.endomorphisms()
    projs = _projections(field, pieces)
    spans: list[list[np.ndarray]] = [[] for _ in pieces]
    m = max(1, _CORNER_CELLS // (d * d))
    for start in range(0, len(basis), m):
        chunk = basis[start : start + m]
        n = len(chunk)
        for rows, pi, span in zip(pieces, projs, spans):
            k = len(rows)
            right = field.mat_mul(chunk.reshape(n * d, d), np.ascontiguousarray(rows.T))
            left = field.mat_mul(pi, right.reshape(n, d, k).transpose(1, 0, 2).reshape(d, n * k))
            span.append(left.reshape(k, n, k).transpose(1, 0, 2).reshape(n, k * k))
    out = []
    for rows, span in zip(pieces, spans):
        W = _submodule(V, rows)
        W._end = modrep._canonical_hom_basis(np.concatenate(span), W, W)
        W._end.setflags(write=False)
        out.append((rows, W))
    return out


def _try_split(V: Rep, seed: int):
    """One splitting of V into submodules, as (rows in V, submodule) pairs,
    or None if V is indecomposable, which leaves End(V) and its structure
    solved on V.  Pieces split off along End(V) carry their End
    (`_split_with_corners`); orbit pieces of a permutation module do not.

    Raises InconclusiveError only when the endomorphism algebra is too big
    to scan and randomized search failed; never returns a wrong None.
    """
    field = V.field
    orbits = V.point_orbits
    if orbits is not None and len(orbits) > 1:  # KG e_x = K[orbit of x]
        unit = field.identity(V.dim)
        return [(unit[orbit], _submodule(V, unit[orbit])) for orbit in orbits]
    if V.dim == 1 or len(V.endomorphisms()) == 1:  # End(V) is the field
        end_structure(V, seed)
        return None
    basis, seeds = V.endomorphisms(), V.seeds()
    for phi in basis:  # deterministic candidates first
        pieces = _split_by_char_poly(field, phi, seeds)
        if pieces:
            break
    else:
        if end_structure(V, seed)[2]:
            return None
        # a non-local algebra owns a nontrivial idempotent, whose minimal
        # polynomial x(x - 1) splits, so a complete scan cannot miss
        pieces = _span_search(field, basis, seed, lambda phi: _split_by_char_poly(field, phi, seeds))
        if pieces is None:
            raise ConsistencyError("non-local algebra without nontrivial idempotent")
    return _split_with_corners(V, pieces)


def _module_key(V: Rep) -> tuple:
    return (V.dim, V.generator_char_polys())


def decompose(V: Rep, seed: int = 0) -> Decomposition:
    """Indecomposable direct summands, with an explicit splitting basis.

    Pieces split depth first.  A piece split off along End of its parent
    gets its End as the corner algebra of the parent's End, without a hom
    solve; a piece with the same matrices as one split before reuses its
    leaves without splitting again.  A piece that does not split is
    indecomposable and keeps End and that proof; the first invertible basis
    map of Hom(leaf, rep) decides its class.  V is the root piece, so what
    its split works out (End, seeds, orbits, a locality verdict) stays on V.
    The multiset of (dimension, multiplicity) pairs is seed-independent by
    the Krull-Schmidt theorem; the basis may vary with the seed, but every
    split draws from a generator made from the seed alone, so it is the
    same on every call, whatever V already holds.
    """
    return _decompose(V, seed, [])


def _decompose(V: Rep, seed: int, reps: list[Rep]) -> Decomposition:
    """`decompose` with the indecomposable `reps` as its first classes, in the
    order `decompose` returns classes; that order stands when no new class is
    found, and a class no summand joins keeps multiplicity 0."""
    field = V.field
    # key -> (rows of the piece's leaves in the piece, stacked; the leaves).
    # A piece is split after every piece before it in depth-first order is
    # done, so an entry is complete when a copy of its piece looks it up.
    leaves: dict[tuple, tuple[np.ndarray, list[Rep]]] = {}
    stack: list = [(V.key(), V)] if V.dim else []  # (key, piece) to visit, (key, split) to finish
    while stack:
        k, item = stack.pop()
        if isinstance(item, Rep):
            if k in leaves:
                continue
            split = _try_split(item, seed)
            if split is None:
                leaves[k] = (field.identity(item.dim), [item])
                continue
            split = [(rows, W.key(), W) for rows, W in split]
            stack.append((k, [(rows, sk) for rows, sk, _ in split]))
            stack.extend((sk, W) for _, sk, W in reversed(split))
        else:
            parts = [(field.mat_mul(leaves[sk][0], rows), leaves[sk][1]) for rows, sk in item]
            leaves[k] = np.vstack([r for r, _ in parts]), [leaf for _, ls in parts for leaf in ls]

    classes = [(rep, []) for rep in reps]  # (rep, [(leaf rows, leaf -> rep map)])
    placed: dict = {}  # leaf -> (members of its class, its map), for later copies of the leaf
    rows, found = leaves[V.key()] if V.dim else (field.zeros(0, 0), [])
    off = 0
    for leaf in found:
        r = rows[off : off + leaf.dim]
        off += leaf.dim
        if leaf not in placed:
            for rep, members in classes:
                res = _basis_iso(leaf, rep)
                if res:
                    placed[leaf] = members, res.map
                    break
            else:  # a new class, whose representative is this very leaf
                classes.append((leaf, []))
                placed[leaf] = classes[-1][1], field.identity(leaf.dim)
        members, iso = placed[leaf]
        members.append((r, iso))
    classes.sort(key=lambda cls: _module_key(cls[0]))
    adjusted = [
        field.mat_mul(linalg.inverse(field, iso).T, r) for _, ms in classes for r, iso in ms
    ]
    basis = np.vstack(adjusted) if adjusted else field.zeros(0, 0)
    return Decomposition(V, [(rep, len(ms)) for rep, ms in classes], basis)


# ----- isomorphism testing -----


def _basis_iso(V: Rep, U: Rep) -> IsoResult | None:
    """The verdict when a Hom(V, U) basis settles it, else None: no basis
    map is invertible and dim Hom >= 2, which means "not isomorphic" as
    soon as V or U is indecomposable."""
    if V.dim != U.dim:
        return IsoResult(False, None, "different dimensions")
    field = V.field
    basis = hom_space(V, U)
    if not len(basis):
        return IsoResult(False, None, "no nonzero homomorphisms")
    for M in basis:
        if linalg.is_invertible(field, M):
            return IsoResult(True, M, "invertible basis homomorphism")
    if len(basis) == 1:
        return IsoResult(False, None, "hom space is one-dimensional and singular")
    return None


def is_isomorphic(V: Rep, U: Rep, seed: int = 0) -> IsoResult:
    if V.group != U.group:
        raise InputError("isomorphism test requires modules of the same group")
    if V.field is not U.field:
        raise InputError("isomorphism test requires a common coefficient field")
    if V.dim == U.dim == 0:
        return IsoResult(True, V.field.zeros(0, 0), "zero modules")
    if V.key() == U.key():
        return IsoResult(True, V.field.identity(V.dim), "identical")
    res = _basis_iso(V, U)
    if res is not None:
        return res
    # For indecomposable V and an isomorphism phi: V -> U, the singular maps
    # form the proper subspace phi * rad End(V), which holds no basis (same
    # with rad End(U) * phi for indecomposable U).  Only a verdict already
    # on a module is used: solving End for it costs more than decompose.
    if any(W._structure is not None and W._structure[2] for W in (V, U)):
        return IsoResult(False, None, "no invertible basis map and one side is indecomposable")
    # Krull-Schmidt; a new class in U or an empty class of V makes the lists differ
    dv = decompose(V, seed)
    du = _decompose(U, seed, [W for W, _ in dv.summands])
    if [m for _, m in du.summands] != [m for _, m in dv.summands]:
        return IsoResult(False, None, "indecomposable summands differ")
    # both bases conjugate their module into the same block diagonal
    field = V.field
    M = field.mat_mul(du.basis.T, linalg.inverse(field, dv.basis.T))
    for A, B in zip(V.matrices, U.matrices):
        if not np.array_equal(field.mat_mul(M, A), field.mat_mul(B, M)):
            raise ConsistencyError("decomposition bases do not give an isomorphism")
    return IsoResult(True, M, "equal indecomposable summands")


# ----- canonical forms and the set of simple modules -----


def try_canonical_form(V: Rep) -> Rep | None:
    """Least spin-basis presentation of a simple module, if small enough.

    Spins one seed per projective point to a full basis (simple modules are
    cyclic from every nonzero vector), all of them in lockstep
    (`linalg.spin_each`), and keeps the matrix tuple that is
    lexicographically least.  Spinning c*v gives the basis c*B, in which the
    action has the same matrices as in B, so the other nonzero seeds add
    nothing.  Independent of the input basis.
    """
    field = V.field
    d = V.dim
    if d == 0 or d > limits.CANONICAL_DIM_CAP or field.q**d > limits.CANONICAL_ORBIT_CAP:
        return None
    if d == 1:  # the spin basis of the point (1) is the basis itself
        return Rep(V.group, field, V.matrices, check=False, dim=1)
    dims, acts = linalg.spin_each(field, list(V.matrices), _projective_points(field, d), actions=True)
    _require((dims == d).all(), "canonical form requires a simple module")
    keys = acts.reshape(len(acts), -1)
    best = acts[np.lexsort(keys.T[::-1])[0]]
    return Rep(V.group, field, list(best), check=False, dim=d)


@dataclass
class SimpleSet:
    group: PermGroup
    field: FiniteField
    modules: tuple[Rep, ...]
    end_degrees: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.modules)


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
    degrees = [len(W.endomorphisms()) for W in canon]
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
    return SimpleSet(G, K, tuple(canon[i] for i in order), tuple(degrees[i] for i in order))
