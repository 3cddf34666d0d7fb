"""Simplicity testing, composition factors, Krull-Schmidt decomposition.

Frozen dimension and endomorphism-degree tables were derived independently
(regular module chops cross-checked by hand against the group algebra
structure) before being fixed here.
"""

import ast
import collections
import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modclass.errors import ConsistencyError, InconclusiveError, InputError
from modclass.finite_field import make_field
from modclass import limits, linalg, meataxe, modrep
from modclass import polynomials as P
from modclass.modrep import (
    Rep,
    direct_sum,
    extend_scalars,
    hom_space,
    induce,
    permutation_module,
    regular_module,
    restrict_subgroup,
    tensor_product,
    trivial_module,
)
from modclass.meataxe import (
    composition_factors,
    decompose,
    end_structure,
    is_absolutely_indecomposable,
    is_absolutely_simple,
    is_indecomposable,
    is_isomorphic,
    is_simple,
    simple_modules,
    try_canonical_form,
)
from modclass.perm_group import PermGroup, catalog, p_subgroups_up_to_conjugacy
from oracles import min_poly_mat

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)


def _fields():
    return {2: F2, 3: F3, 5: F5}


def _conjugated_matrices(dec):
    """The generator matrices of the module in the splitting basis of `dec`."""
    field = dec.module.field
    C = dec.basis.T
    Cinv = linalg.inverse(field, C)
    return [field.mat_mul(field.mat_mul(Cinv, M), C) for M in dec.module.matrices]


def _index_of(S, W, seed=0):
    """The index of the simple module of S isomorphic to W."""
    for i, M in enumerate(S.modules):
        if is_isomorphic(W, M, seed=seed):
            return i
    raise AssertionError("module is not isomorphic to any listed simple module")


def _is_invariant(K, B, mats):
    # the row span of B is invariant when no image M b raises its rank
    images = [K.mat_mul(B, np.ascontiguousarray(M.T)) for M in mats]
    return linalg.rank(K, np.vstack([B] + images)) == linalg.rank(K, B)


# dims and endomorphism degrees of the simple modules, frozen after
# independent derivation
SIMPLES_TABLE = {
    ("C3", 2): ([1, 2], [1, 2]),
    ("C7", 2): ([1, 3, 3], [1, 3, 3]),
    ("S3", 2): ([1, 2], [1, 1]),
    ("S3", 3): ([1, 1], [1, 1]),
    ("A4", 2): ([1, 2], [1, 2]),
    ("A4", 3): ([1, 3], [1, 1]),
    ("D8", 2): ([1], [1]),
    ("Q8", 2): ([1], [1]),
    ("S3", 5): ([1, 1, 2], [1, 1, 1]),
}


def test_regular_c3_is_not_simple_with_witness():
    reg = regular_module(catalog()["C3"], F2)
    res = is_simple(reg)
    assert not res
    W = res.witness
    assert W is not None and 0 < W.shape[0] < 3
    assert _is_invariant(F2, W, list(reg.matrices))
    # the all-ones vector spans the fixed line inside any witness closure
    sp = linalg.RowSpace(F2, 3)
    for row in W:
        sp.add(row)
    if sp.dim == 1:
        assert not sp.reduce_rows(np.array([[1, 1, 1]], dtype=np.int64))[0].any()


def test_one_dimensional_modules_are_simple():
    tr = trivial_module(catalog()["S3"], F2)
    assert is_simple(tr)
    assert is_absolutely_simple(tr)


def test_composition_factor_dims_of_regular_modules():
    table = {
        ("C3", 2): [1, 2],
        ("C7", 2): [1, 3, 3],
        ("S3", 2): [1, 1, 2, 2],
        ("A4", 2): [1, 1, 1, 1, 2, 2, 2, 2],
        ("D8", 2): [1] * 8,
        ("Q8", 2): [1] * 8,
        ("S3", 3): [1, 1, 1, 1, 1, 1],
        ("S3", 5): [1, 1, 2, 2],
    }
    for (name, p), dims in table.items():
        reg = regular_module(catalog()[name], _fields()[p])
        got = sorted(W.dim for W in composition_factors(reg))
        assert got == dims, (name, p, got)


@pytest.mark.parametrize("name, p", sorted(SIMPLES_TABLE))
def test_simple_modules_battery(name, p):
    G = catalog()[name]
    S = simple_modules(G, _fields()[p])
    dims, ends = SIMPLES_TABLE[(name, p)]
    assert [W.dim for W in S.modules] == dims
    assert list(S.end_degrees) == ends
    for W in S.modules:
        assert is_simple(W)
        assert len(W.endomorphisms()) == ends[S.modules.index(W)]


def test_decompose_regular_s3_block_structure():
    reg = regular_module(catalog()["S3"], F2)
    dec = decompose(reg)
    assert sorted((W.dim, m) for W, m in dec.summands) == [(2, 1), (2, 2)]
    conj = _conjugated_matrices(dec)
    off = 0
    for W, m in dec.summands:
        for _ in range(m):
            for Mc, Mw in zip(conj, W.matrices):
                # repeated summands appear as literally identical blocks
                assert np.array_equal(Mc[off : off + W.dim, off : off + W.dim], Mw)
                assert not Mc[off : off + W.dim, : off].any()
                assert not Mc[off : off + W.dim, off + W.dim :].any()
            off += W.dim
    assert off == 6


def test_decompose_regular_a4():
    reg = regular_module(catalog()["A4"], F2)
    dec = decompose(reg)
    assert sorted((W.dim, m) for W, m in dec.summands) == [(4, 1), (8, 1)]
    big = [W for W, _ in dec.summands if W.dim == 8][0]
    assert is_indecomposable(big)
    assert not is_absolutely_indecomposable(big)
    assert end_structure(big) == (6, 4, True)


def test_decompose_is_seed_stable():
    reg = regular_module(catalog()["S3"], F2)
    expected = [(2, 1), (2, 2)]
    for seed in range(10):
        got = sorted((W.dim, m) for W, m in decompose(reg, seed=seed).summands)
        assert got == expected


def test_decompose_random_basis_change():
    rng = np.random.default_rng(11)
    reg = regular_module(catalog()["S3"], F3)
    base = sorted((W.dim, m) for W, m in decompose(reg).summands)
    for _ in range(3):
        T = F3.rand_codes(rng, (6, 6))
        while not linalg.is_invertible(F3, T):
            T = F3.rand_codes(rng, (6, 6))
        Ti = linalg.inverse(F3, T)
        mats = [F3.mat_mul(F3.mat_mul(Ti, M), T) for M in reg.matrices]
        got = sorted((W.dim, m) for W, m in decompose(Rep(catalog()["S3"], F3, mats)).summands)
        assert got == base


def test_regular_c2_is_indecomposable_but_not_simple():
    C2 = catalog()["C2"]
    reg = regular_module(C2, F2)
    assert not is_simple(reg)
    assert is_indecomposable(reg)
    assert is_absolutely_indecomposable(reg)
    assert end_structure(reg) == (2, 1, True)


def test_restriction_of_regular_to_subgroup():
    reg = regular_module(catalog()["S3"], F2)
    H = catalog()["S3"].generated_subgroup([(1, 0, 2)])
    res = restrict_subgroup(reg, H)
    dec = decompose(res)
    # free of rank [G:H] over the subgroup algebra
    assert sorted((W.dim, m) for W, m in dec.summands) == [(2, 3)]


def test_is_isomorphic_positive_and_negative():
    C7 = catalog()["C7"]
    cf = composition_factors(regular_module(C7, F2))
    threes = [W for W in cf if W.dim == 3]
    assert len(threes) == 2
    assert not is_isomorphic(threes[0], threes[1])
    # conjugated copy is isomorphic, with a verified intertwiner
    rng = np.random.default_rng(2)
    T = F2.rand_codes(rng, (3, 3))
    while not linalg.is_invertible(F2, T):
        T = F2.rand_codes(rng, (3, 3))
    Ti = linalg.inverse(F2, T)
    W = threes[0]
    Wc = Rep(C7, F2, [F2.mat_mul(F2.mat_mul(Ti, M), T) for M in W.matrices])
    res = is_isomorphic(W, Wc)
    assert res
    phi = res.map
    for A, B in zip(W.matrices, Wc.matrices):
        assert np.array_equal(F2.mat_mul(phi, A), F2.mat_mul(B, phi))


def test_is_isomorphic_rejects_different_dims_and_groups():
    C3 = catalog()["C3"]
    tr = trivial_module(C3, F2)
    reg = regular_module(C3, F2)
    assert not is_isomorphic(tr, reg)
    with pytest.raises(InputError):
        is_isomorphic(tr, trivial_module(catalog()["S3"], F2))


def test_equal_modules_are_isomorphic_without_a_hom_solve(monkeypatch):
    # separately built modules with equal matrices map by the identity
    S4 = catalog()["S4"]
    simple = simple_modules(S4, F3).modules[-1]
    reg = regular_module(S4, F3)
    pairs = [
        (trivial_module(S4, F3), trivial_module(S4, F3)),
        (simple, Rep(S4, F3, [M.copy() for M in simple.matrices])),
        (reg, Rep(S4, F3, [M.copy() for M in reg.matrices])),
    ]

    def no_hom_solve(*args):
        raise AssertionError("Hom solve between equal modules")

    monkeypatch.setattr(meataxe, "_basis_iso", no_hom_solve)
    for V, U in pairs:
        assert V is not U and V.dim > 0
        res = is_isomorphic(V, U)
        assert res and res.reason == "identical"
        assert np.array_equal(res.map, F3.identity(V.dim))


def test_extension_of_scalars_splits_nonabsolute_simple():
    C3 = catalog()["C3"]
    M2 = [W for W in composition_factors(regular_module(C3, F2)) if W.dim == 2][0]
    assert is_simple(M2) and not is_absolutely_simple(M2)
    ext = extend_scalars(M2, F4)
    dec = decompose(ext)
    assert sorted((W.dim, m) for W, m in dec.summands) == [(1, 1), (1, 1)]
    a, b = dec.summands[0][0], dec.summands[1][0]
    assert not is_isomorphic(a, b)


def test_direct_sum_decomposes_to_parts():
    S3 = catalog()["S3"]
    tr = trivial_module(S3, F2)
    S = simple_modules(S3, F2)
    M = S.modules[1]
    V = direct_sum(direct_sum(tr, M), M)
    dec = decompose(V)
    assert sorted((W.dim, m) for W, m in dec.summands) == [(1, 1), (2, 2)]


def test_canonical_form_is_basis_invariant():
    C3 = catalog()["C3"]
    M2 = [W for W in composition_factors(regular_module(C3, F2)) if W.dim == 2][0]
    cf = try_canonical_form(M2)
    assert cf is not None
    rng = np.random.default_rng(9)
    for _ in range(4):
        T = F2.rand_codes(rng, (2, 2))
        while not linalg.is_invertible(F2, T):
            T = F2.rand_codes(rng, (2, 2))
        Ti = linalg.inverse(F2, T)
        Mc = Rep(C3, F2, [F2.mat_mul(F2.mat_mul(Ti, M), T) for M in M2.matrices])
        cf2 = try_canonical_form(Mc)
        assert cf2 is not None
        assert all(np.array_equal(a, b) for a, b in zip(cf.matrices, cf2.matrices))


def test_simple_set_index_of():
    S3 = catalog()["S3"]
    S = simple_modules(S3, F2)
    for i, W in enumerate(S.modules):
        assert _index_of(S, W) == i


def test_zero_module_rejected():
    with pytest.raises(InputError):
        is_simple(Rep(catalog()["C2"], F2, [np.zeros((0, 0), dtype=np.int64)]))


def test_decompose_zero_module():
    dec = decompose(Rep(catalog()["C2"], F2, [np.zeros((0, 0), dtype=np.int64)]))
    assert dec.summands == []
    assert [M.shape for M in _conjugated_matrices(dec)] == [(0, 0)]


def _full_scan_canonical_form(V):
    # reference: spin every nonzero seed and read the action off its basis
    field, d = V.field, V.dim
    if d == 0 or d > limits.CANONICAL_DIM_CAP or field.q**d > limits.CANONICAL_ORBIT_CAP:
        return None
    mats = list(V.matrices)
    best_key, best = None, None
    for code in range(1, field.q**d):
        v = np.array([(code // field.q**i) % field.q for i in range(d)], dtype=np.int64)
        span = linalg.spin(field, mats, [v])
        assert span.dim == d
        A = linalg.action_on_subspace(field, np.stack(span.raw_basis_rows()), mats)
        key = tuple(int(x) for M in A for x in M.reshape(-1))
        if best_key is None or key < best_key:
            best_key, best = key, A
    return best


S5 = PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
CANONICAL_GRID = [
    (name, p, n) for name, G in catalog().items() for p in (2, 3, 5, 7) if G.order % p == 0 for n in (1, 2)
] + [("S5", 2, 1), ("S5", 3, 1), ("S5", 5, 1)]


@pytest.mark.parametrize("name, p, n", CANONICAL_GRID)
def test_canonical_form_matches_full_scan(name, p, n):
    G = S5 if name == "S5" else catalog()[name]
    K = make_field(p, n)
    seen = set()
    checked = 0
    # raw chop factors (arbitrary bases) and the listed simple modules
    for W in composition_factors(regular_module(G, K)) + list(simple_modules(G, K).modules):
        key = b"".join(M.tobytes() for M in W.matrices)
        if key in seen:
            continue
        seen.add(key)
        want = _full_scan_canonical_form(W)
        got = try_canonical_form(W)
        if want is None:
            assert got is None
            continue
        checked += 1
        assert len(got.matrices) == len(want)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got.matrices, want))
    assert checked


def test_canonical_form_of_reducible_module_raises():
    # some point of a reducible module spins to a proper submodule; the form
    # needs every spin to be full and checks it by a raise python -O keeps
    S3 = catalog()["S3"]
    for V in (permutation_module(S3, F2), direct_sum(trivial_module(S3, F3), trivial_module(S3, F3))):
        with pytest.raises(ConsistencyError, match="canonical form requires a simple module"):
            try_canonical_form(V)


def _exhaustive_simple_oracle(field, mats, dim):
    # reference: spin one projective point after another
    for v in meataxe._projective_points(field, dim):
        span = linalg.spin(field, mats, [v])
        if span.dim < dim:
            return False, span.echelon_matrix()
    return True, None


@pytest.mark.parametrize("name, p, n", CANONICAL_GRID)
def test_exhaustive_simple_matches_per_point_scan(monkeypatch, name, p, n):
    G = S5 if name == "S5" else catalog()[name]
    K = make_field(p, n)
    simples = list(simple_modules(G, K).modules)
    small = [W for W in simples if W.dim <= 2]
    # modules built from these, most of them reducible
    built = [permutation_module(G, K), regular_module(G, K)]
    built += [direct_sum(W, U) for W in small for U in small]
    built += [tensor_product(W, U) for W in simples for U in simples]
    seen = set()
    verdicts = set()
    for W in composition_factors(regular_module(G, K)) + simples + built:
        key = b"".join(M.tobytes() for M in W.matrices)
        if key in seen or K.q**W.dim > limits.SCAN_CAP:
            continue
        seen.add(key)
        mats = list(W.matrices)
        got = meataxe._exhaustive_simple(K, mats, W.dim)
        want = _exhaustive_simple_oracle(K, mats, W.dim)
        assert got[0] == want[0] == bool(is_simple(W))
        assert (got[1] is None) == (want[1] is None)
        if want[1] is not None:
            assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
        with monkeypatch.context() as m:  # no attempts: Norton's test is its scan
            m.setattr(limits, "RANDOM_ATTEMPTS", 0)
            scanned = is_simple(W)
        assert scanned.simple == got[0]
        if got[1] is not None:
            assert np.array_equal(scanned.witness, got[1])
        verdicts.add(got[0])
    assert verdicts == {True, False}


def _summand_multiset(V):
    return sorted((W.dim, m) for W, m in decompose(V).summands)


@pytest.mark.parametrize("n", [1, 2])
def test_decompose_needs_no_scan_to_separate_indecomposables(monkeypatch, n):
    # the two 8-dim projectives of S4 share generator characteristic
    # polynomials and dim Hom = 2 each way; with no room to scan, only the
    # local-algebra argument can tell them apart
    reg = regular_module(catalog()["S4"], make_field(2, n))
    want = _summand_multiset(reg)
    monkeypatch.setattr(limits, "SCAN_CAP", 1)
    assert _summand_multiset(reg) == want == [(8, 1), (8, 2)]


def _oracle_is_isomorphic(V, U, seed=0):
    """The isomorphism search without the local-algebra shortcut: basis maps,
    random combinations, then every combination.  Exact when q^h <= SCAN_CAP,
    the only case it answers (else None)."""
    field = V.field
    if V.dim != U.dim:
        return False, None
    basis = hom_space(V, U)
    h = len(basis)
    if field.q**h > limits.SCAN_CAP:
        return None
    for M in basis:
        if linalg.is_invertible(field, M):
            return True, M

    def combo(coeffs):
        z = field.zeros(V.dim, V.dim)
        for c, b in zip(coeffs, basis):
            if c:
                z = field.add(z, field.mul(np.int64(int(c)), b))
        return z

    rng = np.random.default_rng(seed)
    for _ in range(limits.RANDOM_ATTEMPTS):
        M = combo(field.rand_codes(rng, h))
        if M.any() and linalg.is_invertible(field, M):
            return True, M
    for code in range(1, field.q**h):
        M = combo([(code // field.q**i) % field.q for i in range(h)])
        if linalg.is_invertible(field, M):
            return True, M
    return False, None


def _assert_isomorphism(V, U, M):
    field = V.field
    assert linalg.is_invertible(field, M)
    for A, B in zip(V.matrices, U.matrices):
        assert np.array_equal(field.mat_mul(M, A), field.mat_mul(B, M))


ISO_GRID = [
    (name, p, n) for name, G in catalog().items() for p in (2, 3, 5, 7) if G.order % p == 0 for n in (1, 2)
]


@pytest.mark.parametrize("name, p, n", ISO_GRID)
def test_is_isomorphic_matches_exhaustive_oracle(name, p, n):
    G = catalog()[name]
    K = make_field(p, n)
    inputs = [regular_module(G, K)]
    inputs += [induce(trivial_module(Q.group, K), G) for Q in p_subgroups_up_to_conjugacy(G, p)]
    summands = {}
    for M in inputs:
        for W, _ in decompose(M).summands:
            summands.setdefault(b"".join(A.tobytes() for A in W.matrices), W)
    reps = list(summands.values())
    sums = [direct_sum(A, B) for A in reps[:2] for B in reps[:2]]
    compared = 0
    for modules in (reps, sums):
        for V in modules:
            for U in modules:
                if V.dim != U.dim:
                    continue
                want = _oracle_is_isomorphic(V, U)
                if want is None:
                    continue
                got = is_isomorphic(V, U)
                assert bool(got) == want[0], (V.dim, got.reason)
                if got:
                    _assert_isomorphism(V, U, got.map)
                    _assert_isomorphism(V, U, want[1])
                compared += 1
    assert compared


def test_is_isomorphic_of_indecomposables_makes_no_search(monkeypatch):
    P1, P2 = (W for W, _ in decompose(regular_module(catalog()["S4"], F2)).summands)
    assert len(hom_space(P1, P2)) >= 2

    def no_search(*args):
        raise AssertionError("span search on indecomposable modules")

    monkeypatch.setattr(meataxe, "_span_search", no_search)
    assert not is_isomorphic(P1, P2)
    assert not is_isomorphic(P2, P1)


def _s3_trivial_and_projective_cover():
    # T and P_T = Ind_{C3}^{S3} 1 for S3 over GF(2): P_T is indecomposable of
    # dimension 2, with T as top and socle
    S3 = catalog()["S3"]
    C3 = next(Q for Q in p_subgroups_up_to_conjugacy(S3, 3) if Q.order == 3)
    return trivial_module(S3, F2), induce(trivial_module(C3.group, F2), S3)


def _power(M, n):
    out = M
    for _ in range(n - 1):
        out = direct_sum(out, M)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_krull_schmidt_separates_decomposable_modules_without_a_span_search(monkeypatch, n):
    # T^2n and P_T^n: both decomposable, dim Hom = 2n^2 each way without an
    # invertible basis map; at n = 3 no span search could prove them apart
    T, PT = _s3_trivial_and_projective_cover()
    V, U = _power(T, 2 * n), _power(PT, n)

    def no_search(*args):
        raise AssertionError("span search in an isomorphism test")

    monkeypatch.setattr(meataxe, "_span_search", no_search)
    for A, B in ((V, U), (U, V)):
        res = is_isomorphic(A, B)
        assert not res
        assert res.reason == "indecomposable summands differ"


def test_krull_schmidt_matches_decomposable_modules_in_a_random_basis():
    # P_T^3 + T against a conjugate: dim Hom = 25, far beyond a full scan
    T, PT = _s3_trivial_and_projective_cover()
    V = direct_sum(_power(PT, 3), T)
    U = _random_conjugate(V, np.random.default_rng(1))
    assert F2.q ** len(hom_space(V, U)) > limits.SCAN_CAP
    for A, B in ((V, U), (U, V)):
        res = is_isomorphic(A, B)
        assert res.reason == "equal indecomposable summands"
        _assert_isomorphism(A, B, res.map)


def test_krull_schmidt_isomorphism_is_checked(monkeypatch):
    T, PT = _s3_trivial_and_projective_cover()
    V = direct_sum(_power(PT, 3), T)
    U = _random_conjugate(V, np.random.default_rng(1))
    real = meataxe._decompose

    def reordered(W, seed, reps):
        dec = real(W, seed, reps)
        if reps:  # the second module: its summands no longer line up
            dec.basis = dec.basis[::-1].copy()
        return dec

    monkeypatch.setattr(meataxe, "_decompose", reordered)
    with pytest.raises(ConsistencyError):
        is_isomorphic(V, U)


def _allow_only_inside_try_split(monkeypatch, *names):
    """Make each named meataxe function raise unless `_try_split` is running."""
    splitting = []
    real_split = meataxe._try_split

    def split(*args):
        splitting.append(True)
        try:
            return real_split(*args)
        finally:
            splitting.pop()

    def guarded(name):
        real = getattr(meataxe, name)

        def call(*args, **kwargs):
            if not splitting:
                raise AssertionError("%s called outside splitting" % name)
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(meataxe, "_try_split", split)
    for name in names:
        monkeypatch.setattr(meataxe, name, guarded(name))


def test_krull_schmidt_runs_without_end_structure(monkeypatch):
    # neither side carries a locality verdict, so none is solved for before
    # Krull-Schmidt (only a split may ask for one): on S4 reg + reg over
    # GF(2) that End costs more than the decompositions
    reg = regular_module(catalog()["S4"], F2)
    V = direct_sum(reg, reg)
    U = _random_conjugate(V, np.random.default_rng(0))
    _allow_only_inside_try_split(monkeypatch, "end_structure")
    res = is_isomorphic(V, U)
    assert res.reason == "equal indecomposable summands"
    _assert_isomorphism(V, U, res.map)


def _two_copies_of_trivial_sum():
    # separately built copies of T + T for S3 over GF(2): End is M_2(GF(2)),
    # whose canonical basis holds no invertible map
    S3 = catalog()["S3"]
    return [direct_sum(trivial_module(S3, F2), trivial_module(S3, F2)) for _ in range(2)]


def _invertible_in_span(V, U):
    """`_span_search` for an invertible map in Hom(V, U); `_try_split` runs
    the same search for a splitting endomorphism."""
    K = V.field
    basis = hom_space(V, U)
    invertible = lambda M: M if linalg.is_invertible(K, M) else None
    return meataxe._span_search(K, basis, 0, invertible)


def test_span_search_random_hit(monkeypatch):
    V, U = _two_copies_of_trivial_sum()
    monkeypatch.setattr(limits, "SCAN_CAP", 1)  # q^h = 16: only a random draw can hit
    _assert_isomorphism(V, U, _invertible_in_span(V, U))


def test_span_search_scan_hit(monkeypatch):
    V, U = _two_copies_of_trivial_sum()
    monkeypatch.setattr(limits, "RANDOM_ATTEMPTS", 0)
    _assert_isomorphism(V, U, _invertible_in_span(V, U))


def _regular_sums_c2():
    # R + R and R + T + T for C2 over GF(2): decomposable, same generator
    # characteristic polynomial, dim Hom = 8, not isomorphic
    C2 = catalog()["C2"]
    R, T = regular_module(C2, F2), trivial_module(C2, F2)
    return direct_sum(R, R), direct_sum(direct_sum(R, T), T)


def test_span_search_complete_scan_miss():
    V, U = _regular_sums_c2()
    assert _invertible_in_span(V, U) is None
    assert not is_isomorphic(V, U)


def test_span_search_exhausted_budget(monkeypatch):
    V, U = _regular_sums_c2()
    monkeypatch.setattr(limits, "SCAN_CAP", 1)
    with pytest.raises(InconclusiveError) as span:
        _invertible_in_span(V, U)
    # Norton's test with no attempts and no room to scan
    monkeypatch.setattr(limits, "RANDOM_ATTEMPTS", 0)
    with pytest.raises(InconclusiveError) as norton:
        is_simple(regular_module(catalog()["S3"], F5))
    # each message names the search, its attempts, the dimension and the field
    assert str(span.value) == "span search found no verdict in 200 random attempts (dim 8 over GF(2))"
    assert str(norton.value) == "Norton's test found no verdict in 0 random attempts (dim 6 over GF(5))"


def test_las_vegas_runs_the_attempts_then_the_scan(monkeypatch):
    monkeypatch.setattr(limits, "RANDOM_ATTEMPTS", 5)
    calls = []

    def attempt(k):
        calls.append(k)
        return "hit" if k == 3 else None

    def scan():
        calls.append("scan")
        return "scanned"

    # a hit stops the attempts and skips the scan
    assert meataxe._las_vegas(F2, 4, attempt, scan, "search") == "hit"
    assert calls == [0, 1, 2, 3]
    # a miss spends every attempt, then scans a space of q^n <= SCAN_CAP elements
    calls.clear()
    monkeypatch.setattr(limits, "SCAN_CAP", 16)
    assert meataxe._las_vegas(F2, 4, lambda k: calls.append(k), scan, "search") == "scanned"
    assert calls == [0, 1, 2, 3, 4, "scan"]
    # and never scans a larger space
    calls.clear()
    monkeypatch.setattr(limits, "SCAN_CAP", 15)
    with pytest.raises(InconclusiveError, match="search found no verdict in 5 random attempts"):
        meataxe._las_vegas(F2, 4, lambda k: calls.append(k), scan, "search")
    assert calls == [0, 1, 2, 3, 4]


def _oracle_algebra_structure(field, basis, rng):
    """The quotient-algebra test algebra_structure used before: chop E, cut
    out rad E, build E/rad E on a complement of unit coordinates and call E
    local when the regular module of E/rad E is simple."""
    h = len(basis)
    if h == 1:
        return 1, 0, True
    mults = meataxe._algebra_right_mults(field, basis, list(range(len(basis[0]))))
    factors = meataxe._chop(field, mults, h, rng)
    Z = np.vstack([np.stack([M.reshape(-1) for M in fmats], axis=1) for fmats, _ in factors])
    rad = linalg.nullspace(field, Z)
    rad_dim = rad.shape[0]
    if rad_dim == 0:
        return h, 0, len(factors) == 1
    comp_space = linalg.RowSpace(field, h, track=True)
    for row in rad:
        comp_space.add(row)
    comp_idx = [c for c in range(h) if comp_space.add(np.eye(h, dtype=np.int64)[c])]
    hq = len(comp_idx)
    assert hq == h - rad_dim
    q_mults = []
    for k in comp_idx:
        residual, coords = comp_space.reduce_rows(mults[k][:, comp_idx].T)
        assert not residual.any()
        q_mults.append(np.ascontiguousarray(coords[:, rad_dim : rad_dim + hq].T))
    return h, rad_dim, len(meataxe._chop(field, q_mults, hq, rng)) == 1


@pytest.mark.parametrize("name, p, n", ISO_GRID)
def test_end_structure_matches_quotient_algebra_oracle(name, p, n):
    G = catalog()[name]
    K = make_field(p, n)
    modules = [regular_module(G, K), trivial_module(G, K)]
    modules += [induce(trivial_module(Q.group, K), G) for Q in p_subgroups_up_to_conjugacy(G, p)]
    summands = [W for M in modules for W, _ in decompose(M).summands]
    sums = [direct_sum(summands[0], W) for W in summands[:2]]
    simples = list(simple_modules(G, K).modules)  # their structure comes from Schur's lemma
    for V in modules + summands + sums + simples:
        basis = hom_space(V, V)
        want = _oracle_algebra_structure(K, basis, np.random.default_rng(0))
        assert end_structure(V) == want, (V.dim, want)
    assert not any(end_structure(V)[2] for V in sums)  # a sum of two is never local


@pytest.mark.parametrize("n", [1, 2])
def test_decompose_groups_leaves_without_end_solves_or_searches(monkeypatch, n):
    # leaves are indecomposable, so grouping them needs only the first
    # invertible basis map; span searches and End structures may run only
    # to split a piece
    def forbidden(*args, **kwargs):
        raise AssertionError("is_isomorphic called by decompose")

    _allow_only_inside_try_split(monkeypatch, "_span_search", "end_structure")
    monkeypatch.setattr(meataxe, "is_isomorphic", forbidden)
    reg = regular_module(catalog()["S4"], make_field(2, n))
    assert _summand_multiset(reg) == [(8, 1), (8, 2)]


def _decompose_without_orbit_split(V, seed, monkeypatch):
    # decompose as it was before permutation modules split by orbits first
    with monkeypatch.context() as m:
        m.setattr(Rep, "point_orbits", property(lambda self: None))
        return decompose(V, seed=seed)


def _assert_splitting_basis(dec):
    # the basis conjugates the module into the summands, block for block
    conj = _conjugated_matrices(dec)
    off = 0
    for W, mult in dec.summands:
        for _ in range(mult):
            for Mc, Mw in zip(conj, W.matrices):
                assert np.array_equal(Mc[off : off + W.dim, off : off + W.dim], Mw)
                assert not Mc[off : off + W.dim, :off].any()
                assert not Mc[off : off + W.dim, off + W.dim :].any()
            off += W.dim
    assert off == dec.module.dim


def _intransitive_permutation_modules():
    S4, A4 = catalog()["S4"], catalog()["A4"]
    reg = regular_module(S4, F2)
    pim4 = next(W for W, _ in decompose(regular_module(A4, F4)).summands if W.dim == 4)
    one = A4.trivial_subgroup()
    # S2 x C3 on {0, 1} and {2, 3, 4}
    G = PermGroup(5, [(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)])
    return [
        direct_sum(reg, reg),
        induce(restrict_subgroup(pim4, one), A4),
        restrict_subgroup(reg, S4.trivial_subgroup()),
        permutation_module(G, F2),
        permutation_module(G, F3),
        direct_sum(regular_module(catalog()["S3"], F3), trivial_module(catalog()["S3"], F3)),
    ]


@pytest.mark.parametrize("index", range(6))
def test_orbit_split_matches_decompose_without_it(monkeypatch, index):
    V = _intransitive_permutation_modules()[index]
    assert len(V.point_orbits) > 1
    for seed in (0, 5):
        got = decompose(V, seed=seed)
        want = _decompose_without_orbit_split(V, seed, monkeypatch)
        assert sorted((W.dim, m) for W, m in got.summands) == sorted((W.dim, m) for W, m in want.summands)
        _assert_splitting_basis(got)
        _assert_splitting_basis(want)


def test_orbit_split_needs_no_end_of_the_module(monkeypatch):
    # a trivially acting module splits into 24 copies of one line, and the
    # copies join the line's class by the identity: no hom solve at all
    V = restrict_subgroup(regular_module(catalog()["S4"], F2), catalog()["S4"].trivial_subgroup())
    sizes = []
    real = modrep.hom_space
    counting = lambda W, U: sizes.append((W.dim, U.dim)) or real(W, U)
    for mod in (modrep, meataxe):
        monkeypatch.setattr(mod, "hom_space", counting)
    dec = decompose(V)
    assert [(W.dim, m) for W, m in dec.summands] == [(1, 24)]
    assert sizes == []
    _assert_splitting_basis(dec)


def test_decompose_checks_each_piece_for_permutation_matrices_once(monkeypatch):
    # the orbit split, the End solve and the isomorphism tests of a piece
    # all read one check of its generators
    reg = regular_module(catalog()["S4"], F2)
    seen = []  # keeps every checked matrix alive, so no id is reused
    real = modrep._permutation
    monkeypatch.setattr(modrep, "_permutation", lambda M: seen.append(M) or real(M))
    dec = decompose(direct_sum(reg, reg))
    assert [(W.dim, m) for W, m in dec.summands] == [(8, 2), (8, 4)]
    counts = collections.Counter(id(M) for M in seen)
    assert seen and max(counts.values()) == 1


@pytest.mark.parametrize("K", [F2, F3], ids=["GF(2)", "GF(3)"])
def test_copies_of_a_class_representative_give_a_splitting_basis(K):
    # the two regular blocks are identical pieces that share their leaves, so
    # each class representative recurs and its copy maps to it by the identity
    reg = regular_module(catalog()["S4"], K)
    dec = decompose(direct_sum(reg, reg))
    assert sorted((W.dim, m) for W, m in dec.summands) == sorted((W.dim, 2 * m) for W, m in decompose(reg).summands)
    _assert_splitting_basis(dec)


# ------------------------------------------- corner End and identical pieces


def _corner_end_inputs():
    """The modules of the krull-schmidt benchmark workload, the regular S4
    module over GF(3), and an extended regular module, all in their natural
    basis."""
    A4, S4 = catalog()["A4"], catalog()["S4"]
    two, three = p_subgroups_up_to_conjugacy(S5, 2), p_subgroups_up_to_conjugacy(S5, 3)

    def perm(H, K):
        return induce(trivial_module(H.group, K), S5)

    pim4 = next(W for W, _ in decompose(regular_module(A4, F2)).summands if W.dim == 4)
    reg = regular_module(S4, F2)
    return [
        perm(next(H for H in two if H.order == 8), F2),
        perm(next(H for H in two if H.order == 4), F2),
        perm(next(H for H in three if H.order == 3), F3),
        induce(restrict_subgroup(pim4, A4.trivial_subgroup()), A4),
        direct_sum(reg, reg),
        reg,
        regular_module(S4, F3),
        extend_scalars(regular_module(catalog()["S3"], F2), F4),
    ]


@pytest.mark.parametrize("moved", [False, True], ids=["natural", "random"])
@pytest.mark.parametrize("index", range(8))
def test_corner_end_equals_the_hom_solver(monkeypatch, index, moved):
    # End of every summand is byte-equal to the spin solver's, and below the
    # root no End is solved by spinning
    V = _corner_end_inputs()[index]
    if moved:
        V = _random_conjugate(V, np.random.default_rng(index))
    end_solves = []
    real = modrep._spin_hom_basis

    def counting(W, U):
        if W is U:  # Rep.endomorphisms passes one module twice
            end_solves.append(W.dim)
        return real(W, U)

    monkeypatch.setattr(modrep, "_spin_hom_basis", counting)
    dec = decompose(V)
    assert end_solves == ([V.dim] if moved else [])
    monkeypatch.undo()
    for W, _ in dec.summands:
        assert W.seeds() == _spin_seeds(W)
        spun = real(W, W)
        assert [(M.dtype, M.shape, M.tobytes()) for M in W.endomorphisms()] == [
            (M.dtype, M.shape, M.tobytes()) for M in spun
        ]


def _fresh_copy(V):
    return Rep(V.group, V.field, V.matrices, check=False, dim=V.dim)


def _decomposition_bytes(dec):
    return [(m, [M.tobytes() for M in W.matrices]) for W, m in dec.summands], dec.basis.tobytes()


@pytest.mark.parametrize("moved", [False, True], ids=["natural", "random"])
@pytest.mark.parametrize("index", range(8))
def test_decompose_depends_only_on_the_module_and_the_seed(index, moved):
    # every search makes its generator from the seed, so neither a verdict
    # nor an End already on V nor an earlier decomposition moves a draw
    V = _corner_end_inputs()[index]
    if moved:
        V = _random_conjugate(V, np.random.default_rng(index))
    for seed in (0, 3):
        want = _decomposition_bytes(decompose(_fresh_copy(V), seed))
        W = _fresh_copy(V)
        end_structure(W, 1)
        assert _decomposition_bytes(decompose(W, seed)) == want
        W = _fresh_copy(V)
        is_indecomposable(W)
        assert _decomposition_bytes(decompose(W, seed)) == want
        W = _fresh_copy(V)
        decompose(W, seed)
        assert _decomposition_bytes(decompose(W, seed)) == want


def test_decompose_leaves_its_end_on_the_module(monkeypatch):
    # the root of the decomposition is V itself, so the End its split
    # solved is not solved again
    reg = regular_module(catalog()["S4"], F2)
    V = _random_conjugate(reg, np.random.default_rng(4))
    dec = decompose(V)
    monkeypatch.setattr(modrep, "_spin_hom_basis", lambda W, U: pytest.fail("End of V solved again"))
    end = V.endomorphisms()
    assert end.shape == reg.endomorphisms().shape == (24, 24, 24)  # reg's End comes from orbitals
    # one read-only array per End, the corner End of every summand too
    assert not any(E.flags.writeable for E in [end] + [W.endomorphisms() for W, _ in dec.summands])


def test_corner_end_is_checked(monkeypatch):
    V = _random_conjugate(regular_module(catalog()["S4"], F2), np.random.default_rng(0))
    real = meataxe._projections

    def wrong(field, pieces):
        projs = real(field, pieces)
        projs[0][0, 0] = field.add(projs[0][0, 0], 1)
        return projs

    monkeypatch.setattr(meataxe, "_projections", wrong)
    with pytest.raises(ConsistencyError, match="intertwine"):
        decompose(V)


def test_one_function_writes_the_end_structure():
    # `end_structure` decides every recorded verdict; Schur's lemma in
    # simple_modules is the one other writer
    tree = ast.parse(inspect.getsource(meataxe))
    writers = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "_structure" and isinstance(node.ctx, ast.Store)
    }
    assert writers == {"end_structure", "simple_modules"}


def test_decompose_reuses_the_solved_end_of_its_module(monkeypatch):
    # not a permutation module, so End(V) is spun; after end_structure
    # decompose must not spin it again, and V itself stays as it was
    V = _random_conjugate(regular_module(catalog()["S4"], F2), np.random.default_rng(2))
    structure = end_structure(V)
    end = V._end
    dims = []
    real = modrep._spin_hom_basis
    monkeypatch.setattr(modrep, "_spin_hom_basis", lambda W, U: dims.append(W.dim) or real(W, U))
    assert _summand_multiset(V) == [(8, 1), (8, 2)]
    assert V.dim not in dims
    assert V._end is end and V._structure == structure


def _splits(monkeypatch, V):
    """decompose(V) and the dimensions of the pieces `_try_split` was given."""
    dims = []
    real = meataxe._try_split

    def counting(W, seed):
        dims.append(W.dim)
        return real(W, seed)

    with monkeypatch.context() as m:
        m.setattr(meataxe, "_try_split", counting)
        return decompose(V), dims


@pytest.mark.parametrize("index", [3, 4])
def test_identical_pieces_split_once(monkeypatch, index):
    # A4 ind PIM4 has four identical orbit blocks, S4 reg + reg two: only the
    # first copy splits, so a block costs the root one more split
    V = _corner_end_inputs()[index]
    orbits = V.point_orbits
    block = meataxe._submodule(V, V.field.identity(V.dim)[orbits[0]])
    one, one_dims = _splits(monkeypatch, block)
    dec, dims = _splits(monkeypatch, V)
    assert len(dims) == len(one_dims) + 1
    assert [W.dim for W, _ in dec.summands] == [W.dim for W, _ in one.summands]
    assert [m for _, m in dec.summands] == [len(orbits) * m for _, m in one.summands]
    _assert_splitting_basis(dec)


def test_a_trivially_acting_module_splits_one_line(monkeypatch):
    V = restrict_subgroup(regular_module(S5, F2), S5.trivial_subgroup())
    dec, dims = _splits(monkeypatch, V)
    assert dims == [120, 1]
    assert [(W.dim, m) for W, m in dec.summands] == [(1, 120)]
    _assert_splitting_basis(dec)


def test_indecomposability_of_permutation_modules_needs_no_end(monkeypatch):
    # End of the trivially acting regular S5 module holds 120^2 unit maps;
    # the orbits alone decide, and the lines are indecomposable outright
    from modclass.classify import fiber
    from modclass.green import vertex

    V = restrict_subgroup(regular_module(S5, F2), S5.trivial_subgroup())
    line = trivial_module(S5, F2)

    def no_end(self):
        raise AssertionError("End solved")

    monkeypatch.setattr(Rep, "endomorphisms", no_end)
    assert not is_indecomposable(V)
    assert not is_absolutely_indecomposable(V)
    assert is_indecomposable(line)
    assert not is_indecomposable(Rep(S5, F2, [np.eye(2, dtype=np.int64)] * 2))
    with pytest.raises(InputError, match="decompose first"):
        vertex(V)
    with pytest.raises(InputError, match="decompose first"):
        fiber(V, 2)


def test_end_structure_of_a_trivially_acting_module_needs_no_end(monkeypatch):
    # End = M_d(K): d^2-dimensional and semisimple, local only at d = 1
    from modclass.classify import ModuleFlags, classify_module

    V = restrict_subgroup(regular_module(S5, F2), S5.trivial_subgroup())
    line = restrict_subgroup(trivial_module(S5, F2), S5.trivial_subgroup())
    bare = Rep(PermGroup(1, []), make_field(3, 2), [], dim=3)

    def no_end(self):
        raise AssertionError("End solved")

    monkeypatch.setattr(Rep, "endomorphisms", no_end)
    assert end_structure(V) == (14400, 0, False)
    assert end_structure(line) == (1, 0, True)
    assert end_structure(bare) == (9, 0, False)
    assert classify_module(V) == ModuleFlags(False, False, False, False)
    assert classify_module(line) == ModuleFlags(True, True, True, True)
    assert classify_module(bare) == ModuleFlags(False, False, False, False)


# ---------------------------------------------------------------- properties

_MODULAR_CASES = [
    (name, p, n) for name, G in sorted(catalog().items()) for p in (2, 3, 5, 7) if G.order % p == 0
    for n in (1, 2)
]
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


@st.composite
def _modular_case(draw):
    name, p, n = draw(st.sampled_from(_MODULAR_CASES))
    G = catalog()[name]
    subgroups = p_subgroups_up_to_conjugacy(G, p)
    Q = subgroups[draw(st.integers(0, len(subgroups) - 1))]
    return G, make_field(p, n), Q, draw(st.integers(0, 2**32 - 1))


def _random_conjugate(V, rng):
    K = V.field
    T = K.rand_codes(rng, (V.dim, V.dim))
    while not linalg.is_invertible(K, T):
        T = K.rand_codes(rng, (V.dim, V.dim))
    Ti = linalg.inverse(K, T)
    return Rep(V.group, K, [K.mat_mul(K.mat_mul(Ti, M), T) for M in V.matrices])


@_PROPERTY
@given(_modular_case())
def test_decompose_multiset_ignores_basis_and_seed(case):
    G, K, Q, s = case
    V = induce(trivial_module(Q.group, K), G)
    rng = np.random.default_rng(s)
    want = _summand_multiset(V)
    moved = _random_conjugate(V, rng)
    assert sorted((W.dim, m) for W, m in decompose(moved, seed=s % 97).summands) == want


@_PROPERTY
@given(_modular_case())
def test_frobenius_reciprocity_on_regular_summands(case):
    # dim Hom_G(Ind_Q U, V) = dim Hom_Q(U, Res_Q V)
    G, K, Q, s = case
    summands = [W for W, _ in decompose(regular_module(G, K)).summands]
    V = summands[s % len(summands)]
    res = restrict_subgroup(V, Q)
    parts = [U for U, _ in decompose(res).summands]
    U = parts[(s // len(summands)) % len(parts)]
    ind = induce(U, G)
    up = hom_space(ind, V)
    down = hom_space(U, res)
    assert len(up) == len(down)


@st.composite
def _modular_pair(draw):
    G, K, Q, s = draw(_modular_case())
    subgroups = p_subgroups_up_to_conjugacy(G, K.p)
    return G, K, Q, subgroups[draw(st.integers(0, len(subgroups) - 1))], s


def _factor_classes(S, V, seed):
    """Composition factors of V as sorted indices into the simple set S."""
    return sorted(_index_of(S, W) for W in composition_factors(V, seed=seed))


@_PROPERTY
@given(_modular_pair())
def test_composition_factors_ignore_basis_and_add_over_direct_sums(case):
    G, K, Q, R, s = case
    S = simple_modules(G, K)
    V, W = (induce(trivial_module(H.group, K), G) for H in (Q, R))
    rng = np.random.default_rng(s)
    want = _factor_classes(S, V, 0)
    assert _factor_classes(S, _random_conjugate(V, rng), s % 97) == want
    both = direct_sum(V, _random_conjugate(W, rng))
    assert _factor_classes(S, both, s % 89) == sorted(want + _factor_classes(S, W, 0))


# ------------------------------------- End splitting on the seeds' Krylov span


def _end_cases(G, K):
    """The regular and permutation modules of G and all their summands."""
    mods = [regular_module(G, K)]
    mods += [induce(trivial_module(Q.group, K), G) for Q in p_subgroups_up_to_conjugacy(G, K.p)]
    return mods + [W for M in mods for W, _ in decompose(M).summands]


def _spin_seeds(V):
    # the seeds of a plain standard-basis spin of V, from e_0, e_1, ...
    log = []
    if V.dim:
        linalg.spin(V.field, list(V.matrices), list(V.field.identity(V.dim)), log=log)
    return tuple(i for j, i, _ in log if j < 0)


def _assert_seed_min_polys(V, rng):
    # every End basis map and a random combination of them, as _try_split
    # and its span search meet them
    K = V.field
    basis, seeds = V.endomorphisms(), V.seeds()
    assert seeds == _spin_seeds(V)
    stack = np.stack(basis)
    combo = meataxe._combo(K, stack, K.rand_codes(rng, len(basis)))
    for phi in list(stack) + [combo]:
        got = min_poly_mat(K, phi, seeds)
        assert got.tobytes() == min_poly_mat(K, phi).tobytes(), (V.dim, seeds)


def _split_by_min_poly(field, phi, seeds):
    """Generalized eigenspaces from the minimal polynomial read on the
    seeds, as splitting took them before it read the characteristic
    polynomial on the seeds' span."""
    facs = P.factor(field, min_poly_mat(field, phi, seeds))
    if len(facs) < 2:
        return None
    pieces = []
    for f, e in facs:
        power = f
        for _ in range(e - 1):
            power = P.mul(field, power, f)
        pieces.append(linalg.nullspace(field, P.eval_matrix(field, power, phi)))
    return pieces


_SPLIT_GRID = [
    (name, p, n)
    for name, G in [("S5", S5)] + sorted(catalog().items())
    for p in (2, 3, 5, 7)
    if G.order % p == 0
    for n in (1, 2)
]


@pytest.mark.parametrize("name, p, n", _SPLIT_GRID)
def test_char_poly_split_matches_min_poly_split(name, p, n):
    # every End basis map of the natural and regular modules and of one in
    # a random basis (the natural module for S5): byte-equal pieces
    G, K = (S5 if name == "S5" else catalog()[name]), make_field(p, n)
    natural, regular = permutation_module(G, K), regular_module(G, K)
    rng = np.random.default_rng(K.q)
    for V in (natural, regular, _random_conjugate(natural if name == "S5" else regular, rng)):
        seeds = V.seeds()
        for phi in V.endomorphisms():
            got = meataxe._split_by_char_poly(K, phi, seeds)
            want = _split_by_min_poly(K, phi, seeds)
            assert (got is None) == (want is None)
            if got is not None:
                assert [x.tobytes() for x in got] == [x.tobytes() for x in want], V.dim


def _decompose_bytes(V, seed):
    dec = decompose(V, seed=seed)
    mats = b"".join(M.tobytes() for W, _ in dec.summands for M in W.matrices)
    return [m for _, m in dec.summands], mats, dec.basis.tobytes()


@pytest.mark.parametrize("name, p, n", _MODULAR_CASES)
def test_seed_min_poly_matches_full_min_poly(monkeypatch, name, p, n):
    rng = np.random.default_rng(p * n)
    mods = _end_cases(catalog()[name], make_field(p, n))
    for V in mods:
        _assert_seed_min_polys(V, rng)
    got = [_decompose_bytes(V, 3) for V in mods]
    fresh = lambda: [_decompose_bytes(V, 3) for V in _end_cases(catalog()[name], make_field(p, n))]
    with monkeypatch.context() as m:  # the characteristic polynomial on all of V
        full = P.char_poly
        m.setattr(P, "char_poly", lambda field, M, seeds=None: full(field, M))
        assert got == fresh()
    monkeypatch.setattr(meataxe, "_split_by_char_poly", _split_by_min_poly)
    assert got == fresh()


@_PROPERTY
@given(_modular_case())
def test_seed_min_poly_ignores_basis(case):
    G, K, Q, s = case
    rng = np.random.default_rng(s)
    V = _random_conjugate(direct_sum(induce(trivial_module(Q.group, K), G), trivial_module(G, K)), rng)
    _assert_seed_min_polys(V, rng)


def test_seeds_that_do_not_generate_raise(monkeypatch):
    # diag(0, 1, 2) commutes with any action on three trivial summands; on
    # e_0 and e_1 alone its characteristic polynomial misses the root 2
    phi = np.diag([0, 1, 2]).astype(np.int64)
    with pytest.raises(ConsistencyError, match="generalized eigenspaces do not fill the module"):
        meataxe._split_by_char_poly(F3, phi, [0, 1])
    # T + sign for C2 over GF(3) without the seed of sign: on the seed of T
    # alone the End basis maps E_00 and E_11 read as e_0 and 0
    C2 = catalog()["C2"]
    sign = Rep(C2, F3, [np.array([[2]], dtype=np.int64)])
    real = Rep.seeds
    with monkeypatch.context() as m:
        m.setattr(Rep, "seeds", lambda self: real(self)[:-1])
        with pytest.raises(ConsistencyError, match="algebra basis is linearly dependent"):
            decompose(direct_sum(trivial_module(C2, F3), sign))
    # the same seeds for the splitting alone: no End map splits there, yet
    # the algebra is not local
    split = meataxe._split_by_char_poly
    monkeypatch.setattr(meataxe, "_split_by_char_poly", lambda K, phi, seeds: split(K, phi, seeds[:-1]))
    with pytest.raises(ConsistencyError, match="non-local algebra without nontrivial idempotent"):
        decompose(direct_sum(trivial_module(C2, F3), sign))


def test_group_without_generators_has_one_trivial_simple_module():
    G = PermGroup(1, [])
    S = simple_modules(G, F2)
    assert [W.dim for W in S.modules] == [1] and S.end_degrees == (1,)
    assert _summand_multiset(regular_module(G, F2)) == [(1, 1)]
    two = direct_sum(trivial_module(G, F3), trivial_module(G, F3))
    assert _summand_multiset(two) == [(1, 2)]
    assert [W.dim for W in composition_factors(two)] == [1, 1]
    assert not is_simple(two)


# ------------------------------------- simple modules: closure and certificate

# groups whose simple modules do not all split over the prime field; kept
# out of catalog(), which the benchmark and the CLI enumerate
C5 = PermGroup(5, [(1, 2, 3, 4, 0)])
A5 = PermGroup(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
F21 = PermGroup(7, [(1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)])
L32 = PermGroup(7, [(1, 2, 3, 4, 5, 6, 0), (0, 2, 1, 6, 4, 5, 3)])
EXTRA_GROUPS = {"S5": S5, "C5": C5, "A5": A5, "F21": F21, "L32": L32}

ORACLE_GRID = (
    [(name, p, n) for name, p, n in _MODULAR_CASES]
    + [("S5", 2, 1), ("S5", 3, 1), ("S5", 5, 1)]
    + [("C5", 2, 1), ("A5", 2, 1), ("A5", 3, 1), ("F21", 3, 1), ("L32", 3, 1)]
)


def _group(name):
    return EXTRA_GROUPS.get(name) or catalog()[name]


def _regular_chop_oracle(G, K):
    """Simple modules and End degrees by chopping the regular module."""
    classes = []
    for W in composition_factors(regular_module(G, K)):
        if not any(is_isomorphic(W, M) for M in classes):
            classes.append(W)
    return [(W, len(W.endomorphisms())) for W in classes]


def test_extra_groups_have_the_expected_orders():
    assert [G.order for G in EXTRA_GROUPS.values()] == [120, 5, 60, 21, 168]


@pytest.mark.parametrize("name, p, n", ORACLE_GRID)
def test_simple_modules_match_regular_module_oracle(name, p, n):
    G, K = _group(name), make_field(p, n)
    S = simple_modules(G, K)
    oracle = _regular_chop_oracle(G, K)
    assert len(S) == len(oracle)
    hits = sorted(_index_of(S, W) for W, _ in oracle)
    assert hits == list(range(len(S)))
    for W, degree in oracle:
        assert S.end_degrees[_index_of(S, W)] == degree
    assert sorted(S.end_degrees) == G.berman_orbit_lengths(p, K.q)


def test_non_split_simples_are_found():
    # End degrees above 1 come from classes fused by the Frobenius power map
    assert simple_modules(C5, F2).end_degrees == (1, 4)
    assert simple_modules(A5, F2).end_degrees == (1, 1, 2)
    assert simple_modules(A5, F3).end_degrees == (1, 1, 2)
    assert simple_modules(L32, F3).end_degrees == (1, 1, 2, 1)


def _count_regular_modules(monkeypatch):
    calls = []

    def counting(G, K):
        calls.append(G)
        return regular_module(G, K)

    monkeypatch.setattr(meataxe, "regular_module", counting)
    return calls


def test_simple_modules_never_build_the_regular_module(monkeypatch):
    calls = _count_regular_modules(monkeypatch)
    for name, p, n in ORACLE_GRID:
        simple_modules(_group(name), make_field(p, n))
    assert calls == []


@pytest.mark.parametrize("p", [2, 3])
def test_more_points_than_elements_falls_back_to_the_regular_module(monkeypatch, p):
    C2 = PermGroup(6, [(1, 0, 3, 2, 5, 4)])
    K = _fields()[p]
    calls = _count_regular_modules(monkeypatch)
    S = simple_modules(C2, K)
    assert calls == [C2]
    # the trivial module, and the sign module (listed first) when p is odd
    want = [[[1]]] if p == 2 else [[[2]], [[1]]]
    assert [[M.tolist() for M in W.matrices] for W in S.modules] == [[w] for w in want]
    assert S.end_degrees == (1,) * len(want)


def test_closure_needing_a_large_product_falls_back(monkeypatch):
    # C7 acting on 14 points: two orbits, so the natural module (dim 14) has
    # more than |G| dimensions and the closure is never started
    C7x2 = PermGroup(14, [tuple(list(range(1, 7)) + [0] + list(range(8, 14)) + [7])])
    calls = _count_regular_modules(monkeypatch)
    assert simple_modules(C7x2, F2).end_degrees == (1, 3, 3)
    assert calls == [C7x2]
    # asked for a fourth class, the closure of C7's 1, 3, 3 over GF(2) would
    # next chop a 9-dimensional product, more than |G| = 7
    assert meataxe._tensor_closure(permutation_module(catalog()["C7"], F2), 4, 0) is None


@pytest.mark.parametrize(
    "wrong, message",
    [([1, 1, 1], "Berman's count is 3"), ([2], "Berman's count is 1"), ([1, 2], "orbit lengths")],
)
def test_wrong_berman_multiset_raises(monkeypatch, wrong, message):
    monkeypatch.setattr(PermGroup, "berman_orbit_lengths", lambda G, p, q: wrong)
    with pytest.raises(ConsistencyError, match=message):
        simple_modules(catalog()["S3"], F2)


def test_wrong_berman_multiset_raises_under_optimization():
    import os
    import subprocess
    import sys

    script = (
        "from modclass.errors import ConsistencyError\n"
        "from modclass.finite_field import make_field\n"
        "from modclass.meataxe import simple_modules\n"
        "from modclass.perm_group import PermGroup, catalog\n"
        "PermGroup.berman_orbit_lengths = lambda G, p, q: [1, 2]\n"
        "try:\n"
        "    simple_modules(catalog()['S3'], make_field(2, 1))\n"
        "except ConsistencyError:\n"
        "    print('raised')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_simple_set_order_ignores_the_seed():
    runs = [simple_modules(S5, F2, seed=s).modules for s in range(4)]
    for mods in runs[1:]:
        assert [[M.tobytes() for M in W.matrices] for W in mods] == [
            [M.tobytes() for M in W.matrices] for W in runs[0]
        ]


@_PROPERTY
@given(st.sampled_from(_MODULAR_CASES), st.integers(0, 2**32 - 1))
def test_end_degrees_are_the_berman_orbit_lengths(case, s):
    name, p, n = case
    G, K = catalog()[name], make_field(p, n)
    lengths = G.berman_orbit_lengths(p, K.q)
    assert sorted(simple_modules(G, K, seed=s % 101).end_degrees) == lengths
    natural = permutation_module(G, K)
    start = direct_sum(_random_conjugate(natural, np.random.default_rng(s)), natural)
    found = meataxe._tensor_closure(start, len(lengths), s % 103)
    degrees = [len(W.endomorphisms()) for W in found]
    assert sorted(degrees) == lengths


# ------------------------------- characteristic polynomials only where they decide


def _record_char_polys(monkeypatch):
    """Count the char_poly calls made inside Rep.generator_char_polys, and
    collect the modules that asked for them; Norton's test and the chop
    tree call char_poly directly, and those calls are not counted."""
    calls, asked = [], []
    inside = [0]
    real_cp, real_gcp = P.char_poly, Rep.generator_char_polys

    def char_poly(field, M, seeds=None):
        if inside[0]:
            calls.append(M.shape[0])
        return real_cp(field, M, seeds)

    def generator_char_polys(self):
        asked.append(self)
        inside[0] += 1
        try:
            return real_gcp(self)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(P, "char_poly", char_poly)
    monkeypatch.setattr(Rep, "generator_char_polys", generator_char_polys)
    return calls, asked


def test_char_polys_are_computed_for_class_representatives_only(monkeypatch):
    calls, asked = _record_char_polys(monkeypatch)
    S4 = catalog()["S4"]
    reps = [W for W, _ in decompose(regular_module(S4, F2)).summands]
    assert {id(W) for W in asked} <= {id(W) for W in reps}
    assert len(calls) == len(reps) * len(S4.generators)

    calls.clear()
    asked.clear()
    S = simple_modules(S5, F3)
    assert {id(W) for W in asked} <= {id(W) for W in S.modules}
    assert len(calls) == len(S) * len(S5.generators)


def test_krull_schmidt_settles_decomposable_modules_with_unequal_char_polys(monkeypatch):
    # T + T + W and T^4 for S3 over GF(2), W the 2-dimensional simple: both
    # decomposable, dim Hom = 4 without an invertible basis map, and the
    # characteristic polynomials of the 3-cycle differ
    S3 = catalog()["S3"]
    T = trivial_module(S3, F2)
    W = next(M for M in simple_modules(S3, F2).modules if M.dim == 2)
    V = direct_sum(direct_sum(T, T), W)
    U = direct_sum(direct_sum(T, T), direct_sum(T, T))
    basis = hom_space(V, U)
    assert len(basis) >= 2 and not any(linalg.is_invertible(F2, M) for M in basis)
    assert V.generator_char_polys() != U.generator_char_polys()

    def no_search(*args):
        raise AssertionError("span search in an isomorphism test")

    monkeypatch.setattr(meataxe, "_span_search", no_search)
    for A, B in ((V, U), (U, V)):
        res = is_isomorphic(A, B)
        assert not res
        assert res.reason == "indecomposable summands differ"


# --------------------------- Norton's test on characteristic polynomials


def _norton_min_poly_oracle(field, mats, dim, rng):
    """Norton's test on the factors of the minimal polynomial of z, one
    factorization per attempt: the test as it was before it read the
    characteristic polynomial, factored once per chop tree."""
    if dim == 1:
        return True, None
    if not mats:
        return False, field.identity(dim)[:1]
    mats_t = [np.ascontiguousarray(M.T) for M in mats]

    def attempt(k):
        z = mats[0] if k == 0 else meataxe._random_algebra_element(field, mats, dim, rng)
        for f, _ in P.factor(field, min_poly_mat(field, z)):
            fz = P.eval_matrix(field, f, z)
            null = linalg.nullspace(field, fz)
            good = null.shape[0] == P.degree(f)
            extra = 0 if good else 3
            for v in meataxe._kernel_samples(field, null, rng, extra):
                span = linalg.spin(field, mats, [v])
                if span.dim < dim:
                    return False, span.echelon_matrix()
            null_t = linalg.nullspace(field, fz.T)
            for w in meataxe._kernel_samples(field, null_t, rng, extra):
                span_t = linalg.spin(field, mats_t, [w])
                if span_t.dim < dim:
                    return False, linalg.nullspace(field, span_t.echelon_matrix())
            if good:
                return True, None
        return None

    scan = lambda: meataxe._exhaustive_simple(field, mats, dim)
    return meataxe._las_vegas(field, dim, attempt, scan, "Norton's test")


def _chop_oracle(field, mats, dim, rng, log=None):
    """The chop tree on `_norton_min_poly_oracle`, with no factorization
    handed down; each verdict goes to `log` as `_norton_record` has it."""
    if dim == 0:
        return []
    ok, witness = _norton_min_poly_oracle(field, mats, dim, rng)
    if log is not None:
        log.append(_norton_record((ok, witness), rng))
    if ok:
        return [(mats, dim)]
    sub = linalg.action_on_subspace(field, witness, mats)
    quo, _ = linalg.action_on_quotient(field, witness, mats)
    k = witness.shape[0]
    return _chop_oracle(field, sub, k, rng, log) + _chop_oracle(field, quo, dim - k, rng, log)


def _norton_record(result, rng):
    """Verdict, witness bytes and the generator state after the call."""
    ok, witness = result
    return ok, None if witness is None else (witness.shape, witness.tobytes()), rng.bit_generator.state


NORTON_GRID = [
    (name, p, n)
    for name, G in [("S5", S5)] + sorted(catalog().items())
    for p in (2, 3, 5, 7)
    if G.order % p == 0
    for n in ((1, 2, 20) if p == 2 else (1, 2))
]


def _norton_modules(G, K):
    """Natural, regular, tensor-square and random-basis modules.  Over
    GF(2^20), whose products are digit convolutions, modules of more than
    25 dimensions are left out (a chop of regular S5 there takes 25 s)."""
    natural = permutation_module(G, K)
    tensor = tensor_product(natural, natural)
    rng = np.random.default_rng(K.q)
    mods = {
        "natural": natural,
        "regular": regular_module(G, K),
        "tensor": tensor,
        "random": _random_conjugate(tensor if tensor.dim <= 25 else natural, rng),
    }
    return {kind: V for kind, V in mods.items() if V.dim <= 25 or K.n < 20}


def _bytes_of(reps):
    return [(W.dim, b"".join(M.tobytes() for M in W.matrices)) for W in reps]


@pytest.mark.parametrize("name, p, n", NORTON_GRID)
def test_norton_on_char_polys_matches_min_poly_oracle(monkeypatch, name, p, n):
    # at every node of every chop tree: the factorization handed down is the
    # node's own, and verdict, witness and generator state equal the oracle's
    G, K = (S5 if name == "S5" else catalog()[name]), make_field(p, n)
    real = meataxe._norton

    def recorded(field, mats, dim, rng, facs=None):
        if dim > 1 and mats:  # no node factors the first generator itself
            assert facs is not None
            want = P.factor(field, P.char_poly(field, mats[0]))
            assert [(f.tobytes(), m) for f, m in facs] == [(f.tobytes(), m) for f, m in want]
        got = real(field, mats, dim, rng, facs)
        log.append(_norton_record(got, rng))
        return got

    for kind, V in _norton_modules(G, K).items():
        mats = list(V.matrices)
        for seed in (0, 3):  # as is_simple calls it, with no factorization
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _norton_record(real(K, mats, V.dim, rng), rng)
            assert got == _norton_record(_norton_min_poly_oracle(K, mats, V.dim, twin), twin)
        log, want = [], []
        with monkeypatch.context() as m:
            m.setattr(meataxe, "_norton", recorded)
            got = composition_factors(V, seed=3)
        oracle = _chop_oracle(K, mats, V.dim, np.random.default_rng(3), want)
        assert len(log) > 1 and log == want, kind
        oracle = [(dim, b"".join(M.tobytes() for M in fmats)) for fmats, dim in oracle]
        assert _bytes_of(got) == sorted(oracle, key=lambda f: f[0]), kind
    S = simple_modules(G, K)
    with monkeypatch.context() as m:
        m.setattr(meataxe, "_chop", _chop_oracle)
        T = simple_modules(G, K)
    assert S.end_degrees == T.end_degrees
    assert _bytes_of(S.modules) == _bytes_of(T.modules)


def test_chop_factors_only_at_the_root_and_in_random_attempts(monkeypatch):
    # regular S4 over GF(3): one factorization for the whole chop tree unless
    # some node needs a random attempt, and each of those factors one z
    calls, attempts = [], []
    real_factor, real_element = P.factor, meataxe._random_algebra_element
    monkeypatch.setattr(P, "factor", lambda *a, **k: calls.append(1) or real_factor(*a, **k))
    monkeypatch.setattr(
        meataxe, "_random_algebra_element", lambda *a: attempts.append(1) or real_element(*a)
    )
    factors = composition_factors(regular_module(catalog()["S4"], F3))
    assert len(factors) > 2
    assert len(calls) == 1 + len(attempts)


def _chop_basis_digest(S):
    """sha256 of the matrices of the simple modules that `try_canonical_form`
    leaves in the basis the chop tree gave them."""
    h = hashlib.sha256()
    for W in S.modules:
        if try_canonical_form(W) is None:
            for M in W.matrices:
                h.update(repr(M.shape).encode())
                h.update(M.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "G, K, digest",
    [
        (S5, F5, "31999ffd8f403345136c3fe91ff36952012efeb0815e7da62bb3314fdd9a0975"),
        (catalog()["S4"], make_field(2, 12), "acc4a5b4708bc2f5bceb4d7d1b6c2b0c5ab601258fb047112aaedd4f4295f23e"),
    ],
    ids=["S5-GF5", "S4-GF4096"],
)
def test_simple_modules_keep_their_chop_bases(G, K, digest):
    # frozen bytes of the representatives without a canonical form (the two
    # 5-dimensional simples of S5 over GF(5); the trivial and 2-dimensional
    # simples of S4 over GF(2^12), where q^d exceeds the orbit cap)
    assert _chop_basis_digest(simple_modules(G, K)) == digest
