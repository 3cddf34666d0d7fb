"""Relative projectivity, vertices, sources, and the Green correspondence.

The independent oracle for relative projectivity is the definition itself:
V is projective relative to Q exactly when V is a direct summand of the
induction of its restriction to Q.  Vertex results are checked against
that oracle and against the frozen Sylow orders.  Sources are checked
against a summand test run on the induced module itself and against
decomposing it.
"""

import operator as op
import os
import subprocess
import sys

import numpy as np
import pytest

from modclass import green, linalg, meataxe, modrep
from modclass.errors import ConsistencyError, InputError
from modclass.finite_field import make_field
from modclass.meataxe import decompose, is_isomorphic, simple_modules
from modclass.modrep import (
    Rep,
    direct_sum,
    hom_basis_matrices,
    induce,
    regular_module,
    restrict_subgroup,
    trivial_module,
)
from modclass.green import (
    VertexSource,
    _coset_stacks,
    _trace_matrix,
    green_correspondent,
    is_projective,
    is_relatively_projective,
    source,
    vertex,
)
from modclass.perm_group import (
    PermGroup,
    catalog,
    normalizer,
    p_subgroups_up_to_conjugacy,
    pinv,
    right_transversal,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)


def _field(p):
    return {2: F2, 3: F3, 5: F5}[p]


def _random_basis(V: Rep, rng) -> Rep:
    K = V.field
    C = None
    while C is None or not linalg.is_invertible(K, C):
        C = K.rand_codes(rng, (V.dim, V.dim))
    Ci = linalg.inverse(K, C)
    return Rep(V.group, K, [K.mat_mul(K.mat_mul(Ci, M), C) for M in V.matrices], check=False)


def _sylow_order(order, p):
    """The largest power of p dividing order."""
    s = 1
    while order % p == 0:
        s, order = s * p, order // p
    return s


def _oracle_relatively_projective(V, Q):
    # definitional test: V | Ind_Q^G Res_Q V
    ind = induce(restrict_subgroup(V, Q), V.group)
    for W, _ in decompose(ind).summands:
        if W.dim == V.dim and is_isomorphic(V, W):
            return True
    return False


BATTERY = [
    ("C3", 2),
    ("S3", 2),
    ("S3", 3),
    ("A4", 2),
    ("A4", 3),
    ("D8", 2),
    ("Q8", 2),
    ("S3", 5),
]


@pytest.mark.parametrize("name, p", BATTERY)
def test_trivial_module_vertex_is_sylow(name, p):
    G = catalog()[name]
    tr = trivial_module(G, _field(p))
    Q = vertex(tr)
    assert Q.order == _sylow_order(G.order, p)


def test_projective_summands_have_trivial_vertex():
    for name, p in [("S3", 2), ("S3", 3), ("C3", 2)]:
        G = catalog()[name]
        reg = regular_module(G, _field(p))
        for W, _ in decompose(reg).summands:
            assert is_projective(W)
            assert vertex(W).order == 1


def test_higman_criterion_matches_induction_oracle():
    # sweep every p-subgroup class representative against a module battery
    cases = [("S3", 2), ("S3", 3), ("A4", 2)]
    for name, p in cases:
        G = catalog()[name]
        F = _field(p)
        mods = [trivial_module(G, F)]
        mods += list(simple_modules(G, F).modules)
        mods += [W for W, _ in decompose(regular_module(G, F)).summands]
        for Q in p_subgroups_up_to_conjugacy(G, p):
            for V in mods:
                got = bool(is_relatively_projective(V, Q))
                want = _oracle_relatively_projective(V, Q)
                assert got == want, (name, p, Q.order, V.dim)


def test_source_and_induction_recover_module():
    G = catalog()["A4"]
    tr = trivial_module(G, F2)
    vs = source(tr)
    assert vs.vertex.order == 4
    S = vs.source
    assert S.dim == 1
    # the module is a summand of the induction of its source
    ind = induce(S, G)
    found = False
    for W, _ in decompose(ind).summands:
        if W.dim == tr.dim and is_isomorphic(tr, W):
            found = True
    assert found


def test_source_of_trivial_s3_mod_2():
    G = catalog()["S3"]
    tr = trivial_module(G, F2)
    vs = source(tr)
    assert vs.vertex.order == 2
    assert vs.source.dim == 1


def test_green_correspondent_trivial_s3():
    G = catalog()["S3"]
    tr = trivial_module(G, F2)
    Q = vertex(tr)
    # H = N_G(Q) = Q itself here
    H = normalizer(G, Q)
    assert H.order == 2
    f = green_correspondent(tr, Q, H)
    assert f.dim == 1
    assert vertex(f).order == 2


def test_green_correspondent_identity_when_h_is_g():
    G = catalog()["S3"]
    tr = trivial_module(G, F2)
    Q = vertex(tr)
    H = G.generated_subgroup(list(G.generators))
    assert H.order == G.order
    f = green_correspondent(tr, Q, H)
    assert f.dim == tr.dim
    assert sorted(W.dim for W, _ in decompose(f).summands) == [1]


def test_green_correspondent_a4_trivial():
    G = catalog()["A4"]
    tr = trivial_module(G, F3)
    Q = vertex(tr)
    assert Q.order == 3
    H = normalizer(G, Q)
    f = green_correspondent(tr, Q, H)
    assert vertex(f).order == 3


def test_vertex_rejects_decomposable():
    G = catalog()["S3"]
    reg = regular_module(G, F2)
    with pytest.raises(InputError):
        vertex(reg)


def test_green_rejects_non_vertex():
    G = catalog()["S3"]
    tr = trivial_module(G, F2)
    triv_sub = G.trivial_subgroup()
    with pytest.raises(InputError):
        green_correspondent(tr, triv_sub, normalizer(G, triv_sub))


def test_relative_projectivity_base_cases():
    G = catalog()["S3"]
    tr = trivial_module(G, F2)
    # every module is projective relative to a Sylow subgroup
    syl = [Q for Q in p_subgroups_up_to_conjugacy(G, 2) if Q.order == 2][0]
    assert is_relatively_projective(tr, syl)
    # a module is projective relative to the trivial subgroup only if it is
    # projective outright, which the trivial module here is not
    assert not is_relatively_projective(tr, G.trivial_subgroup())
    assert not is_projective(tr)


def test_projectivity_certificate_is_returned():
    G = catalog()["S3"]
    reg = regular_module(G, F2)
    W = decompose(reg).summands[0][0]
    res = is_projective(W)
    assert res and res.relative_endomorphism is not None


def test_relative_trace_check_raises_consistency_error(monkeypatch):
    # a wrong Higman solution must be caught, also under python -O
    G = catalog()["S3"]
    tr = trivial_module(G, F2)
    syl = [Q for Q in p_subgroups_up_to_conjugacy(G, 2) if Q.order == 2][0]
    monkeypatch.setattr(linalg, "solve", lambda field, A, b: np.zeros(A.shape[1], dtype=np.int64))
    with pytest.raises(ConsistencyError):
        is_relatively_projective(tr, syl)


def test_seeds_that_do_not_generate_fail_the_full_trace_check(monkeypatch):
    # P + T for S3 over GF(2) is not projective; on the seed of P alone the
    # Higman system is solvable, and the full trace check must catch that
    G = catalog()["S3"]
    P = next(W for W, _ in decompose(regular_module(G, F2)).summands if W.dim == 2)
    V = direct_sum(P, trivial_module(G, F2))
    assert not is_projective(V)
    real = Rep.seeds
    monkeypatch.setattr(Rep, "seeds", lambda self: real(self)[:-1])
    with pytest.raises(ConsistencyError, match="relative trace of the Higman solution"):
        is_projective(direct_sum(P, trivial_module(G, F2)))


@pytest.mark.parametrize("name, p", [("S3", 2), ("A4", 2), ("S4", 3)])
def test_higman_on_a_fresh_module_solves_no_end_g(name, p, monkeypatch):
    # the seeds come from a spin of V, not from a solve of End_G(V); the
    # modules are in a random basis, so none is a permutation module, and
    # the verdicts are those in the natural basis
    G = catalog()[name]
    K = _field(p)
    rng = np.random.default_rng(G.order)
    reg = regular_module(G, K)
    naturals = [reg, direct_sum(reg, trivial_module(G, K))]
    classes = p_subgroups_up_to_conjugacy(G, p)
    want = [[bool(is_relatively_projective(W, Q)) for Q in classes] for W in naturals]
    mods = [_random_basis(W, rng) for W in naturals]

    def forbidden(self):
        raise AssertionError("Higman's criterion solved End_G(V)")

    monkeypatch.setattr(Rep, "endomorphisms", forbidden)
    for V, verdicts in zip(mods, want):
        assert bool(is_projective(V)) == verdicts[0]
        assert [bool(is_relatively_projective(V, Q)) for Q in classes] == verdicts


def test_vertex_and_source_of_summands_reuse_the_end_decompose_solved(monkeypatch):
    # decompose proved every summand indecomposable; vertex and source read
    # that proof instead of solving End_G and its structure again
    G = catalog()["A4"]
    Q2 = [Q for Q in p_subgroups_up_to_conjugacy(G, 2) if Q.order == 2][0]
    V = direct_sum(regular_module(G, F2), induce(trivial_module(Q2.group, F2), G))
    summands = [W for W, _ in decompose(V).summands]
    ends = [hom_basis_matrices(F2, W.matrices, W.matrices, W.dim, W.dim) for W in summands]
    repeats = []

    def same(mats, ref, equal):
        return len(mats) == len(ref) and all(equal(a, b) for a, b in zip(mats, ref))

    real_hom, real_structure = modrep.hom_basis_matrices, meataxe.algebra_structure

    def hom(field, src, tgt, *dims):
        for W in summands:  # a summand's own matrix objects on both sides: its End_G
            if same(src, W.matrices, op.is_) and same(tgt, W.matrices, op.is_):
                repeats.append(("End", W.dim))
        return real_hom(field, src, tgt, *dims)

    def structure(field, basis, *args):
        repeats.extend(("structure", len(E)) for E in ends if same(basis, E, np.array_equal))
        return real_structure(field, basis, *args)

    for mod in (modrep, meataxe, green):
        monkeypatch.setattr(mod, "hom_basis_matrices", hom)
    monkeypatch.setattr(meataxe, "algebra_structure", structure)
    for W in summands:
        Q = vertex(W)
        assert source(W).vertex is Q
        source(W, Q)
    assert repeats == []


# the chunked trace of a stack of maps, the oracle of the Higman system
def _relative_trace(V: Rep, transversal, phis: np.ndarray, cols) -> np.ndarray:
    """Columns `cols` of the relative traces sum_t t^-1 phi t of a stack of
    h maps, shape (h, d, k) for k columns.

    A chunk of m cosets takes two products for all h maps: the (h d) x d
    stack of the maps times the d x (m k) block of the columns of the t,
    then the d x (m d) block of the t^-1 times those images regrouped by
    coset.  m = min(d // k, h) keeps every intermediate within h d^2 cells.
    """
    field = V.field
    h, d = phis.shape[0], V.dim
    cols = list(cols)
    k = len(cols)
    m = min(d // k, h)
    stack = phis.reshape(h * d, d)
    acc = field.zeros(d, h * k)
    for start in range(0, len(transversal), m):
        chunk = transversal[start : start + m]
        n = len(chunk)
        right = np.concatenate([V.element_matrix(t)[:, cols] for t in chunk], axis=1)
        images = field.mat_mul(stack, right)  # block (i, t) is phi_i t[:, cols]
        images = images.reshape(h, d, n, k).transpose(2, 1, 0, 3).reshape(n * d, h * k)
        left = np.concatenate([V.element_matrix(pinv(t)) for t in chunk], axis=1)
        acc = field.add(acc, field.mat_mul(left, images))
    return acc.reshape(d, h, k).transpose(1, 0, 2)


def _full_system_higman(V, Q):
    # Higman's criterion on all d^2 entries of the relative traces
    field = V.field
    d = V.dim
    q_mats = [V.element_matrix(g) for g in Q.group.generators]
    stack = np.stack(hom_basis_matrices(field, q_mats, q_mats, d, d))
    T = right_transversal(V.group, Q)
    A = _relative_trace(V, T, stack, range(d)).reshape(len(stack), -1).T
    coeffs = linalg.solve(field, A, field.identity(d).reshape(-1))
    if coeffs is None:
        return None
    return field.mat_mul(coeffs[None], stack.reshape(len(stack), -1)).reshape(d, d)


def _assert_higman_matches_full_system(V):
    for Q in p_subgroups_up_to_conjugacy(V.group, V.field.p):
        got = is_relatively_projective(V, Q)
        want = _full_system_higman(V, Q)
        assert bool(got) == (want is not None), (V.dim, Q.order)
        if got:
            cert = got.relative_endomorphism
            assert cert.dtype == want.dtype and cert.tobytes() == want.tobytes(), (V.dim, Q.order)


@pytest.mark.parametrize("name, p", BATTERY)
def test_seed_column_higman_matches_full_system(name, p):
    G = catalog()[name]
    F = _field(p)
    reg = regular_module(G, F)
    mods = [trivial_module(G, F), reg, direct_sum(reg, trivial_module(G, F))]
    mods += list(simple_modules(G, F).modules)
    mods += [W for W, _ in decompose(reg).summands]
    mods += [induce(trivial_module(Q.group, F), G) for Q in p_subgroups_up_to_conjugacy(G, p)]
    for V in mods:
        _assert_higman_matches_full_system(V)


S5 = PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


@pytest.mark.parametrize("p, order", [(2, 8), (2, 4), (3, 3)])
def test_seed_column_higman_matches_full_system_on_s5(p, order):
    # the summands of the S5 permutation modules on the cosets of a p-subgroup
    F = _field(p)
    H = next(Q for Q in p_subgroups_up_to_conjugacy(S5, p) if Q.order == order)
    for W, _ in decompose(induce(trivial_module(H.group, F), S5)).summands:
        _assert_higman_matches_full_system(W)


def test_source_refuses_a_subgroup_the_module_is_not_projective_relative_to():
    G = catalog()["S3"]
    with pytest.raises(InputError, match="not projective relative"):
        source(trivial_module(G, F2), G.trivial_subgroup())


def _reference_relative_trace(V, transversal, phi):
    # one map at a time: sum over t of t^-1 phi t
    field = V.field
    acc = field.zeros(V.dim, V.dim)
    for t in transversal:
        left = V.element_matrix(pinv(t))
        right = V.element_matrix(t)
        acc = field.add(acc, field.mat_mul(field.mat_mul(left, phi), right))
    return acc


GROUP_PRIMES = [
    (name, p) for name, G in catalog().items() for p in (2, 3, 5, 7) if G.order % p == 0
]
TRACE_GRID = [(name, p, n) for name, p in GROUP_PRIMES for n in (1, 2)]


@pytest.mark.parametrize("name, p, n", TRACE_GRID)
def test_batched_relative_trace_matches_per_map_reference(name, p, n):
    # the Higman system is built from the traces of the End_Q(V) basis: the
    # oracle's chunked stack, and the trace matrix on the vec(phi) columns
    G = catalog()[name]
    K = make_field(p, n)
    reg = regular_module(G, K)
    pim = decompose(reg).summands[0][0]
    for V in (trivial_module(G, K), reg, pim):
        d = V.dim
        for Q in p_subgroups_up_to_conjugacy(G, p):
            q_mats = [V.element_matrix(g) for g in Q.group.generators]
            basis = np.stack(hom_basis_matrices(K, q_mats, q_mats, d, d))
            T = right_transversal(G, Q)
            want = np.stack([_reference_relative_trace(V, T, phi) for phi in basis])
            by_matrix = K.mat_mul(_trace_matrix(K, *_coset_stacks(V, T), range(d)), basis.reshape(-1, d * d).T)
            for got in (_relative_trace(V, T, basis, range(d)), by_matrix.T.reshape(-1, d, d)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (name, p, n, d, Q.order)


def _oracle_source(V, Q, seed=0):
    # decompose each induced module and look for V among its summands
    for U, _ in decompose(restrict_subgroup(V, Q), seed=seed).summands:
        back = decompose(induce(U, V.group), seed=seed)
        if any(is_isomorphic(W, V, seed=seed) for W, _ in back.summands):
            return U
    raise AssertionError("no summand of the restriction induces back to the module")


@pytest.mark.parametrize("name, p", GROUP_PRIMES)
def test_source_matches_decompose_oracle(name, p):
    G = catalog()[name]
    K = make_field(p, 1)
    inputs = [regular_module(G, K)]
    inputs += [induce(trivial_module(Q.group, K), G) for Q in p_subgroups_up_to_conjugacy(G, p)]
    for M in inputs:
        for W, _ in decompose(M).summands:
            Q = vertex(W)
            want = _oracle_source(W, Q)
            for vs in (source(W), source(W, Q)):
                assert vs.vertex == Q
                got = vs.source
                assert got.dim == want.dim
                assert all(A.tobytes() == B.tobytes() for A, B in zip(got.matrices, want.matrices))


# V | W decided on the module W itself; with W = Ind U, the oracle of the
# relative-trace composites in source
def _is_summand(V: Rep, W: Rep) -> bool:
    """Whether the indecomposable module V is a direct summand of W.

    End(V) is local, so V | W exactly when beta alpha is invertible for some
    alpha in a basis of Hom(V, W) and beta in a basis of Hom(W, V): an
    invertible composite splits alpha, and if every basis composite lies in
    rad End(V), every composite does, so none is the identity.
    """
    field = V.field
    d, e = V.dim, W.dim
    alphas = hom_basis_matrices(field, V.matrices, W.matrices, d, e)
    betas = hom_basis_matrices(field, W.matrices, V.matrices, e, d) if alphas else []
    if not betas:
        return False
    a, b = len(alphas), len(betas)
    # one product: the (b d) x e stack of betas times the e x (a d) block of alphas
    stack = np.stack(betas).reshape(b * d, e)
    block = np.stack(alphas).transpose(1, 0, 2).reshape(e, a * d)
    prods = field.mat_mul(stack, block)
    composites = prods.reshape(b, d, a, d).transpose(0, 2, 1, 3).reshape(b * a, d, d)
    return any(linalg.is_invertible(field, c) for c in composites)


def _induced_module_source(V, Q, seed=0):
    # the first summand U of the restriction with V | Ind U, tested on the
    # induced module itself, then Higman's criterion for a given Q
    for U, _ in decompose(restrict_subgroup(V, Q), seed=seed).summands:
        if _is_summand(V, induce(U, V.group)):
            return VertexSource(Q, U)
    if not is_relatively_projective(V, Q):
        raise InputError("the module is not projective relative to the given subgroup")
    raise ConsistencyError("no summand of the restriction induces back to the module")


def _source_outcome(call):
    # the kind of result, then the vertex and source bytes or the message
    try:
        vs = call()
    except (InputError, ConsistencyError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", vs.vertex.elements, vs.source.dim, [M.tobytes() for M in vs.source.matrices]


@pytest.mark.parametrize("name, p, n", TRACE_GRID)
def test_source_by_reciprocity_matches_induced_module_criterion(name, p, n):
    # the summands of reg and of every Ind_Q^G 1, each against every
    # p-subgroup class (all of index at most 24 in the catalog groups)
    G = catalog()[name]
    K = make_field(p, n)
    classes = p_subgroups_up_to_conjugacy(G, p)
    inputs = [regular_module(G, K)] + [induce(trivial_module(Q.group, K), G) for Q in classes]
    for M in inputs:
        for W, _ in decompose(M).summands:
            for Q in classes:
                want = _source_outcome(lambda: _induced_module_source(W, Q))
                got = _source_outcome(lambda: source(W, Q))
                assert got == want, (name, p, n, W.dim, Q.order)


@pytest.mark.parametrize("name", ["A4", "S4"])
def test_source_solves_no_hom_space_larger_than_the_module(name, monkeypatch):
    # Frobenius reciprocity: hom solves on Res V and its summands only, and
    # no induced module is built
    assert not hasattr(green, "induce") and not hasattr(green, "_is_summand")
    G = catalog()[name]
    classes = p_subgroups_up_to_conjugacy(G, 2)
    inputs = [induce(trivial_module(Q.group, F2), G) for Q in classes]
    summands = [W for M in inputs for W, _ in decompose(M).summands]
    sides = []
    real_hom = modrep.hom_basis_matrices

    def hom(field, src, tgt, d_src, d_tgt):
        sides.append((d_src, d_tgt))
        return real_hom(field, src, tgt, d_src, d_tgt)

    def no_induce(*args):
        raise AssertionError("source built an induced module")

    for mod in (modrep, meataxe, green):
        monkeypatch.setattr(mod, "hom_basis_matrices", hom)
    monkeypatch.setattr(modrep, "induce", no_induce)
    for W in summands:
        sides.clear()
        source(W)
        for Q in classes:
            try:
                source(W, Q)
            except InputError as exc:
                assert "not projective relative" in str(exc)
        assert sides and max(max(s) for s in sides) <= W.dim, (W.dim, sides)


def test_cap_corner_sources_of_an_induced_module():
    # Ind_<(0 1)>^(S4 x C8) 1 over GF(2) splits as 32 + 64; at <(0 1)>, of
    # index 96, the induced modules of the candidates have dimension 96 or 192
    fix = tuple(range(4, 12))
    swap, c8 = (1, 0, 2, 3) + fix, tuple(range(4)) + (5, 6, 7, 8, 9, 10, 11, 4)
    G = PermGroup(12, [swap, (1, 2, 3, 0) + fix, c8])
    H = G.generated_subgroup([swap])
    M = induce(trivial_module(H.group, F2), G)
    got = sorted((W.dim, source(W, H).source.dim) for W, _ in decompose(M).summands)
    assert got == [(32, 1), (64, 2)]


def _vertex_by_full_scan(V):
    # the scan of vertex from order 1, without Green's bound
    by_order = {}
    for Q in p_subgroups_up_to_conjugacy(V.group, V.field.p):
        by_order.setdefault(Q.order, []).append(Q)
    for order in sorted(by_order):
        hits = [Q for Q in by_order[order] if is_relatively_projective(V, Q)]
        if hits:
            assert len(hits) == 1, (order, len(hits))
            return hits[0]
    raise AssertionError("no vertex found")


@pytest.mark.parametrize("name, p", GROUP_PRIMES)
def test_vertex_from_greens_bound_matches_full_scan(name, p):
    G = catalog()[name]
    K = make_field(p, 1)
    inputs = [regular_module(G, K)]
    inputs += [induce(trivial_module(Q.group, K), G) for Q in p_subgroups_up_to_conjugacy(G, p)]
    for M in inputs:
        for W, _ in decompose(M).summands:
            assert vertex(W) is _vertex_by_full_scan(W), (name, p, W.dim)


def test_cap_corner_vertex_of_the_trivial_module():
    # S4 x C8 has order 192 = 2^6 * 3; the trivial module's vertex is a Sylow 2-subgroup
    fix = tuple(range(4, 12))
    c8 = tuple(range(4)) + (5, 6, 7, 8, 9, 10, 11, 4)
    G = PermGroup(12, [(1, 0, 2, 3) + fix, (1, 2, 3, 0) + fix, c8])
    assert vertex(trivial_module(G, F2)).order == 64


def test_source_with_given_subgroup_rejects_decomposable():
    G = catalog()["S3"]
    reg = regular_module(G, F2)
    syl = [Q for Q in p_subgroups_up_to_conjugacy(G, 2) if Q.order == 2][0]
    with pytest.raises(InputError):
        source(reg, syl)


def _unit_map_system_higman(V, Q):
    # Higman's criterion on the seed columns of the traces of the stacked
    # End_Q(V) basis, which at a trivially acting Q holds all d^2 unit maps
    field = V.field
    d = V.dim
    q_mats = [V.element_matrix(g) for g in Q.group.generators]
    stack = np.stack(hom_basis_matrices(field, q_mats, q_mats, d, d))
    h = len(stack)
    seeds = V.seeds()
    A = _relative_trace(V, right_transversal(V.group, Q), stack, seeds).reshape(h, -1).T
    coeffs = linalg.solve(field, A, field.identity(d)[:, seeds].reshape(-1))
    if coeffs is None:
        return None
    return field.mat_mul(coeffs[None], stack.reshape(h, -1)).reshape(d, d)


def _assert_trivial_action_higman_matches_unit_maps(V, subgroups):
    for Q in subgroups:
        got = is_relatively_projective(V, Q)
        want = _unit_map_system_higman(V, Q)
        assert bool(got) == (want is not None), (V.dim, Q.order)
        if got:
            cert = got.relative_endomorphism
            assert cert.dtype == want.dtype and cert.tobytes() == want.tobytes(), (V.dim, Q.order)


@pytest.mark.parametrize("name, p, n", TRACE_GRID)
def test_trivial_action_higman_matches_unit_map_system(name, p, n):
    # at Q = 1 every module, and at every p-subgroup the trivial module
    G = catalog()[name]
    K = make_field(p, n)
    reg = regular_module(G, K)
    mods = [reg, direct_sum(reg, trivial_module(G, K))]
    mods += [W for W, _ in decompose(reg).summands] + list(simple_modules(G, K).modules)
    mods += [induce(trivial_module(Q.group, K), G) for Q in p_subgroups_up_to_conjugacy(G, p)]
    for V in mods:
        _assert_trivial_action_higman_matches_unit_maps(V, [G.trivial_subgroup()])
    _assert_trivial_action_higman_matches_unit_maps(
        trivial_module(G, K), p_subgroups_up_to_conjugacy(G, p)
    )


@pytest.mark.parametrize("p, order", [(2, 8), (3, 3), (5, 5)])
def test_trivial_action_higman_matches_unit_map_system_on_s5(p, order):
    F = _field(p)
    H = next(Q for Q in p_subgroups_up_to_conjugacy(S5, p) if Q.order == order)
    for W, _ in decompose(induce(trivial_module(H.group, F), S5)).summands:
        _assert_trivial_action_higman_matches_unit_maps(W, [S5.trivial_subgroup()])


def test_trivial_subgroup_trace_check_raises_consistency_error(monkeypatch):
    # at Q = 1 as well a wrong Higman solution must be caught, also under python -O
    V = regular_module(catalog()["S3"], F2)
    assert is_projective(V)
    monkeypatch.setattr(linalg, "solve", lambda field, A, b: np.zeros(A.shape[1], dtype=np.int64))
    with pytest.raises(ConsistencyError, match="relative trace of the Higman solution"):
        is_projective(regular_module(catalog()["S3"], F2))


def _run_in_one_gib(code):
    # a fresh interpreter under a 1 GiB address-space limit; its stripped stdout
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n" + code
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_projectivity_of_regular_s5_fits_in_one_gib():
    # the d^2 unit maps of the 120-dimensional module alone would take 1.5 GiB
    out = _run_in_one_gib(
        "import modclass as mc\n"
        "S5 = mc.PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])\n"
        "print(bool(mc.is_projective(mc.regular_module(S5, mc.make_field(2, 1)))))\n"
    )
    assert out == "True"


def test_cap_corner_relative_projectivity_fits_in_one_gib():
    # Ind_<(0 1)>^(S4 x C8) 1 over GF(2) has dimension 96, and at these Q
    # of order 2 its End_Q has 4,608 basis maps: tracing them as a stack of
    # h d x d maps does not fit, their vec(phi) columns do
    out = _run_in_one_gib(
        "import modclass as mc\n"
        "fix = tuple(range(4, 12))\n"
        "swap, c8 = (1, 0, 2, 3) + fix, tuple(range(4)) + (5, 6, 7, 8, 9, 10, 11, 4)\n"
        "G = mc.PermGroup(12, [swap, (1, 2, 3, 0) + fix, c8])\n"
        "H = G.generated_subgroup([swap])\n"
        "M = mc.induce(mc.trivial_module(H.group, mc.make_field(2, 1)), G)\n"
        "shift = tuple(range(4)) + (8, 9, 10, 11, 4, 5, 6, 7)\n"
        "qs = [G.generated_subgroup([g]) for g in [(1, 0, 3, 2) + fix, shift]]\n"
        "print(M.dim, [bool(mc.is_relatively_projective(M, Q)) for Q in qs])\n"
    )
    assert out == "96 [False, False]"
