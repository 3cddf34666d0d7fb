"""Relative projectivity, vertices, sources, and the Green correspondence.

The independent oracle for relative projectivity is the definition itself:
V is projective relative to Q exactly when V is a direct summand of the
induction of its restriction to Q.  Vertex results are checked against
that oracle and against the frozen Sylow orders.
"""

import operator as op
import os
import subprocess
import sys

import numpy as np
import pytest

from modclass import linalg, meataxe, modrep
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
    _relative_trace,
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
    real = Rep.endomorphisms
    monkeypatch.setattr(Rep, "endomorphisms", lambda self: (real(self)[0], real(self)[1][:-1]))
    with pytest.raises(ConsistencyError, match="relative trace of the Higman solution"):
        is_projective(direct_sum(P, trivial_module(G, F2)))


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

    real_hom, real_structure = modrep.hom_basis_and_seeds, meataxe.algebra_structure

    def hom(field, src, tgt, *dims):
        for W in summands:  # a summand's own matrix objects on both sides: its End_G
            if same(src, W.matrices, op.is_) and same(tgt, W.matrices, op.is_):
                repeats.append(("End", W.dim))
        return real_hom(field, src, tgt, *dims)

    def structure(field, basis, *args):
        repeats.extend(("structure", len(E)) for E in ends if same(basis, E, np.array_equal))
        return real_structure(field, basis, *args)

    monkeypatch.setattr(modrep, "hom_basis_and_seeds", hom)
    monkeypatch.setattr(meataxe, "algebra_structure", structure)
    for W in summands:
        Q = vertex(W)
        assert source(W).vertex is Q
        source(W, Q)
    assert repeats == []


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
    # the Higman system is built from the traces of the End_Q(V) basis
    G = catalog()[name]
    K = make_field(p, n)
    reg = regular_module(G, K)
    pim = decompose(reg).summands[0][0]
    for V in (trivial_module(G, K), reg, pim):
        for Q in p_subgroups_up_to_conjugacy(G, p):
            q_mats = [V.element_matrix(g) for g in Q.group.generators]
            basis = hom_basis_matrices(K, q_mats, q_mats, V.dim, V.dim)
            T = right_transversal(G, Q)
            got = _relative_trace(V, T, np.stack(basis), range(V.dim))
            want = np.stack([_reference_relative_trace(V, T, phi) for phi in basis])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (name, p, n, V.dim, Q.order)


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
    seeds = V.endomorphisms()[1]
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


def test_projectivity_of_regular_s5_fits_in_one_gib():
    # the d^2 unit maps of the 120-dimensional module alone would take 1.5 GiB
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "import modclass as mc\n"
        "S5 = mc.PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])\n"
        "print(bool(mc.is_projective(mc.regular_module(S5, mc.make_field(2, 1)))))\n"
    )
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
