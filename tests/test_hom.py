"""Hom spaces from spinning and from orbitals, checked against the dense
Kronecker solver and against each other.

The reference solves M A_g = B_g M for all d_src * d_tgt entries of M at
once, as one (g * d_tgt * d_src) x (d_tgt * d_src) system on the row-major
vec(M).  ``hom_basis_matrices`` must return exactly the basis that the
reference's nullspace returns, matrix for matrix and in the same order,
because the randomized searches downstream take their branches from it.
Between permutation modules the basis comes from the orbits on the cells
of M; there the spin solver is a second oracle.  ``Rep.seeds`` is checked
against the seed bookkeeping of a logged spin from e_0, e_1, ...
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from modclass import green, linalg, modrep
from modclass.errors import ConsistencyError
from modclass.finite_field import make_field
from modclass.meataxe import composition_factors, decompose, simple_modules
from modclass.modrep import (
    Rep,
    direct_sum,
    hom_basis_matrices,
    induce,
    permutation_module,
    regular_module,
    restrict_subgroup,
    trivial_module,
)
from modclass.perm_group import PermGroup, catalog, p_subgroups_up_to_conjugacy


def kronecker_hom_basis(field, mats_src, mats_tgt, d_src, d_tgt):
    """Reference solver: the nullspace of the Kronecker system for vec(M)."""
    D = d_src * d_tgt
    if D == 0:
        return []
    blocks = []
    eye_t = np.eye(d_tgt, dtype=np.int64)
    eye_s = np.eye(d_src, dtype=np.int64)
    for A, B in zip(mats_src, mats_tgt):
        left = np.kron(eye_t, A.T)  # vec(M A), row-major vec
        right = np.kron(B, eye_s)  # vec(B M)
        blocks.append(field.sub(left, right))
    if not blocks:
        return [m.reshape(d_tgt, d_src) for m in np.eye(D, dtype=np.int64)]
    rows = linalg.nullspace(field, np.vstack(blocks))
    return [row.reshape(d_tgt, d_src) for row in rows]


def _assert_same_basis(got, want):
    assert len(got) == len(want)
    for M, R in zip(got, want):
        assert M.dtype == R.dtype and M.shape == R.shape
        assert M.tobytes() == R.tobytes()


def spin_log_seeds(V: Rep) -> tuple[int, ...]:
    """Oracle for ``V.seeds()``: the unit vectors that a logged spin of V
    from e_0, e_1, ... takes, the seeds the spin solver starts its chains at."""
    log: list = []
    linalg.spin(V.field, list(V.matrices), list(V.field.identity(V.dim)), log=log)
    return tuple(g for j, g, _ in log if j < 0)


def _assert_same_hom(V, U):
    """hom_basis_matrices equals the spin solver byte for byte, and the
    seeds of V equal the spin-log oracle."""
    K = V.field
    basis = hom_basis_matrices(K, V.matrices, U.matrices, V.dim, U.dim)
    spun = modrep._spin_hom_basis(K, V.matrices, U.matrices, V.dim, U.dim)
    _assert_same_basis(basis, spun)
    assert V.seeds() == spin_log_seeds(V)


def _permutation_modules(G, K):
    """Transitive and intransitive permutation modules of G."""
    reg, triv = regular_module(G, K), trivial_module(G, K)
    Q = p_subgroups_up_to_conjugacy(G, K.p)[-1]
    mods = [induce(trivial_module(Q.group, K), G), permutation_module(G, K)]
    if reg.dim < 24:
        mods += [direct_sum(reg, triv), induce(trivial_module(G.trivial_subgroup().group, K), G)]
    return mods


def _random_basis(V: Rep, rng) -> Rep:
    K = V.field
    Q = None
    while Q is None or not linalg.is_invertible(K, Q):
        Q = K.rand_codes(rng, (V.dim, V.dim))
    Qi = linalg.inverse(K, Q)
    return Rep(V.group, K, [K.mat_mul(K.mat_mul(Qi, M), Q) for M in V.matrices], check=False)


GRID = [
    (name, p, n)
    for name, G in catalog().items()
    for p in (2, 3, 5, 7)
    if G.order % p == 0
    for n in (1, 2)
]


@pytest.mark.parametrize("name, p, n", GRID)
def test_spinning_matches_kronecker_oracle(name, p, n):
    G = catalog()[name]
    K = make_field(p, n)
    rng = np.random.default_rng(G.order * 100 + p * 10 + n)
    reg = regular_module(G, K)
    triv = trivial_module(G, K)
    simples = list({W.dim: W for W in composition_factors(reg)}.values())
    pair = direct_sum(simples[-1], simples[-1])
    # the dense reference over GF(p^2) needs a minute for a random-basis
    # 24-dimensional module, so S4 gets a smaller random-basis module there
    mixed = _random_basis(reg if n == 1 or reg.dim <= 12 else pair, rng)
    mods = [triv, reg, mixed, *simples, pair]
    mods.append(direct_sum(reg, triv) if reg.dim < 24 else direct_sum(triv, simples[-1]))
    mods += _permutation_modules(G, K)
    # the same dimensions under the identity generator of the trivial
    # subgroup, and under no generators at all
    dims = (triv, simples[-1], pair, reg)
    trivial = [restrict_subgroup(V, G.trivial_subgroup()) for V in dims]
    bare = [Rep(PermGroup(1, []), K, [], dim=V.dim) for V in dims]
    for group in (mods, trivial, bare):
        for V in group:
            for U in group:
                got = hom_basis_matrices(K, V.matrices, U.matrices, V.dim, U.dim)
                want = kronecker_hom_basis(K, V.matrices, U.matrices, V.dim, U.dim)
                _assert_same_basis(got, want)
                _assert_same_hom(V, U)


def test_orbital_basis_matches_spin_solver_over_gf_2_20():
    G = catalog()["A4"]
    K = make_field(2, 20)
    reg = regular_module(G, K)
    mods = [reg, direct_sum(reg, trivial_module(G, K)), *_permutation_modules(G, K)]
    for V in mods:
        for U in mods:
            _assert_same_hom(V, U)


def test_permutation_modules_never_enter_the_spin_solver(monkeypatch):
    calls = []
    spin = modrep._spin_hom_basis

    def counting(*args):
        calls.append(args[3:])
        return spin(*args)

    monkeypatch.setattr(modrep, "_spin_hom_basis", counting)
    for name in ("S3", "A4", "S4"):
        G = catalog()[name]
        K = make_field(2, 2)
        reg = regular_module(G, K)
        for V in [reg, direct_sum(reg, trivial_module(G, K)), *_permutation_modules(G, K)]:
            assert len(V.endomorphisms()) >= 1
        for Q in p_subgroups_up_to_conjugacy(G, 2):
            assert green.is_relatively_projective(reg, Q)
    assert calls == []
    # a permutation module in another basis is solved by spinning
    moved = _random_basis(regular_module(catalog()["S3"], make_field(2, 2)), np.random.default_rng(1))
    moved.endomorphisms()
    assert calls == [(6, 6)]


@pytest.mark.parametrize("name", ["S3", "A4", "S4"])
def test_seeds_of_permutation_modules_are_read_off_the_orbits(name, monkeypatch):
    # the least point of each orbit, as the spin-log oracle finds it, and no spin
    G = catalog()[name]
    K = make_field(3, 1)
    reg = regular_module(G, K)
    mods = [*_permutation_modules(G, K), direct_sum(reg, trivial_module(G, K)), trivial_module(G, K)]
    want = [spin_log_seeds(V) for V in mods]

    def no_spin(*args, **kwargs):
        raise AssertionError("the seeds of a permutation module were spun")

    monkeypatch.setattr(linalg, "spin", no_spin)
    assert [V.seeds() for V in mods] == want
    assert [len(s) for s in want[-2:]] == [2, 1]


def test_corrupted_permutation_decode_fails_the_intertwining_check(monkeypatch):
    # the orbits come from the decoded permutations, the check from the
    # matrices themselves, so a wrong decode must raise, also under python -O
    real = modrep._permutation
    monkeypatch.setattr(modrep, "_permutation", lambda M: None if real(M) is None else np.arange(len(M)))
    reg = regular_module(catalog()["S3"], make_field(2, 1))
    with pytest.raises(ConsistencyError, match="does not intertwine"):
        reg.endomorphisms()


def test_permutation_test_short_circuits_on_the_first_other_matrix(monkeypatch):
    seen = []
    real = modrep._permutation
    monkeypatch.setattr(modrep, "_permutation", lambda M: seen.append(M) or real(M))
    P3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.int64)
    A = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    assert modrep._permutations([A, P3, P3]) is None
    assert len(seen) == 1
    for M in (2 * np.eye(3, dtype=np.int64), np.ones((3, 3), dtype=np.int64), P3 + P3.T, P3[[0, 0, 1]]):
        assert real(M) is None
    assert real(P3).tolist() == [1, 2, 0]


def test_empty_generator_list_and_zero_dimension():
    K = make_field(3, 2)
    # no generators (trivial group): every matrix is a homomorphism
    _assert_same_basis(hom_basis_matrices(K, [], [], 2, 3), kronecker_hom_basis(K, [], [], 2, 3))
    assert len(hom_basis_matrices(K, [], [], 2, 3)) == 6
    # identity generators on both sides (a trivial subgroup) act like none;
    # on one side only they do not
    I2, I3 = np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)
    P3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.int64)
    for src, tgt in (([I2, I2], [I3, I3]), ([I2], [P3])):
        _assert_same_basis(hom_basis_matrices(K, src, tgt, 2, 3), kronecker_hom_basis(K, src, tgt, 2, 3))
    assert len(hom_basis_matrices(K, [I2], [P3], 2, 3)) == 2
    A = np.array([[0, 1], [1, 0]], dtype=np.int64)
    empty = np.zeros((0, 0), dtype=np.int64)
    assert hom_basis_matrices(K, [empty], [A], 0, 2) == []
    assert hom_basis_matrices(K, [A], [empty], 2, 0) == []
    assert hom_basis_matrices(K, [empty], [empty], 0, 0) == []


def test_rep_endomorphisms_are_the_hom_basis_solved_once(monkeypatch):
    K = make_field(2, 2)
    reg = regular_module(catalog()["S3"], K)
    mods = [reg, _random_basis(reg, np.random.default_rng(5)), direct_sum(reg, trivial_module(reg.group, K))]
    mods.append(Rep(PermGroup(1, []), K, [], dim=2))
    solved = [(V.endomorphisms(), V.seeds()) for V in mods]
    for V, (basis, seeds) in zip(mods, solved):
        _assert_same_basis(basis, hom_basis_matrices(K, V.matrices, V.matrices, V.dim, V.dim))
        assert seeds and tuple(sorted(seeds)) == seeds

    def forbidden(*args):
        raise AssertionError("End or the seeds solved a second time")

    monkeypatch.setattr(modrep, "hom_basis_matrices", forbidden)
    monkeypatch.setattr(linalg, "spin", forbidden)
    monkeypatch.setattr(modrep, "_orbit_labels", forbidden)
    assert all(V.endomorphisms() is got[0] and V.seeds() is got[1] for V, got in zip(mods, solved))


def test_trivial_action_and_gf_2_20_end_fit_in_one_gib():
    # the d^2 unit maps of a trivially acting 120-dimensional module take 1.5 GiB
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "import modclass as mc\n"
        "from modclass.modrep import restrict_subgroup\n"
        "S5 = mc.PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])\n"
        "res = restrict_subgroup(mc.regular_module(S5, mc.make_field(2, 1)), S5.trivial_subgroup())\n"
        "print([(W.dim, m) for W, m in mc.decompose(res).summands])\n"
        "print(len(mc.regular_module(S5, mc.make_field(2, 20)).endomorphisms()))\n"
    )
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[(1, 120)]", "120"]


def test_regular_s5_mod_5_decomposes():
    # dimension 120: the Kronecker system would take about 3.3 GB
    S5 = PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    K = make_field(5, 1)
    dec = decompose(regular_module(S5, K))
    assert sum(W.dim * m for W, m in dec.summands) == 120
    # each projective indecomposable occurs as often as its simple head's dimension
    dims = sorted(W.dim for W in simple_modules(S5, K).modules)
    assert len(dec.summands) == len(dims)
    assert sorted(mult for _, mult in dec.summands) == dims
