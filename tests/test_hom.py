"""Hom spaces from spinning and from orbitals, checked against the dense
Kronecker solver and against each other.

The reference solves M A_g = B_g M for all d_src * d_tgt entries of M at
once, as one (g * d_tgt * d_src) x (d_tgt * d_src) system on the row-major
vec(M).  ``hom_space`` must return exactly the basis that the
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
    hom_space,
    induce,
    permutation_module,
    regular_module,
    restrict_subgroup,
    trivial_module,
)
from modclass.perm_group import PermGroup, catalog, p_subgroups_up_to_conjugacy


def kronecker_hom_basis(V, U):
    """Reference solver: the nullspace of the Kronecker system for vec(M)."""
    field, d_src, d_tgt = V.field, V.dim, U.dim
    D = d_src * d_tgt
    if D == 0:
        return []
    blocks = []
    eye_t = np.eye(d_tgt, dtype=np.int64)
    eye_s = np.eye(d_src, dtype=np.int64)
    for A, B in zip(V.matrices, U.matrices):
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
    """hom_space equals the spin solver byte for byte, and the seeds of V
    equal the spin-log oracle, before and after the spin solver sets them
    on a fresh copy of V."""
    basis = hom_space(V, U)
    assert V.seeds() == spin_log_seeds(V)
    fresh = Rep(V.group, V.field, V.matrices, check=False, dim=V.dim)
    spun = modrep._spin_hom_basis(fresh, U)
    _assert_same_basis(basis, spun)
    assert fresh._seeds == V.seeds()


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
                _assert_same_basis(hom_space(V, U), kronecker_hom_basis(V, U))
                _assert_same_hom(V, U)


EXTEND_GRID = [(name, p) for name, G in catalog().items() for p in (2, 3, 5, 7) if G.order % p == 0]


@pytest.mark.parametrize("name, p", EXTEND_GRID)
def test_extend_scalars_carries_end_and_seeds(name, p):
    # End(V) read over L and the seeds of V against a fresh solve on a copy
    # that holds nothing: GF(p) to GF(p^2) and GF(p^3), GF(p^2) to GF(p^4)
    G = catalog()[name]
    rng = np.random.default_rng(G.order * 10 + p)
    for m, degrees in ((1, (2, 3)), (2, (4,))):
        K = make_field(p, m)
        reg = regular_module(G, K)
        for V in [*simple_modules(G, K).modules, reg, _random_basis(reg, rng)]:
            V.endomorphisms()
            V.seeds()
            for n in degrees:
                L = make_field(p, n)
                U = modrep.extend_scalars(V, L)
                fresh = Rep(G, L, U.matrices, check=False, dim=U.dim)
                assert U._end is not None and not U._end.flags.writeable
                want = hom_space(fresh, fresh)
                assert U._end.dtype == want.dtype and U._end.shape == want.shape
                assert U._end.tobytes() == want.tobytes()
                assert U._seeds == fresh.seeds()
    # a module that has solved nothing hands nothing on
    V = _random_basis(regular_module(G, make_field(p, 1)), rng)
    U = modrep.extend_scalars(V, make_field(p, 2))
    assert U._end is None and U._seeds is None
    assert U.seeds() == spin_log_seeds(U)


def test_one_spin_serves_every_hom_out_of_a_module(monkeypatch):
    # not a permutation module: the seeds and two hom solves out of V take
    # one logged spin of V, and the key is worked out once
    G, K = catalog()["S4"], make_field(2, 1)
    V = _random_basis(regular_module(G, K), np.random.default_rng(3))
    U1 = simple_modules(G, K).modules[-1]
    U2 = _random_basis(direct_sum(U1, trivial_module(G, K)), np.random.default_rng(4))
    want = spin_log_seeds(Rep(G, K, V.matrices, check=False))
    logged = []
    real = linalg.spin

    def counting(field, mats, seeds, log=None):
        if log is not None:
            logged.append(len(seeds))
        return real(field, mats, seeds, log=log)

    monkeypatch.setattr(linalg, "spin", counting)
    assert len(hom_space(V, U1)) and len(hom_space(V, U2))
    assert V.seeds() == want
    assert logged == [V.dim]
    assert V.key() is V.key()


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

    def counting(V, U):
        calls.append((V.dim, U.dim))
        return spin(V, U)

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
    bare = PermGroup(1, [])
    V, U = Rep(bare, K, [], dim=2), Rep(bare, K, [], dim=3)
    _assert_same_basis(hom_space(V, U), kronecker_hom_basis(V, U))
    assert len(hom_space(V, U)) == 6
    # identity generators on both sides (a trivial subgroup) act like none;
    # on one side only they do not
    I2, I3 = np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)
    P3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.int64)
    twice, c3 = PermGroup(1, [(0,), (0,)]), PermGroup(3, [(1, 2, 0)])
    for G, src, tgt in ((twice, [I2, I2], [I3, I3]), (c3, [I2], [P3])):
        V, U = Rep(G, K, src), Rep(G, K, tgt)
        _assert_same_basis(hom_space(V, U), kronecker_hom_basis(V, U))
    assert len(hom_space(V, U)) == 2
    c2 = PermGroup(2, [(1, 0)])
    A = Rep(c2, K, [np.array([[0, 1], [1, 0]], dtype=np.int64)])
    empty = Rep(c2, K, [np.zeros((0, 0), dtype=np.int64)])
    assert hom_space(empty, A).shape == (0, 2, 0)
    assert hom_space(A, empty).shape == (0, 0, 2)
    assert hom_space(empty, empty).shape == (0, 0, 0)


@pytest.mark.parametrize("name", list(catalog()))
def test_one_dimensional_hom_matches_orbital_and_spin(name, monkeypatch):
    # Hom between two lines is [[1]] when they carry the same action, else
    # zero, and needs no solve; the lines are the 1-dimensional simple
    # modules over GF(p) and GF(p^2)
    G = catalog()[name]
    fields = [make_field(p, n) for p in sorted({2, 3} | {p for p in (5, 7) if G.order % p == 0}) for n in (1, 2)]
    pairs = []
    for K in fields:
        lines = [W for W in simple_modules(G, K).modules if W.dim == 1]
        pairs += [(V, U) for V in lines for U in lines]
    want = []
    for V, U in pairs:
        spin = modrep._spin_hom_basis(V, U)
        if V.permutations is not None and U.permutations is not None:
            orbital = modrep._orbital_hom_basis(V, U)
            assert orbital.shape == spin.shape and orbital.tobytes() == spin.tobytes()
        want.append(spin)

    def solve(*args):
        raise AssertionError("a Hom between lines was solved")

    monkeypatch.setattr(modrep, "_spin_hom_basis", solve)
    monkeypatch.setattr(modrep, "_orbital_hom_basis", solve)
    for (V, U), w in zip(pairs, want):
        got = hom_space(V, U)
        assert got.dtype == w.dtype and got.shape == w.shape and got.tobytes() == w.tobytes()
    # distinct lines over one field have no map between them
    assert sorted({len(w) for w in want}) == ([0, 1] if len(pairs) > len(fields) else [1])


def test_rep_endomorphisms_are_the_hom_basis_solved_once(monkeypatch):
    K = make_field(2, 2)
    reg = regular_module(catalog()["S3"], K)
    mods = [reg, _random_basis(reg, np.random.default_rng(5)), direct_sum(reg, trivial_module(reg.group, K))]
    mods.append(Rep(PermGroup(1, []), K, [], dim=2))
    solved = [(V.endomorphisms(), V.seeds()) for V in mods]
    for V, (basis, seeds) in zip(mods, solved):
        _assert_same_basis(basis, hom_space(V, V))
        assert seeds and tuple(sorted(seeds)) == seeds

    def forbidden(*args):
        raise AssertionError("End or the seeds solved a second time")

    monkeypatch.setattr(modrep, "hom_space", forbidden)
    monkeypatch.setattr(linalg, "spin", forbidden)
    monkeypatch.setattr(modrep, "_orbit_labels", forbidden)
    assert all(V.endomorphisms() is got[0] and V.seeds() is got[1] for V, got in zip(mods, solved))


def test_end_solve_gives_the_seeds_without_a_second_spin(monkeypatch):
    # a module that is not a permutation module is spun once, by its End
    # solve, and its seeds are read off the log of that spin
    V = _random_basis(regular_module(catalog()["S4"], make_field(2, 1)), np.random.default_rng(3))
    want = spin_log_seeds(V)
    spins = []
    real = linalg.spin
    monkeypatch.setattr(linalg, "spin", lambda *args, **kwargs: spins.append(args) or real(*args, **kwargs))
    V.endomorphisms()
    assert V.seeds() == want
    assert len(spins) == 1


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
