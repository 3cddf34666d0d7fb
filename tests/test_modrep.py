"""Representations and the module functors: scalars, subgroups, homs."""

import numpy as np
import pytest

from modclass import linalg, modrep
from modclass.errors import InputError, NotSubfieldError
from modclass.finite_field import make_field
from modclass.perm_group import (
    PermGroup,
    Subgroup,
    catalog,
    p_subgroups_up_to_conjugacy,
    pmul,
    right_transversal,
)
from modclass.modrep import (
    Rep,
    direct_sum,
    extend_scalars,
    frobenius_twist,
    hom_space,
    induce,
    regular_module,
    restrict_scalars,
    restrict_subgroup,
    trivial_module,
    validate,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def test_regular_module_is_permutation_action():
    G = catalog()["S3"]
    reg = regular_module(G, F2)
    assert reg.dim == 6
    assert validate(reg) == []
    for g in G.elements:
        M = reg.element_matrix(g)
        assert np.array_equal(M.sum(axis=0), np.ones(6, dtype=np.int64))
        assert np.array_equal(M.sum(axis=1), np.ones(6, dtype=np.int64))
        # the integer trace counts fixed points of right multiplication:
        # |G| at the identity and 0 elsewhere
        expected = 6 if g == G.elements[0] else 0
        assert int(np.trace(M)) == expected
        for i, x in enumerate(G.elements):
            j = G.index_of(pmul(x, g))
            assert M[i, j] == 1


def test_element_matrix_is_multiplicative():
    G = catalog()["A4"]
    reg = regular_module(G, F3)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, G.order, size=(12, 2))
    for i, j in idx:
        g, h = G.elements[i], G.elements[j]
        lhs = reg.element_matrix(pmul(g, h))
        rhs = F3.mat_mul(reg.element_matrix(g), reg.element_matrix(h))
        assert np.array_equal(lhs, rhs)


def test_rep_constructor_validation():
    G = catalog()["C3"]
    with pytest.raises(InputError):
        Rep(G, F2, [np.array([[1, 1], [1, 1]], dtype=np.int64)])  # singular
    with pytest.raises(InputError):
        Rep(G, F2, [])  # wrong count
    with pytest.raises(InputError):
        Rep(G, F2, [np.array([[2]], dtype=np.int64)])  # entry out of range


def test_modules_of_a_group_without_generators():
    # no matrix to read the dimension off, so the constructors pass it
    G = PermGroup(1, [])
    assert trivial_module(G, F2).dim == 1
    assert regular_module(G, F2).dim == 1
    assert direct_sum(trivial_module(G, F2), trivial_module(G, F2)).dim == 2
    assert Rep(G, F2, [], dim=3).dim == 3
    with pytest.raises(InputError):
        Rep(G, F2, [])
    with pytest.raises(InputError):
        Rep(catalog()["C3"], F2, [np.eye(2, dtype=np.int64)], dim=3)


def test_validate_catches_wrong_relations():
    # the generator of C4 sent to a matrix of order 3 is not a module
    G = catalog()["C4"]
    M = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    V = Rep(G, F2, [M], check=False)
    assert validate(V) != []


def test_trivial_and_direct_sum():
    G = catalog()["S3"]
    t = trivial_module(G, F2)
    assert t.dim == 1 and validate(t) == []
    reg = regular_module(G, F2)
    s = direct_sum(t, reg)
    assert s.dim == 7
    assert validate(s) == []


def test_extend_scalars_embeds_entries():
    G = catalog()["C3"]
    reg = regular_module(G, F2)
    ext = extend_scalars(reg, F4)
    assert ext.field is F4 and ext.dim == 3
    assert validate(ext) == []
    # permutation matrices have 0/1 entries, fixed by any embedding
    assert all(np.array_equal(a, b) for a, b in zip(ext.matrices, reg.matrices))
    with pytest.raises(NotSubfieldError):
        extend_scalars(reg, F3)


def test_restrict_scalars_interleaves_coordinates():
    G = catalog()["C3"]
    tr = trivial_module(G, F4)
    down = restrict_scalars(tr, F2)
    assert down.dim == 2 and down.field is F2
    assert validate(down) == []
    # the trivial GF(4)-line restricts to the identity on 2 coordinates
    assert np.array_equal(down.matrices[0], F2.identity(2))


def test_restrict_scalars_dimension_scales():
    G = catalog()["C7"]
    F8 = make_field(2, 3)
    tr = trivial_module(G, F8)
    down = restrict_scalars(tr, F2)
    assert down.dim == 3
    with pytest.raises(NotSubfieldError):
        restrict_scalars(trivial_module(G, F4), F3)  # wrong characteristic


def test_restrict_scalars_builds_subfield_coordinates_once():
    V = extend_scalars(regular_module(catalog()["S3"], F2), make_field(2, 4))
    modrep._subfield_coordinates.cache_clear()
    downs = [restrict_scalars(V, F4) for _ in range(3)]
    info = modrep._subfield_coordinates.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for down in downs[1:]:
        assert [M.tobytes() for M in down.matrices] == [M.tobytes() for M in downs[0].matrices]


def test_restrict_subgroup_picks_generator_images():
    G = catalog()["S3"]
    reg = regular_module(G, F2)
    H = G.generated_subgroup([(1, 0, 2)])
    res = restrict_subgroup(reg, H)
    assert res.dim == 6 and res.group == H.group
    assert validate(res) == []
    for k, h in enumerate(H.group.generators):
        assert np.array_equal(res.matrices[k], reg.element_matrix(h))


def test_induce_regular_gives_regular():
    G = catalog()["S3"]
    H = G.generated_subgroup([(1, 0, 2)])
    regH = regular_module(H.group, F2)
    ind = induce(regH, G)
    assert ind.dim == 6
    assert validate(ind) == []


def test_induce_trivial_is_coset_permutation_module():
    G = catalog()["S3"]
    H = G.generated_subgroup([(1, 0, 2)])
    ind = induce(trivial_module(H.group, F2), G)
    assert ind.dim == 3
    assert validate(ind) == []
    for M in ind.matrices:
        assert np.array_equal(M.sum(axis=0), np.ones(3, dtype=np.int64))


def test_induce_rejects_non_subgroup():
    G3 = catalog()["C3"]
    V = trivial_module(G3, F2)
    with pytest.raises(InputError):
        induce(V, catalog()["S4"])  # degree mismatch


def test_frobenius_twist_involution_on_gf4():
    G = catalog()["C3"]
    reg4 = extend_scalars(regular_module(G, F4), F4)
    t1 = frobenius_twist(reg4, 1)
    t2 = frobenius_twist(t1, 1)
    assert all(np.array_equal(a, b) for a, b in zip(t2.matrices, reg4.matrices))
    t0 = frobenius_twist(reg4, 0)
    assert all(np.array_equal(a, b) for a, b in zip(t0.matrices, reg4.matrices))


def test_identity_frobenius_twist_returns_the_module():
    reg4 = extend_scalars(regular_module(catalog()["C3"], F4), F4)
    assert frobenius_twist(reg4, 0) is reg4
    assert frobenius_twist(reg4, F4.n) is reg4  # exponents are taken mod n
    assert frobenius_twist(reg4, 1) is not reg4


def test_hom_space_dimensions():
    G = catalog()["C3"]
    reg = regular_module(G, F2)
    tr = trivial_module(G, F2)
    assert len(hom_space(reg, reg)) == 3  # End of the regular module is the algebra
    assert len(hom_space(tr, reg)) == 1
    assert len(hom_space(reg, tr)) == 1
    S3 = catalog()["S3"]
    regs = regular_module(S3, F2)
    assert len(hom_space(regs, regs)) == 6


def test_hom_space_members_intertwine():
    G = catalog()["S3"]
    reg = regular_module(G, F2)
    for M in hom_space(reg, reg):
        for A in reg.matrices:
            assert np.array_equal(F2.mat_mul(M, A), F2.mat_mul(A, M))


def test_hom_space_requires_matching_group_and_field():
    V = regular_module(catalog()["C3"], F2)
    U = regular_module(catalog()["S3"], F2)
    with pytest.raises(InputError):
        hom_space(V, U)


def test_negative_explicit_dimension_is_refused():
    # a group without generators takes its dimension from `dim` alone
    with pytest.raises(InputError, match="dimension must be >= 0, got -1"):
        Rep(PermGroup(1, []), F2, [], dim=-1)


def _word(G, g):
    # generator indices of the word of g, rebuilt from the breadth-first word tree
    i, word = G.index_of(g), []
    while i:
        word.append(int(G._gen[i]))
        i = G._parent[i]
    return word[::-1]


def _word_fold(V, g):
    # the image of g as the product of generator images along its word, letter by letter
    M = V.field.identity(V.dim)
    for k in _word(V.group, g):
        M = V.field.mat_mul(M, V.matrices[k])
    return M


C199 = PermGroup(199, [tuple(range(1, 199)) + (0,)])


def _word_fold_case(case):
    if case == "C199":
        return Rep(C199, make_field(199, 1), [np.array([[1, 1], [0, 1]])])
    if case == "no-generators":
        return Rep(PermGroup(3, []), F4, [], dim=3)
    if case == "zero-dim":
        return Rep(catalog()["S4"], F3, [np.zeros((0, 0), dtype=np.int64)] * 2)
    K = F3 if case == "A4" else F4
    G = catalog()[case]
    return direct_sum(regular_module(G, K), trivial_module(G, K))


@pytest.mark.parametrize("case", ["S4", "Q8", "A4", "C199", "no-generators", "zero-dim"])
def test_element_matrix_matches_word_fold(case):
    # the whole stack, and single elements asked in a random order; words
    # up to length 198 in C199, one level per letter
    V = _word_fold_case(case)
    G, d = V.group, V.dim
    stack = V.element_matrices()
    assert stack.shape == (G.order, d, d) and stack.dtype == np.int64
    assert not stack.flags.writeable and V.element_matrices() is stack
    for g, got in zip(G.elements, stack):
        want = _word_fold(V, g)
        assert got.tobytes() == want.tobytes(), g
        assert len(_word(G, g)) == G._level[G.index_of(g)]
    elements = list(G.elements)
    np.random.default_rng(5).shuffle(elements)
    for g in elements:
        got, want = V.element_matrix(g), _word_fold(V, g)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), g
        assert not got.flags.writeable
    if case == "C199":
        assert G._level.max() == 198


def test_element_matrix_of_a_permutation_outside_the_group_is_refused():
    V = regular_module(catalog()["A4"], F2)
    with pytest.raises(InputError, match="not a group element"):
        V.element_matrix((1, 0, 2, 3))  # a transposition, odd
    with pytest.raises(InputError, match="not a group element"):
        V.element_matrix((0, 1, 2))  # wrong degree


def _induce_by_cosets(V, G):
    # the coset loop that induce replaced: coset, representative and block
    # of each (coset, generator) by permutation products
    H = V.group
    T = [G.elements[t] for t in right_transversal(G, Subgroup(G, H.elements))]
    coset_of = {pmul(h, t): j for j, t in enumerate(T) for h in H.elements}
    d, k = V.dim, len(T)
    mats = []
    for gen in G.generators:
        M = np.zeros((k * d, k * d), dtype=np.int64)
        for i, t in enumerate(T):
            u = pmul(t, gen)
            j = coset_of[u]
            h = pmul(u, tuple(int(x) for x in np.argsort(T[j])))  # u t_j^-1
            assert h in H.elements
            M[i * d : (i + 1) * d, j * d : (j + 1) * d] = _word_fold(V, h)
        mats.append(M)
    return mats


def _random_basis(V, rng):
    K = V.field
    C = None
    while C is None or not linalg.is_invertible(K, C):
        C = K.rand_codes(rng, (V.dim, V.dim))
    Ci = linalg.inverse(K, C)
    return Rep(V.group, K, [K.mat_mul(K.mat_mul(Ci, M), C) for M in V.matrices], check=False)


S5 = PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


@pytest.mark.parametrize("name", [*catalog(), "S5"])
def test_element_matrix_folds_words_until_the_stack_is_built(name):
    # on a fresh module each element's word is folded, with the bytes of
    # the stack; neither the fold nor a restriction builds the stack
    G = S5 if name == "S5" else catalog()[name]
    K = make_field(min(p for p in (2, 3, 5, 7) if G.order % p == 0), 2)
    natural = _random_basis(modrep.permutation_module(G, K), np.random.default_rng(1))
    for V in (regular_module(G, K), natural):
        stack = Rep(G, K, V.matrices, check=False).element_matrices()
        for i, g in enumerate(G.elements):
            M = V.element_matrix(g)
            assert M.dtype == np.int64 and M.tobytes() == stack[i].tobytes(), g
            assert not M.flags.writeable
        for Q in p_subgroups_up_to_conjugacy(G, K.p):
            res = restrict_subgroup(V, Q)
            want = [stack[G.index_of(h)].tobytes() for h in Q.group.generators]
            assert [M.tobytes() for M in res.matrices] == want
        assert V._stack is None


@pytest.mark.parametrize("name", [*catalog(), "S5"])
def test_induce_matches_coset_loop_oracle(name):
    # from every p-subgroup class, of the trivial module and of the regular
    # module in a random basis (no permutation matrices)
    G = S5 if name == "S5" else catalog()[name]
    rng = np.random.default_rng(G.order)
    for p in (2, 3, 5, 7):
        if G.order % p:
            continue
        K = make_field(p, 1)
        for Q in p_subgroups_up_to_conjugacy(G, p):
            for V in (trivial_module(Q.group, K), _random_basis(regular_module(Q.group, K), rng)):
                got = induce(V, G)
                want = _induce_by_cosets(V, G)
                assert got.dim == len(G.elements) // Q.order * V.dim
                assert [M.tobytes() for M in got.matrices] == [M.tobytes() for M in want], (name, p, Q.order)


def _validate_by_pairs(V):
    # the pair loop that validate replaced, on word folds
    singular = [k for k, M in enumerate(V.matrices) if V.dim and not linalg.is_invertible(V.field, M)]
    if singular:
        return ["generator %d image is singular" % k for k in singular]
    for a in V.group.elements:
        for b in V.group.generators:
            lhs = V.field.mat_mul(_word_fold(V, a), _word_fold(V, b))
            if not np.array_equal(lhs, _word_fold(V, pmul(a, b))):
                return ["multiplicativity fails at element pair %r, %r" % (a, b)]
    return []


def _broken_modules():
    # the C4 generator sent to a matrix of order 3, regular S4 with one
    # generator's rows swapped, and a singular generator
    yield Rep(catalog()["C4"], F2, [np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])], check=False)
    S4 = catalog()["S4"]
    for k, (r, s) in [(0, (0, 1)), (1, (3, 17)), (1, (22, 23))]:
        mats = [M.copy() for M in regular_module(S4, F3).matrices]
        mats[k][[r, s]] = mats[k][[s, r]]
        yield Rep(S4, F3, mats, check=False)
    yield Rep(catalog()["S3"], F2, [np.eye(2, dtype=np.int64), np.ones((2, 2), dtype=np.int64)], check=False)


def test_validate_matches_pair_loop_oracle():
    for V in _broken_modules():
        got = validate(V)
        assert got and got == _validate_by_pairs(V)
    for name in ("S4", "Q8"):
        V = direct_sum(regular_module(catalog()[name], F4), trivial_module(catalog()[name], F4))
        assert validate(V) == _validate_by_pairs(V) == []
    assert validate(_word_fold_case("zero-dim")) == validate(_word_fold_case("no-generators")) == []
