"""Representations and the module functors: scalars, subgroups, homs."""

import numpy as np
import pytest

from modclass import modrep
from modclass.errors import InputError, NotSubfieldError
from modclass.finite_field import make_field
from modclass.perm_group import PermGroup, catalog, pmul
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
    assert hom_space(reg, reg).dim == 3  # End of the regular module is the algebra
    assert hom_space(tr, reg).dim == 1
    assert hom_space(reg, tr).dim == 1
    S3 = catalog()["S3"]
    regs = regular_module(S3, F2)
    assert hom_space(regs, regs).dim == 6


def test_hom_space_members_intertwine():
    G = catalog()["S3"]
    reg = regular_module(G, F2)
    H = hom_space(reg, reg)
    for M in H.basis:
        for A in reg.matrices:
            assert np.array_equal(F2.mat_mul(M, A), F2.mat_mul(A, M))


def test_hom_space_requires_matching_group_and_field():
    V = regular_module(catalog()["C3"], F2)
    U = regular_module(catalog()["S3"], F2)
    with pytest.raises(InputError):
        hom_space(V, U)


def _word_fold(V, g):
    # the image of g as the product of generator images along its word, letter by letter
    M = V.field.identity(V.dim)
    for k in V.group.word(g):
        M = V.field.mat_mul(M, V.matrices[k])
    return M


C199 = PermGroup(199, [tuple(range(1, 199)) + (0,)])


@pytest.mark.parametrize("case", ["S4", "Q8", "A4", "C199"])
def test_element_matrix_matches_word_fold(case):
    # words up to length 198 in C199; asked in a random order, so elements
    # come both after and before their prefixes
    if case == "C199":
        K = make_field(199, 1)
        V = Rep(C199, K, [np.array([[1, 1], [0, 1]])])
    else:
        K = F3 if case == "A4" else F4
        G = catalog()[case]
        V = direct_sum(regular_module(G, K), trivial_module(G, K))
    elements = list(V.group.elements)
    np.random.default_rng(5).shuffle(elements)
    for g in elements:
        got, want = V.element_matrix(g), _word_fold(V, g)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), g
        assert not got.flags.writeable
