"""Permutation groups, conjugacy, subgroup enumeration, transversals.

The p-regular class counts and p-subgroup class counts are cross-checked
against brute-force reimplementations written directly in this file.
"""

import itertools

import pytest

from modclass.errors import InputError, LimitError
from modclass.perm_group import (
    PermGroup,
    Subgroup,
    are_conjugate,
    catalog,
    identity_perm,
    normalizer,
    p_subgroups_up_to_conjugacy,
    perm_order,
    perm_power,
    pinv,
    pmul,
    right_transversal,
)


# brute-force helpers, independent of the package internals

def _bf_mul(a, b):
    return tuple(b[x] for x in a)


def _bf_order(a):
    e = tuple(range(len(a)))
    k, b = 1, a
    while b != e:
        b = _bf_mul(b, a)
        k += 1
    return k


def _bf_classes(elements):
    elements = set(elements)
    inv = {g: tuple(sorted(range(len(g)), key=g.__getitem__)) for g in elements}
    classes = []
    seen = set()
    for g in sorted(elements):
        if g in seen:
            continue
        orbit = {_bf_mul(_bf_mul(inv[h], g), h) for h in elements}
        seen |= orbit
        classes.append(orbit)
    return classes


def _bf_closure(gens, degree):
    out = {tuple(range(degree))}
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _bf_mul(a, g)
                if b not in out:
                    out.add(b)
                    nxt.append(b)
        frontier = nxt
    return out


FROZEN_ORDERS = {
    "C2": 2, "C3": 3, "C4": 4, "V4": 4, "C7": 7,
    "S3": 6, "D8": 8, "Q8": 8, "A4": 12, "S4": 24,
}


def test_catalog_orders():
    groups = catalog()
    assert {name: G.order for name, G in groups.items()} == FROZEN_ORDERS


def test_catalog_identity_is_first_element():
    for G in catalog().values():
        assert G.elements[0] == identity_perm(G.degree)


def test_d8_and_q8_are_not_isomorphic_shapes():
    groups = catalog()
    d8_inv = sum(1 for g in groups["D8"].elements if _bf_order(g) == 2)
    q8_inv = sum(1 for g in groups["Q8"].elements if _bf_order(g) == 2)
    assert d8_inv == 5 and q8_inv == 1


def test_element_orders_divide_group_order():
    for G in catalog().values():
        for g in G.elements:
            assert G.order % perm_order(g) == 0
            assert perm_order(g) == _bf_order(g)


def test_word_reconstructs_element():
    G = catalog()["S4"]
    for g in G.elements:
        acc = identity_perm(G.degree)
        for k in G.word(g):
            acc = pmul(acc, G.generators[k])
        assert acc == g


def test_pmul_pinv_conventions():
    a, b = (1, 2, 0, 3), (0, 2, 3, 1)
    assert pmul(a, pinv(a)) == identity_perm(4)
    # composition order matches _bf_mul: apply a, then b
    assert pmul(a, b) == _bf_mul(a, b)


def test_conjugacy_class_sizes():
    groups = catalog()
    sizes = lambda G: sorted(len(c) for c in G.conjugacy_classes())
    assert sizes(groups["S3"]) == [1, 2, 3]
    assert sizes(groups["A4"]) == [1, 3, 4, 4]
    assert sizes(groups["Q8"]) == [1, 1, 2, 2, 2]
    assert sizes(groups["S4"]) == [1, 3, 6, 6, 8]


BATTERY_PREG = {
    ("C3", 2): 3, ("C7", 2): 7, ("S3", 2): 2, ("S3", 3): 2, ("A4", 2): 3,
    ("A4", 3): 2, ("D8", 2): 1, ("Q8", 2): 1, ("S3", 5): 3,
}


@pytest.mark.parametrize("name, p", sorted(BATTERY_PREG))
def test_p_regular_class_count_battery(name, p):
    G = catalog()[name]
    # brute-force oracle
    oracle = sum(
        1 for c in _bf_classes(G.elements) if _bf_order(next(iter(c))) % p != 0
    )
    assert oracle == BATTERY_PREG[(name, p)]
    assert G.p_regular_class_count(p) == oracle


def test_power_map_matches_brute_force():
    for G in catalog().values():
        classes = G.conjugacy_classes()
        for k in (0, 1, 2, 3, 5, 2**20):
            image = G.power_map(k)
            for cls, j in zip(classes, image):
                g = cls[0]
                power = tuple(range(G.degree))
                for _ in range(k % _bf_order(g)):
                    power = _bf_mul(power, g)
                assert perm_power(g, k) == power
                assert power in classes[j]


# sorted orbit lengths of C -> C^q on the p-regular classes, worked by hand
BERMAN = {
    ("C3", 2, 2): [1, 2], ("C3", 2, 4): [1, 1, 1], ("C7", 2, 2): [1, 3, 3],
    ("C7", 2, 8): [1, 1, 1, 1, 1, 1, 1], ("S3", 2, 2): [1, 1], ("S3", 3, 3): [1, 1],
    ("A4", 2, 2): [1, 2], ("A4", 2, 4): [1, 1, 1], ("A4", 3, 3): [1, 1],
    ("Q8", 2, 2): [1], ("Q8", 3, 3): [1, 1, 1, 1, 1], ("C4", 5, 5): [1, 1, 1, 1],
    ("C4", 3, 3): [1, 1, 2],
}


@pytest.mark.parametrize("name, p, q", sorted(BERMAN))
def test_berman_orbit_lengths(name, p, q):
    G = catalog()[name]
    lengths = G.berman_orbit_lengths(p, q)
    assert lengths == BERMAN[(name, p, q)]
    assert sum(lengths) == G.p_regular_class_count(p)


def _bf_p_subgroup_classes(G, p):
    """All p-subgroups via closures of small generating sets, up to conjugacy."""
    subs = set()
    elems = list(G.elements)
    p_elems = [g for g in elems if _is_p_power(_bf_order(g), p)]
    for r in range(0, 3):
        for gens in itertools.combinations(p_elems, r):
            S = frozenset(_bf_closure(list(gens), G.degree))
            if _is_p_power(len(S), p):
                subs.add(S)
    classes = []
    seen = set()
    inv = {g: tuple(sorted(range(len(g)), key=g.__getitem__)) for g in elems}
    for S in sorted(subs, key=lambda s: (len(s), sorted(s))):
        if S in seen:
            continue
        orbit = {
            frozenset(_bf_mul(_bf_mul(inv[h], s), h) for s in S) for h in elems
        }
        seen |= orbit
        classes.append(S)
    return classes


def _is_p_power(k, p):
    while k % p == 0:
        k //= p
    return k == 1


@pytest.mark.parametrize(
    "name, p, expected_orders",
    [
        ("S3", 2, [1, 2]),
        ("S3", 3, [1, 3]),
        ("A4", 2, [1, 2, 4]),
        ("A4", 3, [1, 3]),
        ("D8", 2, [1, 2, 2, 2, 4, 4, 4, 8]),
        ("Q8", 2, [1, 2, 4, 4, 4, 8]),
        ("S4", 2, [1, 2, 2, 4, 4, 4, 8]),
    ],
)
def test_p_subgroup_classes_match_brute_force(name, p, expected_orders):
    # every p-subgroup of these groups needs at most 2 generators, so
    # closures of pairs of p-elements see them all
    G = catalog()[name]
    subs = p_subgroups_up_to_conjugacy(G, p)
    assert [H.order for H in subs] == expected_orders
    oracle = _bf_p_subgroup_classes(G, p)
    assert sorted(len(S) for S in oracle) == expected_orders


def test_subgroup_requires_closure_and_identity():
    G = catalog()["S3"]
    with pytest.raises(InputError):
        G.subgroup([(1, 0, 2)])  # no identity
    with pytest.raises(InputError):
        G.subgroup([(0, 1, 2), (1, 2, 0)])  # not closed
    H = G.generated_subgroup([(1, 2, 0)])
    assert H.order == 3


def test_generated_subgroup_standalone_group():
    G = catalog()["A4"]
    H = G.generated_subgroup([(1, 0, 3, 2), (2, 3, 0, 1)])
    assert H.order == 4
    assert set(H.group.elements) == set(H.elements)


def test_subgroup_membership():
    G = catalog()["S4"]
    H = G.generated_subgroup([(1, 0, 2, 3)])
    assert (1, 0, 2, 3) in H and [0, 1, 2, 3] in H
    assert (1, 2, 3, 0) in G and (1, 2, 3, 0) not in H


def test_normalizer_examples():
    G = catalog()["S3"]
    C2 = G.generated_subgroup([(1, 0, 2)])
    assert normalizer(G, C2) == C2
    C3 = G.generated_subgroup([(1, 2, 0)])
    assert normalizer(G, C3).order == 6  # normal subgroup
    A4 = catalog()["A4"]
    C2a = A4.generated_subgroup([(1, 0, 3, 2)])
    assert normalizer(A4, C2a).order == 4


def test_are_conjugate():
    G = catalog()["S3"]
    H1 = G.generated_subgroup([(1, 0, 2)])
    H2 = G.generated_subgroup([(0, 2, 1)])
    H3 = G.generated_subgroup([(1, 2, 0)])
    assert are_conjugate(G, H1, H2)
    assert not are_conjugate(G, H1, H3)


def test_right_transversal_covers_cosets():
    G = catalog()["S3"]
    H = G.generated_subgroup([(1, 2, 0)])
    T = right_transversal(G, H)
    assert len(T) == 2 and T[0] == identity_perm(3)
    covered = {pmul(h, t) for t in T for h in H.elements}
    assert covered == set(G.elements)


def test_group_order_cap():
    with pytest.raises(LimitError):
        PermGroup(5, [(1, 2, 3, 4, 0)], max_order=4)


def test_group_equality_needs_same_generators():
    a = PermGroup(3, [(1, 2, 0)])
    b = PermGroup(3, [(1, 2, 0)])
    c = PermGroup(3, [(2, 0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c  # same element set, different generator list


def test_p_subgroup_classes_are_computed_once_per_group():
    G = PermGroup(4, catalog()["S4"].generators)
    first = p_subgroups_up_to_conjugacy(G, 2)
    second = p_subgroups_up_to_conjugacy(G, 2)
    assert first == second and first is not second
    assert all(a is b and a.parent is G for a, b in zip(first, second))
    first.clear()
    assert p_subgroups_up_to_conjugacy(G, 2) == second
    # another group with the same generators has its own subgroups
    other = p_subgroups_up_to_conjugacy(PermGroup(4, G.generators), 2)
    assert [H.elements for H in other] == [H.elements for H in second]
    assert all(H.parent is not G for H in other)
