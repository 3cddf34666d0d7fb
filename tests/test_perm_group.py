"""Permutation groups, conjugacy, subgroup enumeration, transversals.

The p-regular class counts and p-subgroup class counts are cross-checked
against brute-force reimplementations written directly in this file.  The
subgroup routines and element powers, which read a table of element
indices, are checked against the earlier versions that composed
permutation tuples, kept here as oracles.
"""

import itertools
import math

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


# tuple oracles of the element powers: orders and powers of one permutation


def perm_order(a):
    seen = [False] * len(a)
    order = 1
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        order = order * length // math.gcd(order, length)
    return order


def perm_power(a, k):
    """a^k for an integer k, by repeated squaring."""
    out = identity_perm(len(a))
    k %= perm_order(a)
    while k:
        if k & 1:
            out = pmul(out, a)
        a = pmul(a, a)
        k >>= 1
    return out


def _tuple_power_map(G, k):
    classes = G.conjugacy_classes()
    where = {g: i for i, cls in enumerate(classes) for g in cls}
    return [where[perm_power(cls[0], k)] for cls in classes]


def _tuple_p_regular_classes(G, p):
    return [i for i, cls in enumerate(G.conjugacy_classes()) if perm_order(cls[0]) % p != 0]


def _tuple_berman_orbit_lengths(G, p, q):
    image = _tuple_power_map(G, q)
    todo = set(_tuple_p_regular_classes(G, p))
    lengths = []
    while todo:
        orbit = [min(todo)]
        while image[orbit[-1]] != orbit[0]:
            orbit.append(image[orbit[-1]])
        todo -= set(orbit)
        lengths.append(len(orbit))
    return sorted(lengths)


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
    assert G.p_regular_class_count(p) == oracle == len(_tuple_p_regular_classes(G, p))


def test_power_map_matches_brute_force():
    for G in catalog().values():
        classes = G.conjugacy_classes()
        for k in (0, 1, 2, 3, 5, 2**20, -1):
            image = G.power_map(k)
            assert image == _tuple_power_map(G, k)
            for cls, j in zip(classes, image):
                g = cls[0]
                power = tuple(range(G.degree))
                for _ in range(k % _bf_order(g)):  # k % n is in [0, n) also for k < 0
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
    assert lengths == BERMAN[(name, p, q)] == _tuple_berman_orbit_lengths(G, p, q)
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
        Subgroup(G, [(1, 0, 2)])  # no identity
    with pytest.raises(InputError):
        Subgroup(G, [(0, 1, 2), (1, 2, 0)])  # not closed
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


# the subgroup routines as they were before the index table: each composes
# permutation tuples over the whole group

def _tuple_close(elems):
    out = set(elems)
    queue = list(elems)
    while queue:
        a = queue.pop()
        for b in list(out):
            for c in (pmul(a, b), pmul(b, a)):
                if c not in out:
                    out.add(c)
                    queue.append(c)
    return out


def _tuple_conjugacy_classes(G):
    seen = set()
    classes = []
    for g in G.elements:
        if g in seen:
            continue
        orbit = {pmul(pmul(pinv(h), g), h) for h in G.elements}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def _tuple_normalizing(G, S):
    return [g for g in G.elements if all(pmul(pmul(pinv(g), h), g) in S for h in S)]


def _tuple_are_conjugate(G, A, B):
    if A.order != B.order:
        return False
    bset = set(B.elements)
    for g in G.elements:
        gi = pinv(g)
        if all(pmul(pmul(gi, h), g) in bset for h in A.elements):
            return True
    return False


def _tuple_right_transversal(G, H):
    covered = set()
    reps = []
    for t in G.elements:
        if t in covered:
            continue
        reps.append(t)
        for h in H.elements:
            covered.add(pmul(h, t))
    return reps


def _tuple_p_subgroup_classes(G, p):
    """Element tuples of the class representatives, by (order, elements)."""
    trivial = frozenset([identity_perm(G.degree)])

    def canonical_rep(S):
        best = None
        for g in G.elements:
            gi = pinv(g)
            conj = tuple(sorted(pmul(pmul(gi, h), g) for h in S))
            if best is None or conj < best:
                best = conj
        return best

    all_reps = [trivial]
    current = [trivial]
    while current:
        found = {}
        for S in current:
            for x in _tuple_normalizing(G, S):
                if x in S:
                    continue
                k = perm_order(x)
                while k % p == 0:
                    k //= p
                if k != 1:
                    continue  # not a p-element
                T = frozenset(_tuple_close(set(S) | {x}))
                if len(T) == p * len(S):
                    key = canonical_rep(T)
                    if key not in found:
                        found[key] = frozenset(key)
        current = list(found.values())
        current.sort(key=lambda s: tuple(sorted(s)))
        all_reps.extend(current)
    return sorted((tuple(sorted(S)) for S in all_reps), key=lambda S: (len(S), S))


def _tuple_generators(H):
    # the greedy generator choice of Subgroup.group
    gens, have = [], {identity_perm(H.parent.degree)}
    for g in H.elements:
        if g not in have:
            gens.append(g)
            have = _tuple_close(have | {g})
    return tuple(gens) or (identity_perm(H.parent.degree),)


def _elementary_abelian_2(k):
    # C2^k as k disjoint transpositions on 2k points
    return PermGroup(2 * k, [tuple(j ^ 1 if j // 2 == i else j for j in range(2 * k)) for i in range(k)])


def _s4_x_c8():
    # the cap corner: order 192, degree 12
    fix = tuple(range(4, 12))
    c8 = tuple(range(4)) + (5, 6, 7, 8, 9, 10, 11, 4)
    return PermGroup(12, [(1, 0, 2, 3) + fix, (1, 2, 3, 0) + fix, c8])


EXTRA_GROUPS = {
    "S5": lambda: PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
    "C2^4": lambda: _elementary_abelian_2(4),
    "C2^5": lambda: _elementary_abelian_2(5),
    "S4xC8": _s4_x_c8,
    # S3 x S3 has a Sylow 3-subgroup C3 x C3, so extensions at p = 3 stack
    "S3xS3": lambda: PermGroup(6, [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)]),
}
ORACLE_CASES = [
    (name, p) for name, G in catalog().items() for p in (2, 3, 5, 7) if G.order % p == 0
] + [("S3", 5), ("S5", 2), ("S5", 3), ("S5", 5), ("C2^4", 2), ("S3xS3", 2), ("S3xS3", 3), ("S4xC8", 3)]


@pytest.mark.parametrize("name, p", ORACLE_CASES)
def test_index_table_routines_match_tuple_oracles(name, p):
    G = catalog()[name] if name in catalog() else EXTRA_GROUPS[name]()
    assert G.conjugacy_classes() == _tuple_conjugacy_classes(G)
    subs = p_subgroups_up_to_conjugacy(G, p)
    assert [H.elements for H in subs] == _tuple_p_subgroup_classes(G, p)
    # conjugates of the representatives give pairs that are conjugate
    others = list(subs)
    for H in subs:
        for g in (G.elements[-1], *G.generators):
            others.append(Subgroup(G, {pmul(pmul(pinv(g), h), g) for h in H.elements}))
    for A in subs:
        assert normalizer(G, A).elements == tuple(_tuple_normalizing(G, frozenset(A.elements)))
        assert right_transversal(G, A) == _tuple_right_transversal(G, A)
        assert [are_conjugate(G, A, B) for B in others] == [_tuple_are_conjugate(G, A, B) for B in others]
    for H in others:
        assert H.group.generators == _tuple_generators(H)
        assert G.generated_subgroup(H.group.generators) == H
    # element powers on the table against the tuple oracles
    for k in (0, 1, 2, p, p - 1, G.order + 1, 2**20, -1):
        assert G.power_map(k) == _tuple_power_map(G, k), k
    for r in (2, 3, 5, 7):
        assert G.p_regular_class_count(r) == len(_tuple_p_regular_classes(G, r))
        for q in (r, r * r):
            assert G.berman_orbit_lengths(r, q) == _tuple_berman_orbit_lengths(G, r, q), (r, q)


def test_p_subgroup_classes_of_c2_5_match_tuple_oracle():
    # 374 classes; the tuple oracle takes about 18 s here
    G = EXTRA_GROUPS["C2^5"]()
    assert [H.elements for H in p_subgroups_up_to_conjugacy(G, 2)] == _tuple_p_subgroup_classes(G, 2)


@pytest.mark.parametrize("name, count", [("S4xC8", 57), ("C2^5", 374)])
def test_cap_corner_2_subgroup_class_counts(name, count):
    subs = p_subgroups_up_to_conjugacy(EXTRA_GROUPS[name](), 2)
    assert len(subs) == count
    assert all(H.order <= K.order for H, K in zip(subs, subs[1:]))


def test_generated_subgroup_rejects_a_non_element():
    with pytest.raises(InputError, match="not in the parent group"):
        catalog()["A4"].generated_subgroup([(1, 0, 2, 3)])
