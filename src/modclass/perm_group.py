"""Finite permutation groups on {0, ..., degree-1}.

A permutation is a tuple of images; ``pmul(a, b)`` is "apply a, then b",
so representation matrices multiply in the same order as the group law.
Element lists are always sorted lexicographically, which places the
identity first.  All enumeration here is deterministic.
"""

from __future__ import annotations

import math

from .errors import InputError, LimitError, _require
from . import limits

Perm = tuple[int, ...]


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def pmul(a: Perm, b: Perm) -> Perm:
    """Composite permutation: apply a first, then b."""
    return tuple(b[x] for x in a)


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_order(a: Perm) -> int:
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


def perm_power(a: Perm, k: int) -> Perm:
    """a^k for an integer k >= 0, by repeated squaring."""
    out = identity_perm(len(a))
    k %= perm_order(a)
    while k:
        if k & 1:
            out = pmul(out, a)
        a = pmul(a, a)
        k >>= 1
    return out


def _validate_perm(images, degree: int) -> Perm:
    t = tuple(int(x) for x in images)
    if len(t) != degree or sorted(t) != list(range(degree)):
        raise InputError("not a permutation of 0..%d: %r" % (degree - 1, images))
    return t


class PermGroup:
    """Group generated by permutations, closed by breadth-first products."""

    def __init__(self, degree: int, generators, max_order: int | None = None):
        self.degree = degree
        self.generators = tuple(_validate_perm(g, degree) for g in generators)
        cap = limits.MAX_GROUP_ORDER if max_order is None else max_order
        ident = identity_perm(degree)
        words: dict[Perm, tuple[int, ...]] = {ident: ()}
        queue = [ident]
        i = 0
        while i < len(queue):
            g = queue[i]
            i += 1
            for k, gen in enumerate(self.generators):
                h = pmul(g, gen)
                if h not in words:
                    if len(words) >= cap:
                        raise LimitError("group order exceeds cap %d" % cap)
                    words[h] = words[g] + (k,)
                    queue.append(h)
        self.elements: tuple[Perm, ...] = tuple(sorted(words))
        self._words = words
        self._index = {g: i for i, g in enumerate(self.elements)}
        # p-subgroup class representatives per prime, filled on first request;
        # kept on the instance because subgroups are tied to it by identity
        self._p_subgroups: dict[int, tuple[Subgroup, ...]] = {}
        self._classes: tuple[tuple[Perm, ...], ...] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm) -> bool:
        return tuple(perm) in self._index

    def index_of(self, perm: Perm) -> int:
        try:
            return self._index[tuple(perm)]
        except KeyError:
            raise InputError("permutation is not a group element") from None

    def word(self, perm: Perm) -> tuple[int, ...]:
        """Generator indices whose ordered product equals the element."""
        try:
            return self._words[tuple(perm)]
        except KeyError:
            raise InputError("permutation is not a group element") from None

    def conjugacy_classes(self) -> list[tuple[Perm, ...]]:
        """Classes as sorted tuples; the identity's class comes first."""
        if self._classes is None:
            seen: set[Perm] = set()
            classes = []
            for g in self.elements:
                if g in seen:
                    continue
                orbit = {pmul(pmul(pinv(h), g), h) for h in self.elements}
                seen |= orbit
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(classes)
        return list(self._classes)

    def p_regular_class_count(self, p: int) -> int:
        """Number of conjugacy classes of elements of order prime to p."""
        return sum(1 for cls in self.conjugacy_classes() if perm_order(cls[0]) % p != 0)

    def power_map(self, k: int) -> list[int]:
        """Entry i is the index, in `conjugacy_classes()`, of the class of g^k
        for g in class i."""
        classes = self.conjugacy_classes()
        where = {g: i for i, cls in enumerate(classes) for g in cls}
        return [where[perm_power(cls[0], k)] for cls in classes]

    def berman_orbit_lengths(self, p: int, q: int) -> list[int]:
        """Sorted lengths of the orbits of C -> C^q on the p-regular classes.

        By Berman's theorem (Curtis & Reiner, Methods of Representation
        Theory I, section 21) there is one simple GF(q)G-module per orbit, and
        the orbit lengths are, as a multiset, the degrees [End(W) : GF(q)]
        of those modules.  Raising to the power q permutes the p-regular
        classes because q is prime to their element orders.
        """
        classes = self.conjugacy_classes()
        image = self.power_map(q)
        todo = {i for i, cls in enumerate(classes) if perm_order(cls[0]) % p != 0}
        lengths = []
        while todo:
            orbit = [min(todo)]
            while image[orbit[-1]] != orbit[0]:
                orbit.append(image[orbit[-1]])
                _require(
                    orbit[-1] in todo and len(orbit) <= len(todo),
                    "the q-power map does not permute the p-regular classes",
                )
            todo -= set(orbit)
            lengths.append(len(orbit))
        return sorted(lengths)

    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, elements)

    def generated_subgroup(self, gens) -> "Subgroup":
        elems = _close({identity_perm(self.degree), *(tuple(g) for g in gens)})
        return Subgroup(self, elems)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, [identity_perm(self.degree)])

    # equality needs matching generator lists, not just the same element set:
    # module matrices are generator-indexed
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.generators))

    def __repr__(self):
        return "<PermGroup degree=%d order=%d>" % (self.degree, self.order)


class Subgroup:
    """A subgroup given by its element set, tied to a parent group."""

    def __init__(self, parent: PermGroup, elements):
        self.parent = parent
        elems = sorted({tuple(int(x) for x in e) for e in elements})
        for e in elems:
            if e not in parent:
                raise InputError("subgroup element is not in the parent group")
        if not elems or elems[0] != identity_perm(parent.degree):
            raise InputError("subgroup must contain the identity")
        closure = set(elems)
        for a in elems:
            for b in elems:
                if pmul(a, b) not in closure:
                    raise InputError("element set is not closed under the product")
        self.elements: tuple[Perm, ...] = tuple(elems)
        self._group: PermGroup | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def group(self) -> PermGroup:
        """The subgroup as a standalone PermGroup on the same points.

        Generators are chosen greedily from the sorted element list, so the
        result is deterministic.
        """
        if self._group is None:
            gens: list[Perm] = []
            have = {identity_perm(self.parent.degree)}
            for g in self.elements:
                if g in have:
                    continue
                gens.append(g)
                have = _close(have | {g})
                if len(have) == self.order:
                    break
            if not gens:
                gens = [identity_perm(self.parent.degree)]
            grp = PermGroup(self.parent.degree, gens, max_order=self.order + 1)
            _require(
                set(grp.elements) == set(self.elements),
                "chosen generators do not generate the subgroup",
            )
            self._group = grp
        return self._group

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.elements == self.elements
        )

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __contains__(self, perm):
        return tuple(perm) in set(self.elements)

    def __repr__(self):
        return "<Subgroup order=%d of %r>" % (self.order, self.parent)


def _close(elems: set[Perm]) -> set[Perm]:
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


def _normalizing(G: PermGroup, S: frozenset) -> list[Perm]:
    """The elements g of G, in order, with g^-1 S g = S."""
    return [g for g in G.elements if all(pmul(pmul(pinv(g), h), g) in S for h in S)]


def normalizer(G: PermGroup, H: Subgroup) -> Subgroup:
    return Subgroup(G, _normalizing(G, frozenset(H.elements)))


def are_conjugate(G: PermGroup, A: Subgroup, B: Subgroup) -> bool:
    if A.order != B.order:
        return False
    bset = set(B.elements)
    for g in G.elements:
        gi = pinv(g)
        if all(pmul(pmul(gi, h), g) in bset for h in A.elements):
            return True
    return False


def right_transversal(G: PermGroup, H: Subgroup) -> list[Perm]:
    """Representatives of the right cosets Ht, lex-first per coset.

    The identity represents H itself and comes first.
    """
    covered: set[Perm] = set()
    reps = []
    for t in G.elements:
        if t in covered:
            continue
        reps.append(t)
        for h in H.elements:
            covered.add(pmul(h, t))
    return reps


def p_subgroups_up_to_conjugacy(G: PermGroup, p: int) -> list["Subgroup"]:
    """Conjugacy class representatives of all p-subgroups, ascending order.

    Built level by level: each class rep of order p^k is extended inside its
    normalizer by p-elements; every class of order p^(k+1) subgroups arises
    this way because p-groups have normal maximal subgroups.

    The classes are computed once per group and prime; each call returns a
    fresh list of the same Subgroup objects.
    """
    cached = G._p_subgroups.get(p)
    if cached is None:
        cached = G._p_subgroups[p] = tuple(_p_subgroup_classes(G, p))
    return list(cached)


def _p_subgroup_classes(G: PermGroup, p: int) -> list[Subgroup]:
    ident = identity_perm(G.degree)
    trivial = frozenset([ident])

    def canonical_rep(S: frozenset) -> tuple:
        best = None
        for g in G.elements:
            gi = pinv(g)
            conj = tuple(sorted(pmul(pmul(gi, h), g) for h in S))
            if best is None or conj < best:
                best = conj
        return best

    all_reps: list[frozenset] = [trivial]
    current = [trivial]
    while current:
        found: dict[tuple, frozenset] = {}
        for S in current:
            for x in _normalizing(G, S):
                if x in S:
                    continue
                k = perm_order(x)
                while k % p == 0:
                    k //= p
                if k != 1:
                    continue  # not a p-element
                T = frozenset(_close(set(S) | {x}))
                if len(T) == p * len(S):
                    key = canonical_rep(T)
                    if key not in found:
                        found[key] = frozenset(key)
        current = list(found.values())
        current.sort(key=lambda s: tuple(sorted(s)))
        all_reps.extend(current)
    subs = [Subgroup(G, list(S)) for S in all_reps]
    subs.sort(key=lambda H: (H.order, H.elements))
    return subs


_CATALOG: dict[str, PermGroup] = {}


def catalog() -> dict[str, PermGroup]:
    """Built-in groups addressable by name in the CLI and tests.

    Built once, whatever the group order cap is at the time; the CLI checks
    a named group against the cap.
    """
    if not _CATALOG:
        defs = {
            "C2": (2, [(1, 0)]),
            "C3": (3, [(1, 2, 0)]),
            "C4": (4, [(1, 2, 3, 0)]),
            "V4": (4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
            "C7": (7, [(1, 2, 3, 4, 5, 6, 0)]),
            "S3": (3, [(1, 0, 2), (1, 2, 0)]),
            "D8": (4, [(1, 2, 3, 0), (0, 3, 2, 1)]),
            "Q8": (8, [(1, 4, 7, 2, 5, 0, 3, 6), (2, 3, 4, 5, 6, 7, 0, 1)]),
            "A4": (4, [(1, 2, 0, 3), (0, 2, 3, 1)]),
            "S4": (4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
        }
        # a group of degree n has order at most n!, so no cap applies here
        built = {name: PermGroup(n, gens, math.factorial(n)) for name, (n, gens) in defs.items()}
        _CATALOG.update(built)
    return dict(_CATALOG)
