"""Finite permutation groups on {0, ..., degree-1}.

A permutation is a tuple of images; ``pmul(a, b)`` is "apply a, then b",
so representation matrices multiply in the same order as the group law.
Element lists are always sorted lexicographically, which places the
identity first.  All enumeration here is deterministic.

Inside this module the group law is one (n x n) table of element indices,
built on first use: ``table[i, j]`` is the index of elements[i] *
elements[j], and ``conj[g, h]`` that of g^-1 h g.  Indices follow the sorted
element list, so sorting indices sorts permutations.  Classes, normalizers,
cosets, subgroup closures and p-subgroups are reads of these two tables.
"""

from __future__ import annotations

import math

import numpy as np

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
        self._law: tuple[np.ndarray, np.ndarray] | None = None

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

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(table, conj) of element indices, as in the module docstring."""
        if self._law is None:
            n, index = self.order, self._index
            right = [np.array([index[pmul(g, s)] for g in self.elements]) for s in self.generators]
            # column j, right multiplication by elements[j], along its word
            table = np.empty((n, n), np.intp)
            for h, word in self._words.items():
                col = np.arange(n)
                for k in word:
                    col = right[k][col]
                table[:, index[h]] = col
            inv = (table == 0).argmax(axis=1)
            self._law = table, table[table[inv], np.arange(n)[:, None]]
        return self._law

    def _span(self, gens) -> np.ndarray:
        """Ascending indices of the subgroup generated by element indices."""
        gens, mask = np.asarray(gens, np.intp), np.zeros(self.order, bool)
        mask[0] = True
        while True:
            members = mask.nonzero()[0]
            mask[self._tables()[0][np.ix_(members, gens)]] = True
            if mask.sum() == members.size:
                return members

    def _power(self, k: int) -> np.ndarray:
        """Entry x is the index of elements[x]^k, by square-and-multiply on
        the table; x^|G| = 1, so k counts modulo |G| (and may be negative)."""
        table = self._tables()[0]
        out, sq, k = np.zeros(self.order, np.intp), np.arange(self.order), k % self.order
        while k:
            if k & 1:
                out = table[out, sq]
            sq, k = table[sq, sq], k >> 1
        return out

    def _class_roots(self) -> tuple[np.ndarray, np.ndarray]:
        """(roots, where): the index of the least element of each class of
        `conjugacy_classes()`, ascending, and the class number of each element."""
        roots = np.array([self._index[cls[0]] for cls in self.conjugacy_classes()])
        return roots, np.searchsorted(roots, self._tables()[1].min(axis=0))

    def _p_regular_classes(self, p: int) -> list[int]:
        """Indices, in `conjugacy_classes()`, of the classes of elements of
        order prime to p: those x with x^m = 1 for the p'-part m of |G|."""
        m = self.order
        while m % p == 0:
            m //= p
        return (self._power(m)[self._class_roots()[0]] == 0).nonzero()[0].tolist()

    def conjugacy_classes(self) -> list[tuple[Perm, ...]]:
        """Classes as sorted tuples; the identity's class comes first."""
        if self._classes is None:
            # column h of conj is the class of h; order classes by least element
            least = self._tables()[1].min(axis=0)
            self._classes = tuple(
                tuple(self.elements[i] for i in (least == r).nonzero()[0])
                for r in (least == np.arange(self.order)).nonzero()[0]
            )
        return list(self._classes)

    def p_regular_class_count(self, p: int) -> int:
        """Number of conjugacy classes of elements of order prime to p."""
        return len(self._p_regular_classes(p))

    def power_map(self, k: int) -> list[int]:
        """Entry i is the index, in `conjugacy_classes()`, of the class of g^k
        for g in class i."""
        roots, where = self._class_roots()
        return where[self._power(k)[roots]].tolist()

    def berman_orbit_lengths(self, p: int, q: int) -> list[int]:
        """Sorted lengths of the orbits of C -> C^q on the p-regular classes.

        By Berman's theorem (Curtis & Reiner, Methods of Representation
        Theory I, section 21) there is one simple GF(q)G-module per orbit, and
        the orbit lengths are, as a multiset, the degrees [End(W) : GF(q)]
        of those modules.  Raising to the power q permutes the p-regular
        classes because q is prime to their element orders.
        """
        image = self.power_map(q)
        todo = set(self._p_regular_classes(p))
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

    def generated_subgroup(self, gens) -> "Subgroup":
        try:
            idx = [self._index[tuple(g)] for g in gens]
        except KeyError:
            raise InputError("subgroup element is not in the parent group") from None
        return Subgroup(self, [self.elements[i] for i in self._span(idx)])

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
    """A subgroup given by its element set, tied to a parent group.

    Held as the ascending indices `_idx` of its elements in the parent and a
    membership mask `_mask` over the parent's elements.
    """

    def __init__(self, parent: PermGroup, elements):
        self.parent = parent
        try:
            idx = sorted({parent._index[tuple(int(x) for x in e)] for e in elements})
        except KeyError:
            raise InputError("subgroup element is not in the parent group") from None
        if not idx or idx[0] != 0:
            raise InputError("subgroup must contain the identity")
        self._idx = np.array(idx, np.intp)
        self._mask = np.zeros(parent.order, bool)
        self._mask[self._idx] = True
        if not self._mask[parent._tables()[0][np.ix_(self._idx, self._idx)]].all():
            raise InputError("element set is not closed under the product")
        self.elements: tuple[Perm, ...] = tuple(parent.elements[i] for i in idx)
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
            G, gens, have = self.parent, [], np.zeros(1, np.intp)
            for i in self._idx:
                if i not in have:
                    gens.append(i)
                    have = G._span(gens)
            perms = [G.elements[i] for i in gens] or [identity_perm(G.degree)]
            grp = PermGroup(G.degree, perms, max_order=self.order + 1)
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
        i = self.parent._index.get(tuple(perm))
        return i is not None and bool(self._mask[i])

    def __repr__(self):
        return "<Subgroup order=%d of %r>" % (self.order, self.parent)


def _rebased(G: PermGroup, H: Subgroup) -> Subgroup:
    return H if H.parent is G else Subgroup(G, H.elements)


def _carries(G: PermGroup, A: Subgroup, B: Subgroup) -> np.ndarray:
    """Mask of the g in G with g^-1 A g inside B."""
    A, B = _rebased(G, A), _rebased(G, B)
    return B._mask[G._tables()[1][:, A._idx]].all(axis=1)


def normalizer(G: PermGroup, H: Subgroup) -> Subgroup:
    return Subgroup(G, [G.elements[i] for i in _carries(G, H, H).nonzero()[0]])


def are_conjugate(G: PermGroup, A: Subgroup, B: Subgroup) -> bool:
    return A.order == B.order and bool(_carries(G, A, B).any())


def right_transversal(G: PermGroup, H: Subgroup) -> list[Perm]:
    """Representatives of the right cosets Ht, lex-first per coset.

    The identity represents H itself and comes first.
    """
    least = G._tables()[0][_rebased(G, H)._idx].min(axis=0)  # least of Ht, per t
    return [G.elements[t] for t in (least == np.arange(G.order)).nonzero()[0]]


def p_subgroups_up_to_conjugacy(G: PermGroup, p: int) -> list["Subgroup"]:
    """Conjugacy class representatives of all p-subgroups, ascending order.

    Built level by level: each class rep S of order p^k is extended by the
    x in its normalizer with x^p in S, to S u Sx u ... u Sx^(p-1); every
    class of order p^(k+1) subgroups arises this way because p-groups have
    normal maximal subgroups.  A class is named by its least conjugate,
    the least row of sort(conj[:, S]).

    The classes are computed once per group and prime; each call returns a
    fresh list of the same Subgroup objects.
    """
    if p not in G._p_subgroups:
        G._p_subgroups[p] = tuple(_p_subgroup_classes(G, p))
    return list(G._p_subgroups[p])


def _p_subgroup_classes(G: PermGroup, p: int) -> list[Subgroup]:
    (table, conj), xp = G._tables(), G._power(p)
    reps = current = [G.trivial_subgroup()]
    while current:
        found: set[tuple] = set()
        for S in current:
            todo = _carries(G, S, S) & ~S._mask & S._mask[xp]
            while todo.any():
                x, T = todo.argmax(), S._idx  # least x not in an earlier <S, y>
                for _ in range(p - 1):  # T = S u Sx u ... u Sx^(p-1)
                    T = np.concatenate([S._idx, table[T, x]])
                todo[T] = False
                found.add(min(map(tuple, np.sort(conj[:, T], axis=1).tolist())))
        current = [Subgroup(G, [G.elements[i] for i in key]) for key in sorted(found)]
        reps = reps + current
    return reps


_CATALOG: dict[str, PermGroup] = {}


def catalog() -> dict[str, PermGroup]:
    """Built-in groups addressable by name in the CLI and tests.

    Built once, whatever the group order cap is at the time;
    `serialize.group_from_doc` checks a named group against the cap.
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
