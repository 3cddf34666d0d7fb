"""Univariate polynomial arithmetic and factorization over GF(p^n).

At the API a polynomial is a trimmed 1-D int64 array of element codes,
constant term first; the zero polynomial is the empty array.  Every function
takes the coefficient field explicitly.  Factorization runs squarefree
decomposition, then distinct-degree splitting, then randomized equal-degree
splitting (Cantor-Zassenhaus); the returned factor set is canonical
(sorted), so the output is independent of the random path taken.

Inside, the algorithms run on Python lists of the same integer codes, since
most polynomials here have degree at most 16 and a numpy call per
coefficient costs more than the arithmetic.  One set of algorithms works
through a small coefficient kernel (`_kernel`), picked by the field's
``kind``:

* GF(p): integers mod p;
* GF(p^n) with at most ``_TABLE_CAP`` elements: products from the field's
  certified log/exp tables; sums by XOR in characteristic 2 and by Zech
  logarithms for odd p;
* GF(2^n) above the cap: carry-less shift/XOR products reduced by the
  defining polynomial, inverses by the binary extended Euclid;
* GF(p^n), p odd, above the cap: whole-row updates through the field's own
  numpy arithmetic, since one scalar product costs a digit convolution.

The kernels own the scalar inverse of every field (``FiniteField.inv1``, and
``inv`` above the table cap, call them after refusing zero), and the
prime-field kernel runs the irreducibility test of each defining polynomial.

Factorization is the one root finder: `roots_in_field` reads the roots off
the linear factors.  Characteristic polynomials come from Krylov chains of
unit vectors in one tracked :class:`~modclass.linalg.RowSpace`
(`char_poly`): of every unit vector, or of a given few, which gives the
characteristic polynomial on the invariant subspace the few generate.
`multiplicities` splits a polynomial over irreducible factors known in
advance by trial division, as the chop tree of :mod:`modclass.meataxe`
does with the characteristic polynomial of a part.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, _require

if TYPE_CHECKING:  # finite_field imports this module for its kernels
    from .finite_field import FiniteField

def degree(c) -> int:
    return len(c) - 1


# ----- coefficient kernels on Python int codes -----


class _Kernel:
    """Scalar and row operations on lists of codes.

    A kernel has ``mul``, ``inv`` and ``neg1`` on single codes, ``add`` of
    two rows of equal length, and ``axpy``, which adds c * b into r from
    index s on, in place.  Row negation and scaling default to a
    loop over the scalar operations.
    """

    def __init__(self, field: FiniteField):
        self.field = field
        self.p, self.q = field.p, field.q

    def neg(self, a: list) -> list:
        neg1 = self.neg1
        return [neg1(x) for x in a]

    def scale(self, c: int, a: list) -> list:
        mul = self.mul
        return [mul(c, y) for y in a]



class _PrimeKernel(_Kernel):
    """GF(p): integers mod p."""

    def neg1(self, x):
        return -x % self.p

    def mul(self, x, y):
        return x * y % self.p

    def inv(self, x):
        return pow(x, -1, self.p)

    def add(self, a, b):
        p = self.p
        return [(x + y) % p for x, y in zip(a, b)]

    def axpy(self, r, s, c, b):
        p, e = self.p, s + len(b)
        r[s:e] = [(x + c * y) % p for x, y in zip(r[s:e], b)]


class _TableKernel(_Kernel):
    """GF(p^n) up to the table cap: exp[log a + log b] is a * b, zero
    included (log 0 points past the cycle, where exp is zero).  Odd p adds
    by Zech logarithms, zech[t] = log(1 + g^t), which is log 0 where
    1 + g^t = 0 and then again lands on a zero of exp."""

    def __init__(self, field):
        super().__init__(field)
        log, exp = field._tables()
        self.log, self.exp = memoryview(log), memoryview(exp)
        self.m = field.q - 1
        if field.p != 2:
            self.zech = memoryview(np.ascontiguousarray(log[field.add(1, exp[: self.m])]))

    def _add1(self, x, y):
        if not x:
            return y
        if not y:
            return x
        log = self.log
        lx = log[x]
        return self.exp[lx + self.zech[(log[y] - lx) % self.m]]

    def neg1(self, x):
        return x if self.p == 2 else self.exp[self.log[x] + self.m // 2]

    def mul(self, x, y):
        return self.exp[self.log[x] + self.log[y]]

    def inv(self, x):
        return self.exp[self.m - self.log[x]]

    def add(self, a, b):
        if self.p == 2:
            return [x ^ y for x, y in zip(a, b)]
        add1 = self._add1
        return [add1(x, y) for x, y in zip(a, b)]

    def axpy(self, r, s, c, b):
        log, exp, e = self.log, self.exp, s + len(b)
        lc = log[c]
        if self.p == 2:
            r[s:e] = [x ^ exp[lc + log[y]] for x, y in zip(r[s:e], b)]
            return
        zech, m = self.zech, self.m
        for i, y in enumerate(b, s):
            if y:
                lt = (lc + log[y]) % m  # log of c * y
                x = r[i]
                if x:
                    lx = log[x]
                    r[i] = exp[lx + zech[(lt - lx) % m]]
                else:
                    r[i] = exp[lt]


class _CarrylessKernel(_Kernel):
    """GF(2^n) above the table cap: a code is the bit vector of its
    polynomial, so sums are XOR and products carry-less shifts and XORs,
    reduced by the defining polynomial as they go."""

    def __init__(self, field):
        super().__init__(field)
        self.n = field.n
        self.poly = sum(int(c) << i for i, c in enumerate(field.min_poly))

    def neg1(self, x):
        return x

    def mul(self, x, y):
        n, poly = self.n, self.poly
        r = 0
        while y:
            if y & 1:
                r ^= x
            y >>= 1
            x <<= 1
            if x >> n:
                x ^= poly
        return r

    def inv(self, x):
        # binary extended Euclid, keeping g1 * x = u and g2 * x = v mod poly
        u, v, g1, g2 = x, self.poly, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def add(self, a, b):
        return [x ^ y for x, y in zip(a, b)]

    def axpy(self, r, s, c, b):
        e, mul = s + len(b), self.mul
        r[s:e] = [x ^ mul(c, y) for x, y in zip(r[s:e], b)]


class _ArrayKernel(_Kernel):
    """GF(p^n), p odd, above the table cap: row operations in numpy.

    Multiplying by a fixed c is F_p-linear on digit vectors: digits(c * y)
    = digits(y) @ M_c mod p, where M_c[u, t] = sum_s c_s (digit t of
    x^(s+u)) comes from the field's shift table (``_shifts[s, u*n + t]``,
    symmetric in s and u).  A row times c is then one small integer product
    instead of a digit convolution per element.
    """

    def _times(self, c: int, a: list) -> np.ndarray:
        """Digit vectors of c * a, not yet reduced mod p."""
        F = self.field
        M = (F.decode(c) @ F._shifts).astype(np.int64).reshape(F.n, F.n) % F.p
        return F.decode(_array(a)) @ M

    def neg1(self, x):
        return int(self.field.neg(x))

    def mul(self, x, y):
        return int(self.field.mul(x, y))

    def inv(self, x):
        """Inverse of a nonzero code by extended Euclid in F_p[x] mod min_poly,
        on constant-first lists of Python ints without trailing zeros; the
        invariant is s * x = r (mod min_poly) for both pairs."""
        p = self.p
        r0 = [int(c) for c in self.field.min_poly]
        r1 = [(x // p**i) % p for i in range(self.field.n)]
        while r1[-1] == 0:
            r1.pop()
        s0: list[int] = []
        s1 = [1]
        while len(r1) > 1:
            inv_lead = pow(r1[-1], p - 2, p)
            rem = list(r0)
            quot = [0] * (len(r0) - len(r1) + 1)
            for shift in range(len(quot) - 1, -1, -1):
                c = rem[shift + len(r1) - 1] * inv_lead % p
                quot[shift] = c
                if c:
                    for i, b in enumerate(r1):
                        rem[shift + i] = (rem[shift + i] - c * b) % p
            while rem[-1] == 0:
                rem.pop()
            s_new = s0 + [0] * (len(quot) + len(s1) - 1 - len(s0))
            for i, y in enumerate(quot):
                for m, z in enumerate(s1):
                    s_new[i + m] = (s_new[i + m] - y * z) % p
            while s_new[-1] == 0:
                s_new.pop()
            r0, r1 = r1, rem
            s0, s1 = s1, s_new
        scale = pow(r1[0], p - 2, p)
        return sum(c * scale % p * p**i for i, c in enumerate(s1))

    def add(self, a, b):
        return self.field.add(_array(a), _array(b)).tolist()

    def neg(self, a):
        return self.field.neg(_array(a)).tolist()

    def scale(self, c, a):
        F = self.field
        return F.encode(self._times(c, a) % F.p).tolist()

    def axpy(self, r, s, c, b):
        F, e = self.field, s + len(b)
        r[s:e] = F.encode((F.decode(_array(r[s:e])) + self._times(c, b)) % F.p).tolist()


_KERNELS = {
    "prime": _PrimeKernel,
    "table": _TableKernel,
    "carryless": _CarrylessKernel,
    "digits": _ArrayKernel,
}


@functools.cache
def _kernel(field: FiniteField) -> _Kernel:
    """The coefficient kernel of a field (fields are interned, so one each)."""
    return _KERNELS[field.kind](field)


# ----- algorithms on lists of codes -----


def _codes(a) -> list:
    return _trim(np.asarray(a, dtype=np.int64).tolist())


def _array(a: list) -> np.ndarray:
    return np.array(a, dtype=np.int64)


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _add(k: _Kernel, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _trim(k.add(a[: len(b)], b) + a[len(b) :])


def _sub(k: _Kernel, a: list, b: list) -> list:
    return _add(k, a, k.neg(b))


def _mul(k: _Kernel, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for s, c in enumerate(a):
        if c:
            k.axpy(out, s, c, b)
    return out  # the leading term is a product of nonzero leads


def _monic(k: _Kernel, a: list) -> list:
    if not a or a[-1] == 1:
        return a
    return k.scale(k.inv(a[-1]), a)


def _divmod(k: _Kernel, a: list, b: list):
    """(quotient, remainder) of trimmed lists, b nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    inv_lead = None if b[-1] == 1 else k.inv(b[-1])
    # divide by the monic b / lead(b), then scale the quotient once
    minus_b = k.neg(b[:db] if inv_lead is None else k.scale(inv_lead, b[:db]))
    r = list(a)
    quo = [0] * (len(r) - db)
    # each quotient coefficient is the leading coefficient of what is left
    for shift in range(len(quo) - 1, -1, -1):
        c = r[shift + db]
        quo[shift] = c
        if c:
            k.axpy(r, shift, c, minus_b)
    if inv_lead is not None:
        quo = k.scale(inv_lead, quo)
    return quo, _trim(r[:db])


def _rem(k: _Kernel, a: list, b: list) -> list:
    return _divmod(k, a, b)[1]


def _gcd(k: _Kernel, a: list, b: list) -> list:
    while b:
        a, b = b, _rem(k, a, b)
    return _monic(k, a)


def _pow_mod(k: _Kernel, base: list, e: int, modulus: list) -> list:
    result = [1]
    base = _rem(k, base, modulus)
    while e:
        if e & 1:
            result = _rem(k, _mul(k, result, base), modulus)
        e >>= 1
        if e:
            base = _rem(k, _mul(k, base, base), modulus)
    return result


def _derivative(k: _Kernel, a: list) -> list:
    # integer multiples stay in the prime subfield, whose codes are 0 .. p-1
    return _trim([k.mul(c, i % k.p) for i, c in enumerate(a[1:], 1)])


def _pth_root(k: _Kernel, a: list) -> list:
    # a = g(x^p); recover g, taking p-th roots of the surviving coefficients
    F = k.field
    return _trim(F.frobenius(_array(a[:: F.p]), F.n - 1).tolist())


def _squarefree(k: _Kernel, f: list) -> list[tuple[list, int]]:
    out: list[tuple[list, int]] = []

    def rec(g: list, outer: int):
        g = _monic(k, g)
        if len(g) < 2:
            return
        gp = _derivative(k, g)
        if not gp:
            rec(_pth_root(k, g), outer * k.p)
            return
        c = _gcd(k, g, gp)
        w = _divmod(k, g, c)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(k, w, c)
            z = _divmod(k, w, y)[0]
            if len(z) > 1:
                out.append((z, i * outer))
            w = y
            c = _divmod(k, c, y)[0]
            i += 1
        if len(c) > 1:
            rec(_pth_root(k, c), outer * k.p)

    rec(f, 1)
    return out


def _distinct_degree(k: _Kernel, f: list) -> list[tuple[list, int]]:
    """Split a squarefree f into monic products of same-degree irreducibles."""
    out = []
    rest = _monic(k, f)
    x = [0, 1]
    h = _rem(k, x, rest)
    d = 0
    while len(rest) > 1:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append((rest, len(rest) - 1))
            break
        h = _pow_mod(k, h, k.q, rest)
        g = _gcd(k, _sub(k, h, x), rest)
        if len(g) > 1:
            out.append((g, d))
            rest = _divmod(k, rest, g)[0]
            h = _rem(k, h, rest)
    return out


def _equal_degree(k: _Kernel, f: list, d: int, rng: np.random.Generator | None) -> list[list]:
    """Cantor-Zassenhaus split of f (product of degree-d irreducibles); an
    irreducible f is returned as it is, so it needs no generator."""
    f = _monic(k, f)
    deg = len(f) - 1
    if deg == d:
        return [f]
    while True:
        r = _trim(k.field.rand_codes(rng, deg).tolist())
        if len(r) < 2:
            continue
        g = _gcd(k, r, f)
        if 1 < len(g) < len(f):
            break
        if k.p == 2:
            # additive trace map from GF(q^d) down to GF(2)
            t = _rem(k, r, f)
            acc = t
            for _ in range(k.field.n * d - 1):
                t = _rem(k, _mul(k, t, t), f)
                acc = _add(k, acc, t)
            g = _gcd(k, acc, f)
        else:
            half = (k.q**d - 1) // 2
            g = _gcd(k, _sub(k, _pow_mod(k, r, half, f), [1]), f)
        if 1 < len(g) < len(f):
            break
    other = _divmod(k, f, g)[0]
    return _equal_degree(k, g, d, rng) + _equal_degree(k, other, d, rng)


# ----- the array API -----


def mul(field: FiniteField, a, b) -> np.ndarray:
    return _array(_mul(_kernel(field), _codes(a), _codes(b)))


def eval_matrix(field: FiniteField, a: np.ndarray, M: np.ndarray) -> np.ndarray:
    d = M.shape[0]
    acc = field.zeros(d, d)
    for c in a[::-1]:
        acc = field.mat_mul(acc, M)
        if c:
            idx = np.arange(d)
            acc[idx, idx] = field.add(acc[idx, idx], np.full(d, c, dtype=np.int64))
    return acc


def factor(field: FiniteField, f, seed: int = 0) -> list[tuple[np.ndarray, int]]:
    """Monic irreducible factors with multiplicities, canonically sorted.

    The factor set is unique, so the output does not depend on the seed.
    """
    k = _kernel(field)
    f = _codes(f)
    if len(f) < 2:
        raise InputError("factor requires a polynomial of degree >= 1")
    rng = None  # made only when an equal-degree split needs one
    found: list[tuple[list, int]] = []
    for g, mult in _squarefree(k, f):
        for h, d in _distinct_degree(k, g):
            if rng is None and len(h) - 1 > d:
                rng = np.random.default_rng(seed)
            found.extend((irr, mult) for irr in _equal_degree(k, h, d, rng))
    found.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return [(_array(g), m) for g, m in found]


def multiplicities(field: FiniteField, f, irreducibles) -> list[int]:
    """The multiplicity in f of each monic irreducible of `irreducibles`, by
    trial division; f must be a product of them times a unit."""
    k = _kernel(field)
    rest = _monic(k, _codes(f))
    out = []
    for g in irreducibles:
        g, m = _codes(g), 0
        while len(rest) >= len(g):
            quo, r = _divmod(k, rest, g)
            if r:
                break
            rest, m = quo, m + 1
        out.append(m)
    _require(rest == [1], "polynomial is not a product of the given irreducibles")
    return out


def roots_in_field(f, field: FiniteField) -> list[int]:
    """The distinct roots in `field` of f, its coefficients read there, as
    element codes, ascending: from the linear factors x + c of `factor`,
    each with root -c (a constant or zero f has none listed)."""
    if len(_codes(f)) < 2:
        return []
    k = _kernel(field)
    return sorted(k.neg1(int(g[0])) for g, _ in factor(field, f) if len(g) == 2)


# ----- characteristic polynomials -----


def char_poly(field: FiniteField, M: np.ndarray, seeds=None) -> np.ndarray:
    """Characteristic polynomial of M on the span of the Krylov chains of
    the unit vectors e_s, s in `seeds`; every s by default, which gives
    det(xI - M).

    All chains share one tracked RowSpace: once M^j e_s depends on what is
    there, its coordinates on e_s's own chain are e_s's relative order
    polynomial.  M is block triangular on the chains, so the product of
    these polynomials is the characteristic polynomial on their span.
    """
    from .linalg import RowSpace

    k = _kernel(field)
    d = M.shape[0]
    result = [1]
    space = RowSpace(field, d, track=True)
    for s in range(d) if seeds is None else seeds:
        if space.dim == d:
            break
        start = space.dim
        vec = np.zeros(d, dtype=np.int64)
        vec[s] = 1
        while True:
            added, E = space._insert_rows(vec[None])
            if not added[0]:  # E[0] is (0 | -coords) of the dependent vector
                break
            vec = field.mat_vec(M, vec)
        result = _mul(k, result, E[0, d + start : d + space.dim].tolist() + [1])
    _require(seeds is not None or len(result) - 1 == d, "characteristic polynomial has the wrong degree")
    return _array(result)
