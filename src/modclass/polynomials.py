"""Univariate polynomial arithmetic and factorization over GF(p^n).

A polynomial is a trimmed 1-D int64 array of element codes, constant term
first; the zero polynomial is the empty array.  Every function takes the
coefficient field explicitly.  Factorization runs squarefree decomposition,
then distinct-degree splitting, then randomized equal-degree splitting; the
returned factor set is canonical (sorted), so the output is independent of
the random path taken.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, _require
from .finite_field import FiniteField

ZERO = np.zeros(0, dtype=np.int64)


def trim(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=np.int64)
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if nz.size else ZERO


def degree(c: np.ndarray) -> int:
    return len(c) - 1


def x_poly() -> np.ndarray:
    return np.array([0, 1], dtype=np.int64)


def add(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    la, lb = len(a), len(b)
    m = max(la, lb)
    out = np.zeros(m, dtype=np.int64)
    out[:la] = a
    out[:lb] = field.add(out[:lb], b)
    return trim(out)


def sub(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return add(field, a, np.asarray(field.neg(b)))


def mul(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) == 0 or len(b) == 0:
        return ZERO
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for s in range(len(a)):
        if a[s]:
            out[s : s + len(b)] = field.add(out[s : s + len(b)], field.mul(a[s], b))
    return trim(out)


def scale(field: FiniteField, c, a: np.ndarray) -> np.ndarray:
    return trim(field.mul(np.int64(c), a))


def monic(field: FiniteField, a: np.ndarray) -> np.ndarray:
    a = trim(a)
    if len(a) == 0 or a[-1] == 1:
        return a
    return scale(field, field.inv(a[-1]), a)


def divmod_poly(field: FiniteField, a: np.ndarray, b: np.ndarray):
    b = trim(b)
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = trim(a).copy()
    db = degree(b)
    if len(r) <= db:
        return ZERO, r
    if b[-1] != 1:  # divide by the monic b / lead(b), then scale the quotient once
        inv_lead = field.inv(b[-1])
        quo, rem = divmod_poly(field, r, field.mul(inv_lead, b))
        return trim(field.mul(quo, inv_lead)), rem
    # each quotient coefficient is the leading coefficient of what is left
    quo = np.zeros(len(r) - db, dtype=np.int64)
    for shift in range(len(quo) - 1, -1, -1):
        c = r[shift + db]
        quo[shift] = c
        if c:
            r[shift : shift + db] = field.sub(r[shift : shift + db], field.mul(c, b[:db]))
    return quo, trim(r[:db])


def mod_poly(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return divmod_poly(field, a, b)[1]


def gcd_poly(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = trim(a), trim(b)
    while len(b):
        a, b = b, mod_poly(field, a, b)
    return monic(field, a)


def pow_mod(field: FiniteField, base: np.ndarray, e: int, modulus: np.ndarray) -> np.ndarray:
    result = np.array([1], dtype=np.int64)
    base = mod_poly(field, base, modulus)
    while e > 0:
        if e & 1:
            result = mod_poly(field, mul(field, result, base), modulus)
        base = mod_poly(field, mul(field, base, base), modulus)
        e >>= 1
    return result


def derivative(field: FiniteField, a: np.ndarray) -> np.ndarray:
    if len(a) <= 1:
        return ZERO
    ks = np.arange(1, len(a), dtype=np.int64) % field.p
    return trim(field.mul(a[1:], ks))  # integer multiples stay in the prime subfield


def eval_codes(field: FiniteField, a: np.ndarray, points) -> np.ndarray:
    """Evaluate at an array of element codes, vectorized Horner."""
    points = np.asarray(points, dtype=np.int64)
    acc = np.zeros_like(points)
    for c in a[::-1]:
        acc = field.add(field.mul(acc, points), np.full_like(points, c))
    return acc


def eval_matrix(field: FiniteField, a: np.ndarray, M: np.ndarray) -> np.ndarray:
    d = M.shape[0]
    acc = field.zeros(d, d)
    for c in a[::-1]:
        acc = field.mat_mul(acc, M)
        if c:
            idx = np.arange(d)
            acc[idx, idx] = field.add(acc[idx, idx], np.full(d, c, dtype=np.int64))
    return acc


def _pth_root(field: FiniteField, a: np.ndarray) -> np.ndarray:
    # a = g(x^p); recover g, taking p-th roots of the surviving coefficients
    coeffs = a[:: field.p]
    return trim(field.pow(coeffs, field.p ** (field.n - 1)))


def squarefree_decomposition(field: FiniteField, f: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Monic squarefree factors with multiplicities, characteristic-p safe."""
    out: list[tuple[np.ndarray, int]] = []

    def rec(g: np.ndarray, outer: int):
        g = monic(field, g)
        if degree(g) < 1:
            return
        gp = derivative(field, g)
        if len(gp) == 0:
            rec(_pth_root(field, g), outer * field.p)
            return
        c = gcd_poly(field, g, gp)
        w = divmod_poly(field, g, c)[0]
        i = 1
        while degree(w) > 0:
            y = gcd_poly(field, w, c)
            z = divmod_poly(field, w, y)[0]
            if degree(z) > 0:
                out.append((z, i * outer))
            w = y
            c = divmod_poly(field, c, y)[0]
            i += 1
        if degree(c) > 0:
            rec(_pth_root(field, c), outer * field.p)

    rec(f, 1)
    return out


def distinct_degree(field: FiniteField, f: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Split a monic squarefree f into products of same-degree irreducibles."""
    out = []
    rest = monic(field, f)
    h = mod_poly(field, x_poly(), rest)
    d = 0
    while degree(rest) > 0:
        d += 1
        if 2 * d > degree(rest):
            out.append((rest, degree(rest)))
            break
        h = pow_mod(field, h, field.q, rest)
        g = gcd_poly(field, sub(field, h, x_poly()), rest)
        if degree(g) > 0:
            out.append((g, d))
            rest = divmod_poly(field, rest, g)[0]
            h = mod_poly(field, h, rest)
    return out


def equal_degree(field: FiniteField, f: np.ndarray, d: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Cantor-Zassenhaus split of f (product of degree-d irreducibles)."""
    f = monic(field, f)
    if degree(f) == d:
        return [f]
    one = np.array([1], dtype=np.int64)
    while True:
        r = trim(field.rand_codes(rng, degree(f)))
        if degree(r) < 1:
            continue
        g = gcd_poly(field, r, f)
        if 0 < degree(g) < degree(f):
            break
        if field.p == 2:
            # additive trace map from GF(q^d) down to GF(2)
            t = mod_poly(field, r, f)
            acc = t
            for _ in range(field.n * d - 1):
                t = pow_mod(field, t, 2, f)
                acc = add(field, acc, t)
            g = gcd_poly(field, acc, f)
        else:
            half = (field.q**d - 1) // 2
            g = gcd_poly(field, sub(field, pow_mod(field, r, half, f), one), f)
        if 0 < degree(g) < degree(f):
            break
    other = divmod_poly(field, f, g)[0]
    return equal_degree(field, g, d, rng) + equal_degree(field, other, d, rng)


def factor(field: FiniteField, f: np.ndarray, seed: int = 0) -> list[tuple[np.ndarray, int]]:
    """Monic irreducible factors with multiplicities, canonically sorted.

    The factor set is unique, so the output does not depend on the seed.
    """
    f = trim(f)
    if degree(f) < 1:
        raise InputError("factor requires a polynomial of degree >= 1")
    rng = np.random.default_rng(seed)
    found: list[tuple[np.ndarray, int]] = []
    for g, mult in squarefree_decomposition(field, f):
        for h, d in distinct_degree(field, g):
            for irr in equal_degree(field, h, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda fm: (degree(fm[0]), fm[0].tolist()))
    return found


def roots_in_field(f, field: FiniteField) -> list[int]:
    """Roots (as element codes, ascending) of f with coefficients read in `field`."""
    f = monic(field, trim(np.asarray(f, dtype=np.int64)))
    if degree(f) < 1:
        return []
    if field.q <= 4096:
        points = np.arange(field.q, dtype=np.int64)
        values = eval_codes(field, f, points)
        return [int(r) for r in points[values == 0]]
    xq = pow_mod(field, x_poly(), field.q, f)
    lin = gcd_poly(field, sub(field, xq, x_poly()), f)
    if degree(lin) < 1:
        return []
    rng = np.random.default_rng(0)
    roots = []
    for g in equal_degree(field, lin, 1, rng):
        # g = x + c, root is -c
        roots.append(int(field.neg(g[0])))
    return sorted(roots)


def _krylov_relation(field: FiniteField, M: np.ndarray, vec: np.ndarray, reduce=None):
    """(rel, chain): the monic relation of the first vector of vec, M vec,
    M^2 vec, ... that depends on the ones before it, and those before it.

    Each vector enters a tracked RowSpace after passing through `reduce`
    (none by default); the insert that fails yields the relation.
    """
    from .linalg import RowSpace

    space = RowSpace(field, M.shape[0], track=True)
    chain = []
    while True:
        added, coords = space._insert(vec if reduce is None else reduce(vec))
        if not added:
            rel = np.zeros(len(chain) + 1, dtype=np.int64)
            rel[-1] = 1
            rel[: len(coords)] = field.neg(coords)
            return rel, chain
        chain.append(vec)
        vec = field.mat_vec(M, vec)


def char_poly(field: FiniteField, M: np.ndarray) -> np.ndarray:
    """Characteristic polynomial via spinning standard vectors.

    The product of the relative order polynomials of the standard basis
    seeds against the growing Krylov subspace equals det(xI - M).
    """
    from .linalg import RowSpace

    d = M.shape[0]
    result = np.array([1], dtype=np.int64)
    space = RowSpace(field, d)
    for s in range(d):
        if space.dim == d:
            break
        seed = np.zeros(d, dtype=np.int64)
        seed[s] = 1
        if space.contains(seed):
            continue
        rel, chain = _krylov_relation(field, M, seed, space.reduce)
        result = mul(field, result, rel)
        for w in chain:
            space.add(w)
    _require(degree(result) == d, "characteristic polynomial has the wrong degree")
    return result


def min_poly_mat(field: FiniteField, M: np.ndarray, seeds=None) -> np.ndarray:
    """Minimal polynomial: lcm of the order polynomials of the unit vectors
    e_s, s in `seeds` (every s by default).

    Seeds that generate the space under some algebra commuting with M
    suffice: f(M) e_s = 0 then gives f(M) a e_s = a f(M) e_s = 0 for every
    algebra element a.  Other seeds give the minimal polynomial of M on the
    M-invariant subspace they span, a divisor of the true one.
    """
    from .linalg import RowSpace

    d = M.shape[0]
    if d == 0:
        return np.array([1], dtype=np.int64)
    lam = np.array([1], dtype=np.int64)
    seen = RowSpace(field, d)
    for s in range(d) if seeds is None else seeds:
        if seen.dim == d or degree(lam) == d:
            break
        seed = np.zeros(d, dtype=np.int64)
        seed[s] = 1
        if seen.contains(seed):
            continue
        mu, chain = _krylov_relation(field, M, seed)
        g = gcd_poly(field, lam, mu)
        lam = divmod_poly(field, mul(field, lam, mu), g)[0]
        for w in chain:
            seen.add(w)
    return monic(field, lam)
