"""Polynomial arithmetic, factorization, roots and characteristic polynomials.

Coefficient arrays are constant-first throughout.  Minimal polynomials and
the evaluation root search live in the tests only, as oracles (`oracles`).
"""

import numpy as np
import pytest

from modclass.finite_field import make_field
from modclass import linalg
from modclass import polynomials as P
from oracles import brute_force_roots, eval_codes, min_poly_mat, roots_in_field

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)


def codes(*cs):
    return np.array(cs, dtype=np.int64)


def _on_arrays(core):
    """The array form of a list-level core of `polynomials`: polynomial
    arguments and results are trimmed int64 arrays, constant term first."""

    def call(field, *polys):
        out = core(P._kernel(field), *map(P._codes, polys))
        if core is P._squarefree:  # [(factor, multiplicity)]
            return [(P._array(g), m) for g, m in out]
        if isinstance(out, tuple):  # (quotient, remainder)
            return tuple(map(P._array, out))
        return P._array(out)

    return call


add = _on_arrays(P._add)
monic = _on_arrays(P._monic)
divmod_poly = _on_arrays(P._divmod)
gcd_poly = _on_arrays(P._gcd)
derivative = _on_arrays(P._derivative)
squarefree_decomposition = _on_arrays(P._squarefree)


def trim(c):
    return P._array(P._codes(c))


ZERO = trim([])


def test_divmod_round_trip():
    a = codes(1, 0, 1, 1, 0, 1)
    b = codes(1, 1, 1)
    q, r = divmod_poly(F2, a, b)
    assert P.degree(r) < P.degree(b)
    assert np.array_equal(add(F2, P.mul(F2, q, b), r), trim(a))


def test_gcd_of_known_pair():
    # gcd((x+1)(x^2+x+1), (x+1)(x^3+x+1)) = x+1 over GF(2)
    a = P.mul(F2, codes(1, 1), codes(1, 1, 1))
    b = P.mul(F2, codes(1, 1), codes(1, 1, 0, 1))
    g = gcd_poly(F2, a, b)
    assert np.array_equal(g, codes(1, 1))


def test_factor_x7_plus_1_over_gf2():
    f = codes(1, 0, 0, 0, 0, 0, 0, 1)  # x^7 + 1
    factors = P.factor(F2, f)
    got = [([int(c) for c in g], m) for g, m in factors]
    assert got == [([1, 1], 1), ([1, 0, 1, 1], 1), ([1, 1, 0, 1], 1)]


def test_factor_with_multiplicities():
    # (x+2)^3 over GF(3): derivative vanishes, needs the p-th root path
    f = P.mul(F3, P.mul(F3, codes(2, 1), codes(2, 1)), codes(2, 1))
    factors = P.factor(F3, f)
    assert len(factors) == 1
    g, m = factors[0]
    assert m == 3 and [int(c) for c in g] == [2, 1]


def test_factor_product_reassembles():
    rng = np.random.default_rng(7)
    for K in (F2, F3, F4):
        for _ in range(5):
            deg = int(rng.integers(2, 7))
            f = np.concatenate([K.rand_codes(rng, deg), [1]])
            acc = codes(1)
            for g, m in P.factor(K, f):
                assert int(g[-1]) == 1  # monic factors
                for _ in range(m):
                    acc = P.mul(K, acc, g)
            assert np.array_equal(acc, monic(K, trim(f)))


def test_squarefree_decomposition_exponents():
    # (x+1)^2 (x+2) over GF(3)
    f = P.mul(F3, P.mul(F3, codes(1, 1), codes(1, 1)), codes(2, 1))
    parts = squarefree_decomposition(F3, f)
    by_mult = {m: [int(c) for c in g] for g, m in parts if P.degree(g) > 0}
    assert by_mult == {1: [2, 1], 2: [1, 1]}


def test_roots_in_field():
    # x^2 + 1 over GF(5) has roots 2 and 3; over GF(3) it has none
    f = codes(1, 0, 1)
    assert P.roots_in_field(f, F5) == [2, 3]
    assert P.roots_in_field(f, F3) == []
    # x^2 + x over GF(4): roots 0 and 1
    assert P.roots_in_field(codes(0, 1, 1), F4) == [0, 1]
    # a constant has none, and neither does the zero polynomial
    assert P.roots_in_field(codes(3), F5) == P.roots_in_field(codes(), F5) == []


def test_char_poly_of_companion_matrix():
    # companion matrix of f has char poly f
    f = codes(1, 1, 0, 1)  # x^3 + x + 1 over GF(2)
    C = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    assert np.array_equal(P.char_poly(F2, C), f)


def test_char_poly_of_block_diagonal_is_product():
    A = np.array([[0, 1], [1, 1]], dtype=np.int64)
    B = np.array([[1]], dtype=np.int64)
    M = np.zeros((3, 3), dtype=np.int64)
    M[:2, :2] = A
    M[2, 2] = 1
    expected = P.mul(F2, P.char_poly(F2, A), P.char_poly(F2, B))
    assert np.array_equal(P.char_poly(F2, M), expected)


def test_char_poly_identity():
    # char poly of I_3 over GF(3) is (x-1)^3 = x^3 + 2 x^2 + x + 2... computed directly
    expected = P.mul(F3, P.mul(F3, codes(2, 1), codes(2, 1)), codes(2, 1))
    assert np.array_equal(P.char_poly(F3, F3.identity(3)), expected)


def test_min_poly_divides_char_poly_and_annihilates():
    rng = np.random.default_rng(3)
    for K in (F2, F3, F4):
        for _ in range(6):
            d = int(rng.integers(1, 6))
            M = K.rand_codes(rng, (d, d))
            mu = min_poly_mat(K, M)
            chi = P.char_poly(K, M)
            _, r = divmod_poly(K, chi, mu)
            assert P.degree(r) < 0  # mu | chi
            assert not P.eval_matrix(K, mu, M).any()


def test_min_poly_of_nilpotent_jordan_block():
    # one 2-block and one 1-block: char x^3, min x^2
    N = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=np.int64)
    assert [int(c) for c in P.char_poly(F2, N)] == [0, 0, 0, 1]
    assert [int(c) for c in min_poly_mat(F2, N)] == [0, 0, 1]


def test_factor_is_deterministic_across_seeds():
    f = codes(2, 0, 1, 0, 1, 1)  # arbitrary over GF(3)
    base = [([int(c) for c in g], m) for g, m in P.factor(F3, f, seed=0)]
    for seed in range(1, 6):
        alt = [([int(c) for c in g], m) for g, m in P.factor(F3, f, seed=seed)]
        assert alt == base


def test_eval_codes_horner():
    f = codes(3, 0, 2)  # 2x^2 + 3 over GF(5)
    pts = np.arange(5, dtype=np.int64)
    vals = eval_codes(F5, f, pts)
    assert [int(v) for v in vals] == [(2 * x * x + 3) % 5 for x in range(5)]


def test_derivative_char_p():
    # d/dx (x^3 + x + 1) = 3x^2 + 1 = 1 over GF(3)
    f = codes(1, 1, 0, 1)
    assert [int(c) for c in derivative(F3, f)] == [1]


# ----- numpy oracles: the array implementations the list kernels replaced

FIELDS = [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (2, 20), (5, 8), (3, 12)]


def _np_add(field, a, b):
    la, lb = len(a), len(b)
    out = np.zeros(max(la, lb), dtype=np.int64)
    out[:la] = a
    out[:lb] = field.add(out[:lb], b)
    return trim(out)


def _np_sub(field, a, b):
    return _np_add(field, a, np.asarray(field.neg(b)))


def _np_mul(field, a, b):
    if len(a) == 0 or len(b) == 0:
        return ZERO
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for s in range(len(a)):
        if a[s]:
            out[s : s + len(b)] = field.add(out[s : s + len(b)], field.mul(a[s], b))
    return trim(out)


def _np_monic(field, a):
    a = trim(a)
    if len(a) == 0 or a[-1] == 1:
        return a
    return trim(field.mul(field.inv(a[-1]), a))


def _np_divmod(field, a, b):
    b = trim(b)
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = trim(a).copy()
    db = P.degree(b)
    if len(r) <= db:
        return ZERO, r
    if b[-1] != 1:
        inv_lead = field.inv(b[-1])
        quo, rem = _np_divmod(field, r, field.mul(inv_lead, b))
        return trim(field.mul(quo, inv_lead)), rem
    quo = np.zeros(len(r) - db, dtype=np.int64)
    for shift in range(len(quo) - 1, -1, -1):
        c = r[shift + db]
        quo[shift] = c
        if c:
            r[shift : shift + db] = field.sub(r[shift : shift + db], field.mul(c, b[:db]))
    return quo, trim(r[:db])


def _np_mod(field, a, b):
    return _np_divmod(field, a, b)[1]


def _np_gcd(field, a, b):
    a, b = trim(a), trim(b)
    while len(b):
        a, b = b, _np_mod(field, a, b)
    return _np_monic(field, a)


def _np_pow_mod(field, base, e, modulus):
    result = codes(1)
    base = _np_mod(field, base, modulus)
    while e > 0:
        if e & 1:
            result = _np_mod(field, _np_mul(field, result, base), modulus)
        base = _np_mod(field, _np_mul(field, base, base), modulus)
        e >>= 1
    return result


def _np_derivative(field, a):
    if len(a) <= 1:
        return ZERO
    ks = np.arange(1, len(a), dtype=np.int64) % field.p
    return trim(field.mul(a[1:], ks))


def _np_pth_root(field, a):
    return trim(field.pow(a[:: field.p], field.p ** (field.n - 1)))


def _np_squarefree(field, f):
    out = []

    def rec(g, outer):
        g = _np_monic(field, g)
        if P.degree(g) < 1:
            return
        gp = _np_derivative(field, g)
        if len(gp) == 0:
            rec(_np_pth_root(field, g), outer * field.p)
            return
        c = _np_gcd(field, g, gp)
        w = _np_divmod(field, g, c)[0]
        i = 1
        while P.degree(w) > 0:
            y = _np_gcd(field, w, c)
            z = _np_divmod(field, w, y)[0]
            if P.degree(z) > 0:
                out.append((z, i * outer))
            w = y
            c = _np_divmod(field, c, y)[0]
            i += 1
        if P.degree(c) > 0:
            rec(_np_pth_root(field, c), outer * field.p)

    rec(f, 1)
    return out


def _np_distinct_degree(field, f):
    x = codes(0, 1)
    out = []
    rest = _np_monic(field, f)
    h = _np_mod(field, x, rest)
    d = 0
    while P.degree(rest) > 0:
        d += 1
        if 2 * d > P.degree(rest):
            out.append((rest, P.degree(rest)))
            break
        h = _np_pow_mod(field, h, field.q, rest)
        g = _np_gcd(field, _np_sub(field, h, x), rest)
        if P.degree(g) > 0:
            out.append((g, d))
            rest = _np_divmod(field, rest, g)[0]
            h = _np_mod(field, h, rest)
    return out


def _np_equal_degree(field, f, d, rng):
    f = _np_monic(field, f)
    if P.degree(f) == d:
        return [f]
    while True:
        r = trim(field.rand_codes(rng, P.degree(f)))
        if P.degree(r) < 1:
            continue
        g = _np_gcd(field, r, f)
        if 0 < P.degree(g) < P.degree(f):
            break
        if field.p == 2:
            t = _np_mod(field, r, f)
            acc = t
            for _ in range(field.n * d - 1):
                t = _np_pow_mod(field, t, 2, f)
                acc = _np_add(field, acc, t)
            g = _np_gcd(field, acc, f)
        else:
            half = (field.q**d - 1) // 2
            g = _np_gcd(field, _np_sub(field, _np_pow_mod(field, r, half, f), codes(1)), f)
        if 0 < P.degree(g) < P.degree(f):
            break
    other = _np_divmod(field, f, g)[0]
    return _np_equal_degree(field, g, d, rng) + _np_equal_degree(field, other, d, rng)


def _np_factor(field, f, seed=0):
    f = trim(f)
    rng = np.random.default_rng(seed)
    found = []
    for g, mult in _np_squarefree(field, f):
        for h, d in _np_distinct_degree(field, g):
            for irr in _np_equal_degree(field, h, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda fm: (P.degree(fm[0]), fm[0].tolist()))
    return found


def _np_roots(f, field):
    """Roots of f in a field of more than 4096 elements."""
    x = codes(0, 1)
    f = _np_monic(field, trim(np.asarray(f, dtype=np.int64)))
    lin = _np_gcd(field, _np_sub(field, _np_pow_mod(field, x, field.q, f), x), f)
    if P.degree(lin) < 1:
        return []
    rng = np.random.default_rng(0)
    return sorted(int(field.neg(g[0])) for g in _np_equal_degree(field, lin, 1, rng))


def _same(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (got, want)


def _same_factors(got, want):
    assert [m for _, m in got] == [m for _, m in want]
    for (g, _), (w, _) in zip(got, want, strict=True):
        _same(g, w)


def _random_poly(K, rng, deg, monic=False):
    f = K.rand_codes(rng, deg + 1)
    f[-1] = 1 if monic else rng.integers(1, K.q)
    return f


@pytest.mark.parametrize("p, n", FIELDS)
def test_polynomial_arithmetic_matches_numpy_oracles(p, n):
    K = make_field(p, n)
    rng = np.random.default_rng(1000 * p + n)
    polys = [codes(), codes(0, 0), codes(1), codes(0, 1)]
    polys += [_random_poly(K, rng, int(rng.integers(0, 12))) for _ in range(12)]
    for a in polys:
        _same(derivative(K, a), _np_derivative(K, trim(a)))
        _same(monic(K, a), _np_monic(K, a))
        for b in polys[:8]:
            _same(add(K, a, b), _np_add(K, trim(a), trim(b)))
            _same(P.mul(K, a, b), _np_mul(K, trim(a), trim(b)))
            _same(gcd_poly(K, a, b), _np_gcd(K, a, b))
            if len(trim(b)):
                for g, w in zip(divmod_poly(K, a, b), _np_divmod(K, a, b)):
                    _same(g, w)
    # factors shared between the two sides, and repeated factors
    for _ in range(6):
        g = _random_poly(K, rng, int(rng.integers(1, 4)))
        a = _np_mul(K, g, _random_poly(K, rng, int(rng.integers(0, 5))))
        b = _np_mul(K, _np_mul(K, g, g), _random_poly(K, rng, int(rng.integers(0, 5))))
        _same(gcd_poly(K, a, b), _np_gcd(K, a, b))
        for fs in (a, b, _np_mul(K, b, b)):
            if P.degree(fs) >= 1:
                got = squarefree_decomposition(K, fs)
                _same_factors(got, _np_squarefree(K, trim(fs)))
                _same_factors(P.factor(K, fs), _np_factor(K, fs))
    for _ in range(6):
        f = _random_poly(K, rng, int(rng.integers(1, 9)), monic=True)
        _same_factors(P.factor(K, f, seed=3), _np_factor(K, f))
    if K.q > 4096:  # against the root search by gcd with x^q - x
        for _ in range(3):
            lin = [_random_poly(K, rng, 1, monic=True) for _ in range(3)]
            f = _np_mul(K, _np_mul(K, lin[0], lin[1]), _np_mul(K, lin[2], _random_poly(K, rng, 3)))
            assert P.roots_in_field(f, K) == _np_roots(f, K)
            assert len(P.roots_in_field(f, K)) >= len({int(g[0]) for g in lin})


def _divmod_oracle(field, a, b):
    """The long division divmod_poly used before: one trim and scalar mul per step."""
    b = trim(b)
    r = trim(a).copy()
    db = P.degree(b)
    inv_lead = field.inv(b[-1])
    quo = np.zeros(max(len(r) - db, 0), dtype=np.int64)
    while P.degree(r) >= db:
        shift = P.degree(r) - db
        factor = field.mul(r[-1], inv_lead)
        quo[shift] = factor
        r[shift : shift + db + 1] = field.sub(r[shift : shift + db + 1], field.mul(factor, b))
        r = trim(r)
    return trim(quo), r


@pytest.mark.parametrize("p, n", FIELDS)
def test_divmod_matches_long_division_oracle(p, n):
    K = make_field(p, n)
    rng = np.random.default_rng(100 * p + n)
    cases = [(codes(), codes(3 % K.q or 1, 1)), (codes(1, 2 % K.q, 1), codes(1, 1, 0, 1))]
    for _ in range(40):
        da, db = int(rng.integers(0, 9)), int(rng.integers(0, 6))
        b = K.rand_codes(rng, db + 1)
        b[-1] = rng.integers(1, K.q)
        cases.append((K.rand_codes(rng, da + 1), b))
    cases.append((K.rand_codes(rng, 7), codes(int(rng.integers(1, K.q)))))  # constant divisor
    for a, b in cases:
        got, want = divmod_poly(K, a, b), _divmod_oracle(K, a, b)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    with pytest.raises(ZeroDivisionError):
        divmod_poly(K, codes(1, 1), codes(0))


def _char_poly_oracle(field, M):
    """char_poly on numpy polynomial arithmetic, with a separate chain
    RowSpace per seed."""
    from modclass.linalg import RowSpace

    d = M.shape[0]
    result = codes(1)
    space = RowSpace(field, d)
    for s in range(d):
        if space.dim == d:
            break
        seed = np.zeros(d, dtype=np.int64)
        seed[s] = 1
        if not space.reduce_rows(seed[None])[0].any():
            continue
        chain = RowSpace(field, d, track=True)
        vec = seed
        chain_vecs = []
        while True:
            reduced = space.reduce_rows(vec[None])[0][0]
            if not chain.add(reduced):
                coords = chain.reduce_rows(reduced[None])[1][0]
                k = len(chain_vecs)
                rel = np.zeros(k + 1, dtype=np.int64)
                rel[k] = 1
                rel[: len(coords)] = field.neg(coords)
                result = _np_mul(field, result, rel)
                break
            chain_vecs.append(vec)
            vec = field.mat_vec(M, vec)
        for w in chain_vecs:
            space.add(w)
    return result


def _min_poly_oracle(field, M):
    """min_poly_mat on numpy polynomial arithmetic."""
    from modclass.linalg import RowSpace

    d = M.shape[0]
    if d == 0:
        return codes(1)
    lam = codes(1)
    seen = RowSpace(field, d)
    for s in range(d):
        if seen.dim == d or P.degree(lam) == d:
            break
        seed = np.zeros(d, dtype=np.int64)
        seed[s] = 1
        if not seen.reduce_rows(seed[None])[0].any():
            continue
        chain = RowSpace(field, d, track=True)
        vec = seed
        count = 0
        while True:
            if not chain.add(vec):
                coords = chain.reduce_rows(vec[None])[1][0]
                mu = np.zeros(count + 1, dtype=np.int64)
                mu[count] = 1
                mu[: len(coords)] = field.neg(coords)
                break
            count += 1
            vec = field.mat_vec(M, vec)
        g = _np_gcd(field, lam, mu)
        lam = _np_divmod(field, _np_mul(field, lam, mu), g)[0]
        for w in chain.raw_basis_rows():
            seen.add(w)
    return _np_monic(field, lam)


@pytest.mark.parametrize("p, n", FIELDS)
def test_krylov_polynomials_match_separate_loop_oracles(p, n):
    K = make_field(p, n)
    rng = np.random.default_rng(10 * p + n)
    mats = [np.zeros((0, 0), dtype=np.int64), K.identity(1), K.identity(5)]
    for d in (1, 2, 4, 7):
        mats.append(K.rand_codes(rng, (d, d)))
        mats.append(np.triu(K.rand_codes(rng, (d, d)), 1))  # nilpotent
    for _ in range(3):  # block diagonal, with a repeated block
        A = K.rand_codes(rng, (3, 3))
        M = np.zeros((8, 8), dtype=np.int64)
        M[:3, :3] = M[3:6, 3:6] = A
        M[6:, 6:] = K.rand_codes(rng, (2, 2))
        mats.append(M)
    for M in mats:
        for got, want in ((P.char_poly(K, M), _char_poly_oracle(K, M)),
                          (min_poly_mat(K, M), _min_poly_oracle(K, M))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _char_poly_inline(field, M):
    """char_poly with its own Krylov loop, as it was before it shared one
    with the minimal polynomial."""
    from modclass.linalg import RowSpace

    k = P._kernel(field)
    d = M.shape[0]
    result = [1]
    space = RowSpace(field, d, track=True)
    for s in range(d):
        if space.dim == d:
            break
        start = space.dim
        vec = P._array([0] * d)
        vec[s] = 1
        while True:
            added, E = space._insert_rows(vec[None])
            if not added[0]:
                break
            vec = field.mat_vec(M, vec)
        if space.dim > start:
            result = P._mul(k, result, E[0, d + start : d + space.dim].tolist() + [1])
    return P._array(result)


def _char_poly_on_span(field, M, seeds):
    """The characteristic polynomial of M on the span of the Krylov chains
    of the unit vectors at `seeds`: spin them, restrict M to the span and
    take the full characteristic polynomial there."""
    W = linalg.spin(field, [M], list(field.identity(M.shape[0])[seeds]))
    A = linalg.action_on_subspace(field, np.stack(W.raw_basis_rows()), [M])[0]
    return P.char_poly(field, A)


def _blocks(K, rng, d):
    """A d x d matrix with repeated eigenvalues: equal diagonal blocks, or
    a scalar plus nilpotent Jordan blocks, in a random basis or not."""
    M = np.zeros((d, d), dtype=np.int64)
    if rng.integers(2):
        b = int(rng.integers(1, d // 2 + 1)) if d > 1 else 1
        A = K.rand_codes(rng, (b, b))
        for i in range(0, d - b + 1, b):
            M[i : i + b, i : i + b] = A
        M[d - d % b :, d - d % b :] = K.rand_codes(rng, (d % b, d % b))
    else:
        cuts = sorted({0, d, *rng.integers(1, d, size=2).tolist()}) if d > 1 else [0, d]
        for i, j in zip(cuts, cuts[1:]):
            M[np.arange(i, j - 1), np.arange(i + 1, j)] = 1
        M[np.arange(d), np.arange(d)] = int(rng.integers(K.q))
    if rng.integers(2):
        while True:
            T = K.rand_codes(rng, (d, d))
            if linalg.is_invertible(K, T):
                return K.mat_mul(K.mat_mul(T, M), linalg.inverse(K, T))
    return M


@pytest.mark.parametrize("p, n", [(2, 1), (7, 1), (3, 2), (2, 17), (3, 11)])
def test_shared_krylov_loop_matches_inline_loops(p, n):
    K = make_field(p, n)
    rng = np.random.default_rng(17 * p + n)
    for d in range(1, 13):
        for M in (K.rand_codes(rng, (d, d)), _blocks(K, rng, d), _blocks(K, rng, d)):
            _same(P.char_poly(K, M), _char_poly_inline(K, M))
            _same(P.char_poly(K, M, range(d)), _char_poly_inline(K, M))
            seeds = rng.permutation(d)[: int(rng.integers(1, d + 1))].tolist()
            chi = P.char_poly(K, M, seeds)
            _same(chi, _char_poly_on_span(K, M, seeds))
            # the minimal polynomial on the span divides chi, with the same
            # irreducible factors, each to at most its multiplicity in chi
            mu, facs = P.factor(K, min_poly_mat(K, M, seeds)), P.factor(K, chi)
            assert [f.tobytes() for f, _ in mu] == [f.tobytes() for f, _ in facs]
            assert all(e <= m for (_, e), (_, m) in zip(mu, facs))


def test_corrupted_krylov_relation_fails_the_degree_check(monkeypatch):
    # a unit vector reported dependent although it is not leaves the chains
    # short of the space; the degree check must catch it, also under python -O
    from modclass.errors import ConsistencyError
    from modclass.linalg import RowSpace

    real = RowSpace._insert_rows

    def insert(self, V):
        if V[0, -1] and not V[0, :-1].any():
            return [False], np.zeros((1, self.ambient + self.dim), dtype=np.int64)
        return real(self, V)

    monkeypatch.setattr(RowSpace, "_insert_rows", insert)
    with pytest.raises(ConsistencyError, match="wrong degree"):
        P.char_poly(F2, F2.identity(3))
