"""Finite fields GF(p^n) with vectorized arithmetic on integer-coded elements.

An element of GF(p^n) = F_p[x]/(f) is stored as the integer
``c_0 + c_1*p + ... + c_{n-1}*p^{n-1}`` where the ``c_i`` are the
coefficients of its representative polynomial, constant term first.  These
integer codes are the only element representation: every arithmetic operation,
scalar or bulk, works on numpy int64 arrays of codes, so the hot paths
stay vectorized.  Embeddings and automorphisms act on code arrays through
their ``apply_codes`` methods.

Prime fields compute with integers mod p.  A prime-field matrix product of
at least ``_BLAS_CELLS`` = 2^13 products r*k*c, with two or more rows and
columns, is one float64 BLAS product reduced once mod p, exact while
k*(p-1)^2 < 2^53; smaller and thinner shapes, and any k beyond that bound,
stay in int64.  An extension field with at most
``_TABLE_CAP`` = 2^16 elements builds log/exp (Zech) tables of a primitive
element on first use and certifies them; its ``mul``, ``inv``, ``pow`` and
``frobenius`` are table lookups, and small matrix products gather
``exp[log A + log B]`` and reduce over the inner index.  Larger extension
fields multiply by digit convolution; there ``frobenius`` (a -> a^(p^e))
is F_p-linear on digit vectors, one product with an n x n matrix built
once per e, where ``pow`` would take about e log2(p) squarings by digit
convolution (the p-th roots of squarefree factorization have e = n - 1).
Every extension field takes large matrix products as one float64 BLAS
product of digit planes, exact while k*n*(p-1)^2 < 2^53.  In
characteristic 2 addition and subtraction are XOR of codes.

Row reduction in :mod:`modclass.linalg` does its row arithmetic through
``sub_outer`` (R -= c ⊗ row on a stack of rows, in place), ``mul`` (a row
scaled by one code) and ``inv1`` (one inverse as a Python int), plus
``combine`` for the lockstep spins.  Each picks its expression here by
the kind of field (``kind``): over a prime field it is one numpy
expression mod p with no conversion of its operands; extension fields go
through the table or digit arithmetic above; in characteristic 2 the
subtraction is XOR.

The defining polynomial f is canonical: the monic irreducible of degree n
whose non-leading coefficient vector, read as a base-p integer, is least.
Its irreducibility test and the scalar inverses of ``inv1`` (and of ``inv``
above the table cap) live in the polynomial kernels of
:mod:`modclass.polynomials`.  Two calls to :func:`make_field` with the same
(p, n) return the same object, so field identity is object identity.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, InputError, LimitError, NotSubfieldError, _require
from . import limits
from . import polynomials as P

# Extension fields with at most this many elements keep log/exp tables of a
# primitive element (5 int64 words per element); larger ones multiply by
# digit convolution and invert through their polynomial kernel.
_TABLE_CAP = 2**16

# A table-field mat_mul gathers its r*k*c products and reduces them over k
# when they number at most _GATHER_CELLS (odd p: summed digit by digit) or
# _GATHER_CELLS_XOR * n^2 (p = 2: XOR of whole codes, against n^2 flops per
# product on the other path); larger shapes take the float64 digit-plane
# product.  Both are crossover points of timings of the two paths.
_GATHER_CELLS = 512
_GATHER_CELLS_XOR = 4096

# A prime-field mat_mul with at least this many products r*k*c, and r, c > 1,
# takes the float64 BLAS product; smaller shapes and mat-vec products are no
# faster there.  A crossover point of timings of both paths.
_BLAS_CELLS = 2**13

# float64 holds every integer below this exactly.
_FLOAT_EXACT = 2**53


def _floor_mod(C: np.ndarray, p: int) -> np.ndarray:
    """C mod p, in place, for a float64 array of non-negative integers below 2^53.

    For an integer C < 2^53 the correctly rounded quotient C / p never
    reaches C // p + 1, so its floor is exact; C * (1/p) carries the rounding
    of 1/p and can be one off, and np.remainder is slower.
    """
    C -= p * np.floor(C / p)
    return C


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _least_irreducible(p: int, n: int) -> np.ndarray:
    """Monic irreducible of degree n over F_p minimizing the base-p code of its
    tail, by Ben-Or's test on the prime-field kernel: gcd(x^(p^d) - x, f) = 1
    for every d <= n/2."""
    # at n = 1 there is nothing to test, and GF(p) is the field being built
    k = P._kernel(make_field(p, 1)) if n > 1 else None
    x = [0, 1]
    for code in range(p**n):
        f = [code // p**i % p for i in range(n)] + [1]
        h = x
        for _ in range(n // 2):
            h = P._pow_mod(k, h, p, f)
            if len(P._gcd(k, P._sub(k, h, x), f)) > 1:
                break
        else:
            return np.array(f, dtype=np.int64)
    raise ConsistencyError("no irreducible polynomial found")  # unreachable


def _square_multiply(mul, a: np.ndarray, e: int) -> np.ndarray:
    """Elementwise a**e (e >= 0) by repeated squaring with the product ``mul``."""
    result = np.ones_like(a)
    base = a
    while e > 0:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


class FiniteField:
    """The field GF(p^n); constructed through :func:`make_field` only."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.q = p**n
        self.min_poly = _least_irreducible(p, n)
        self.min_poly.setflags(write=False)
        self._powers = p ** np.arange(n, dtype=np.int64)
        self._reduction = self._build_reduction()
        # digit t of x^s * y is digits(y) @ _shifts[:, s*n + t] (mod p)
        self._shifts = np.stack(
            [self._reduction[s : s + n] for s in range(n)], axis=1
        ).reshape(n, n * n).astype(np.float64)
        self._inv_table: np.ndarray | None = None  # prime fields, built on first use
        self._frobenius_maps: dict[int, np.ndarray] = {}  # above the table cap, by exponent
        # extension fields up to the cap use log/exp tables, built on first use
        self._zech = n > 1 and self.q <= _TABLE_CAP
        self._log: np.ndarray | None = None
        self._exp: np.ndarray | None = None
        self._gather_cells = _GATHER_CELLS_XOR * n**2 if p == 2 else _GATHER_CELLS
        # how elements multiply: mod p, by tables, carry-less (p = 2) or by digits
        self.kind = "prime" if n == 1 else "table" if self._zech else "carryless" if p == 2 else "digits"
        if not self._zech:
            self._spot_check()  # table fields are certified when their tables are built

    def _build_reduction(self) -> np.ndarray:
        # row m holds the digits of x^m mod f, for m = 0 .. 2n-2
        n, p = self.n, self.p
        rows = np.zeros((max(2 * n - 1, 1), n), dtype=np.int64)
        cur = np.zeros(n, dtype=np.int64)
        cur[0] = 1
        for m in range(2 * n - 1):
            rows[m] = cur
            shifted = np.zeros(n + 1, dtype=np.int64)
            shifted[1:] = cur
            if shifted[n]:
                lead = shifted[n]
                shifted[:n] = (shifted[:n] - lead * self.min_poly[:n]) % p
            cur = shifted[:n] % p
        return rows

    def _spot_check(self):
        rng = np.random.default_rng(self.p * 1_000_003 + self.n)
        a = int(rng.integers(1, self.q)) if self.q > 1 else 1
        if self.q > 2:
            ok = int(self.pow(np.array(a), self.q - 1)) == 1
            _require(ok, "field spot check a^(q-1) = 1 failed")

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, exp) of a primitive element, built and certified on first use.

        log[0] is 2(q-1) and exp is zero from that index on, so
        exp[log[a] + log[b]] is the product a*b for every pair, zero included.
        """
        if self._exp is None:
            q = self.q
            g = self._primitive_code()
            exp = np.empty(q - 1, dtype=np.int64)
            exp[0] = 1
            m = 1  # exp[:m] is filled; g^(m+i) = g^i * g^m, in blocks of 1024
            while m < q - 1:
                t = min(m, 1024, q - 1 - m)
                exp[m : m + t] = self._conv_mul(exp[:t], self._conv_mul(exp[m - 1], g))
                m += t
            _require(
                np.array_equal(np.sort(exp), np.arange(1, q)),
                "powers of the primitive element %d do not cover GF(%d)^*" % (g, q),
            )
            log = np.full(q, 2 * (q - 1), dtype=np.int64)
            log[exp] = np.arange(q - 1)
            full = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
            full[: q - 1] = exp
            full[q - 1 : 2 * (q - 1)] = exp
            self._log, self._exp = log, full
        return self._log, self._exp

    def _primitive_code(self) -> int:
        """Least code g with g^((q-1)/r) != 1 for every prime r dividing q-1."""
        q = self.q
        exponents = [(q - 1) // r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        for start in range(2, q, 64):
            cands = np.arange(start, min(start + 64, q), dtype=np.int64)
            ok = np.ones(cands.shape, dtype=bool)
            for e in exponents:
                ok &= _square_multiply(self._conv_mul, cands, e) != 1
            if ok.any():
                return int(cands[np.argmax(ok)])
        raise ConsistencyError("GF(%d) has no primitive element" % q)

    # ----- element codec -----

    def decode(self, codes) -> np.ndarray:
        """Base-p digit vectors (..., n), constant term first."""
        codes = np.asarray(codes, dtype=np.int64)
        return (codes[..., None] // self._powers) % self.p

    def encode(self, digits: np.ndarray) -> np.ndarray:
        return (np.asarray(digits, dtype=np.int64) @ self._powers)

    # ----- elementwise arithmetic on code arrays -----

    def add(self, a, b) -> np.ndarray:
        if self.n == 1:
            return np.add(a, b, dtype=np.int64) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        return self.encode((self.decode(a) + self.decode(b)) % self.p)

    def neg(self, a) -> np.ndarray:
        if self.n == 1:
            return np.negative(a, dtype=np.int64) % self.p
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return a.copy()
        return self.encode((-self.decode(a)) % self.p)

    def sub(self, a, b) -> np.ndarray:
        if self.n == 1:
            return np.subtract(a, b, dtype=np.int64) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        return self.encode((self.decode(a) - self.decode(b)) % self.p)

    def mul(self, a, b) -> np.ndarray:
        if self.n == 1:
            return np.multiply(a, b, dtype=np.int64) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._zech:
            log, exp = self._tables()
            return exp[log[a] + log[b]]
        return self._conv_mul(a, b)

    def _conv_mul(self, a, b) -> np.ndarray:
        """Product by digit convolution and reduction modulo min_poly."""
        da, db = self.decode(a), self.decode(b)
        da, db = np.broadcast_arrays(da, db)
        n = self.n
        conv = np.zeros(da.shape[:-1] + (2 * n - 1,), dtype=np.int64)
        for s in range(n):
            conv[..., s : s + n] += da[..., s : s + 1] * db
        return self.encode((conv @ self._reduction) % self.p)

    def pow(self, a, e: int) -> np.ndarray:
        """Elementwise a**e for a scalar integer exponent e >= 0."""
        a = np.asarray(a, dtype=np.int64)
        if self._zech and e > 0:
            log, exp = self._tables()
            return np.where(a == 0, 0, exp[log[a] * (e % (self.q - 1)) % (self.q - 1)])
        return _square_multiply(self.mul, a, e)

    def inv(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if (a == 0).any():
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.q)
        if self.n == 1:
            if self._inv_table is None:
                self._inv_table = self.pow(np.arange(self.p, dtype=np.int64), self.p - 2)
            return self._inv_table[a]
        if self._zech:
            log, exp = self._tables()
            return exp[(self.q - 1) - log[a]]
        inv = P._kernel(self).inv
        return np.array([inv(c) for c in a.ravel().tolist()], dtype=np.int64).reshape(a.shape)

    # ----- row operations of the echelon core -----

    def inv1(self, c) -> int:
        """Inverse of one nonzero code, as a Python int, from the field's kernel."""
        c = int(c)
        if c == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.q)
        return P._kernel(self).inv(c)

    def sub_outer(self, R, c, row) -> np.ndarray:
        """R -= c ⊗ row in place: c[i] * row subtracted from row i of the
        stack R, which is returned.

        c may be a view into R.  Leading axes broadcast, so R (..., m, w),
        c (..., m) and row (..., w) update a stack of stacks.
        """
        c, row = c[..., :, None], row[..., None, :]
        prod = c * row if self.n == 1 else self.mul(c, row)
        if self.p == 2:
            R ^= prod
        elif self.n == 1:
            R -= prod
            R %= self.p
        else:
            R[...] = self.sub(R, prod)
        return R

    def combine(self, c, R) -> np.ndarray:
        """sum_i c[..., i] * R[..., i, :]: one combination of rows per stack."""
        if self.n == 1:
            return np.matmul(c[..., None, :], R)[..., 0, :] % self.p
        terms = self.mul(c[..., :, None], R)
        if self.p == 2:
            return np.bitwise_xor.reduce(terms, axis=-2)
        return self.encode(self.decode(terms).sum(axis=-3) % self.p)

    # ----- matrix arithmetic on code arrays -----

    def mat_mul(self, A, B) -> np.ndarray:
        """Product of code matrices, shapes (r, k) x (k, c) -> (r, c)."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise InputError("mat_mul shape mismatch: %s x %s" % (A.shape, B.shape))
        (r, k), c, p = A.shape, B.shape[1], self.p
        if self.n == 1:
            if min(r, c) > 1 and r * k * c >= _BLAS_CELLS and k * (p - 1) ** 2 < _FLOAT_EXACT:
                return _floor_mod(A.astype(np.float64) @ B.astype(np.float64), p).astype(np.int64)
            return (A @ B) % p
        if k == 0:
            return np.zeros((r, c), dtype=np.int64)
        if self._zech and r * k * c <= self._gather_cells:
            log, exp = self._tables()
            terms = exp[log[A][:, :, None] + log[B][None, :, :]]  # (r, k, c)
            if self.p == 2:
                return np.bitwise_xor.reduce(terms, axis=1)
            return self.encode(self.decode(terms).sum(axis=1) % self.p)
        if c > r:  # _plane_product expands its right operand: make it the smaller one
            return np.ascontiguousarray(self._plane_product(B.T, A.T).T)
        return self._plane_product(A, B)

    def _plane_product(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A @ B as one float64 product of digit planes, exact below 2^53.

        Row kk*n + s of the right factor holds the digits of x^s * B[kk], so
        its product with the digit matrix of A (entries < p) sums k*n terms
        below (p-1)^2 per output digit.
        """
        (r, k), c, n, p = A.shape, B.shape[1], self.n, self.p
        if k * n * (p - 1) ** 2 >= _FLOAT_EXACT:
            raise LimitError("mat_mul inner dimension %d too large for GF(%d)" % (k, self.q))
        planes = self.decode(B).astype(np.float64) @ self._shifts  # (k, c, s*n + t)
        _floor_mod(planes, p)
        planes = planes.reshape(k, c, n, n).transpose(0, 2, 1, 3).reshape(k * n, c * n)
        digits = self.decode(A).reshape(r, k * n).astype(np.float64) @ planes
        return self.encode(digits.astype(np.int64).reshape(r, c, n) % p)

    def mat_vec(self, A, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        if self.n == 1:  # a matrix-vector product never takes the BLAS path
            A = np.asarray(A, dtype=np.int64)
            if A.ndim != 2 or v.shape != (A.shape[1],):
                raise InputError("mat_vec shape mismatch: %s x %s" % (A.shape, v.shape))
            return A @ v % self.p
        return self.mat_mul(A, v.reshape(-1, 1))[:, 0]

    def identity(self, d: int) -> np.ndarray:
        return np.eye(d, dtype=np.int64)

    def zeros(self, *shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    # ----- frobenius -----

    def frobenius(self, a, e: int = 1) -> np.ndarray:
        """Elementwise a**(p**e).

        Above the table cap it is one product of digit vectors with the
        matrix of the F_p-linear map, whose row i holds the digits of
        x^(i p^e); the matrix is built once per e.
        """
        e %= self.n
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return a.copy()
        if self._zech:
            return self.pow(a, self.p**e)
        M = self._frobenius_maps.get(e)
        if M is None:
            y = self.pow(np.int64(self.gen_code), self.p**e)  # x^(p^e)
            rows = [np.int64(1)]
            for _ in range(self.n - 1):
                rows.append(self.mul(rows[-1], y))
            M = self._frobenius_maps[e] = self.decode(np.array(rows))
        return self.encode(self.decode(a) @ M % self.p)

    # ----- misc -----

    @property
    def gen_code(self) -> int:
        """Code of the residue class of x (zero in the degenerate n=1 case)."""
        return self.p % self.q

    def rand_codes(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.q, size=shape, dtype=np.int64)

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.n) if self.n > 1 else "GF(%d)" % self.p

    def __reduce__(self):
        return (make_field, (self.p, self.n))


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def make_field(p: int, n: int) -> FiniteField:
    """Return GF(p^n), cached so repeated calls yield the identical object."""
    if not isinstance(p, (int, np.integer)) or not isinstance(n, (int, np.integer)):
        raise InputError("p and n must be integers")
    p, n = int(p), int(n)
    if n < 1:
        raise InputError("extension degree must be >= 1, got %d" % n)
    # before the primality test, which trial-divides; p^n >= 2^n exceeds the
    # cap from n = its bit length on, so a huge n never computes p**n
    cap = limits.MAX_FIELD_SIZE
    if p >= 2 and (n >= cap.bit_length() or p**n > cap):
        raise LimitError("field size %d^%d exceeds cap %d" % (p, n, cap))
    if not is_prime(p):
        raise InputError("p = %d is not prime" % p)
    key = (p, n)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = _FIELD_CACHE.setdefault(key, FiniteField(p, n))
    return field


class FieldEmbedding:
    """The canonical ring embedding GF(p^m) -> GF(p^n) for m | n.

    Sends the generator of the source to the least root (in element-code
    order) of the source's defining polynomial inside the target.  A full
    lookup table over the source is built once and reused.
    """

    def __init__(self, source: FiniteField, target: FiniteField):
        if source.p != target.p:
            raise NotSubfieldError("different characteristics %d, %d" % (source.p, target.p))
        if target.n % source.n != 0:
            raise NotSubfieldError(
                "GF(%d^%d) is not a subfield of GF(%d^%d)"
                % (source.p, source.n, target.p, target.n)
            )
        self.source = source
        self.target = target
        self.generator_image = self._find_generator_image()
        self._table = self._build_table()

    def _find_generator_image(self) -> int:
        if self.source.n == 1:
            return 0  # x == 0 in the degenerate GF(p) presentation
        f = self.source.min_poly.copy()  # prime-subfield codes are valid in any GF(p^k)
        roots = P.roots_in_field(f, self.target)
        _require(len(roots) == self.source.n, "defining polynomial must split in the target")
        return roots[0]

    def _build_table(self) -> np.ndarray:
        """sum_i a_i x^i -> sum_i a_i g^i is F_p-linear on digit vectors: one
        product of the source's digits with the digit rows of the powers g^i."""
        src, tgt = self.source, self.target
        powers = [np.int64(1)]
        for _ in range(src.n - 1):
            powers.append(tgt.mul(powers[-1], np.int64(self.generator_image)))
        digits = src.decode(np.arange(src.q, dtype=np.int64)) @ tgt.decode(np.array(powers))
        table = tgt.encode(digits % tgt.p)
        table.setflags(write=False)
        return table

    def apply_codes(self, codes) -> np.ndarray:
        return self._table[np.asarray(codes, dtype=np.int64)]

    def __repr__(self):
        return "<embedding %r -> %r>" % (self.source, self.target)


_EMBED_CACHE: dict[tuple[tuple[int, int], tuple[int, int]], FieldEmbedding] = {}


def embed(source: FiniteField, target: FiniteField) -> FieldEmbedding:
    """Canonical embedding, cached; raises NotSubfieldError when none exists."""
    key = ((source.p, source.n), (target.p, target.n))
    emb = _EMBED_CACHE.get(key)
    if emb is None:
        emb = _EMBED_CACHE.setdefault(key, FieldEmbedding(source, target))
    return emb


class FieldAutomorphism:
    """The automorphism a -> a^(p^e) of GF(p^n)."""

    def __init__(self, field: FiniteField, exponent: int):
        self.field = field
        self.exponent = exponent % field.n

    def apply_codes(self, codes) -> np.ndarray:
        return self.field.frobenius(codes, self.exponent)

    def is_identity(self) -> bool:
        return self.exponent == 0

    def __eq__(self, other):
        return (
            isinstance(other, FieldAutomorphism)
            and other.field is self.field
            and other.exponent == self.exponent
        )

    def __hash__(self):
        return hash((id(self.field), self.exponent))

    def __repr__(self):
        return "<frobenius^%d of %r>" % (self.exponent, self.field)


def automorphisms(field: FiniteField) -> list[FieldAutomorphism]:
    """The Galois group over the prime field: the n powers of Frobenius."""
    return [FieldAutomorphism(field, e) for e in range(field.n)]


def frobenius(field: FiniteField) -> FieldAutomorphism:
    return FieldAutomorphism(field, 1)
