"""Finite fields GF(p^n) with vectorized arithmetic on integer-coded elements.

An element of GF(p^n) = F_p[x]/(f) is stored as the integer
``c_0 + c_1*p + ... + c_{n-1}*p^{n-1}`` where the ``c_i`` are the
coefficients of its representative polynomial, constant term first.  All
bulk arithmetic (matrices of field elements and the like) operates on
numpy int64 arrays of such codes, so the hot paths stay vectorized.

The defining polynomial f is canonical: the monic irreducible of degree n
whose non-leading coefficient vector, read as a base-p integer, is least.
Two calls to :func:`make_field` with the same (p, n) return the same
object, so field identity is object identity.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, InputError, LimitError, NotSubfieldError, _require
from . import limits


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mod_prime(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f by monic g, coefficients in F_p, constant first."""
    r = list(f)
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dg
            for i in range(dg):
                r[shift + i] = (r[shift + i] - lead * g[i]) % p
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def _is_irreducible_trial(coeffs: list[int], p: int) -> bool:
    """Trial division of a monic polynomial by all monic divisors of degree <= deg/2."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    # degree-1 divisors amount to a root scan
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    for d in range(2, n // 2 + 1):
        for code in range(p**d):
            g = []
            c = code
            for _ in range(d):
                g.append(c % p)
                c //= p
            g.append(1)
            if not _poly_mod_prime(coeffs, g, p):
                return False
    return True


def _least_irreducible(p: int, n: int) -> np.ndarray:
    """Monic irreducible of degree n over F_p minimizing the base-p code of its tail."""
    for code in range(p**n):
        tail = []
        c = code
        for _ in range(n):
            tail.append(c % p)
            c //= p
        coeffs = tail + [1]
        if _is_irreducible_trial(coeffs, p):
            return np.array(coeffs, dtype=np.int64)
    raise ConsistencyError("no irreducible polynomial found")  # unreachable


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
        self._frobenius_tables: dict[int, np.ndarray] = {}
        self._inv_table: np.ndarray | None = None  # prime fields, built on first use
        self._spot_check()

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

    # ----- element codec -----

    def decode(self, codes) -> np.ndarray:
        """Base-p digit vectors (..., n), constant term first."""
        codes = np.asarray(codes, dtype=np.int64)
        return (codes[..., None] // self._powers) % self.p

    def encode(self, digits: np.ndarray) -> np.ndarray:
        return (np.asarray(digits, dtype=np.int64) @ self._powers)

    # ----- elementwise arithmetic on code arrays -----

    def add(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.n == 1:
            return (a + b) % self.p
        return self.encode((self.decode(a) + self.decode(b)) % self.p)

    def neg(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self.n == 1:
            return (-a) % self.p
        return self.encode((-self.decode(a)) % self.p)

    def sub(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.n == 1:
            return (a - b) % self.p
        return self.encode((self.decode(a) - self.decode(b)) % self.p)

    def mul(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.n == 1:
            return (a * b) % self.p
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
        result = np.ones_like(a)
        base = a
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if (a == 0).any():
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.q)
        if self.n == 1:
            if self._inv_table is None:
                self._inv_table = self.pow(np.arange(self.p, dtype=np.int64), self.p - 2)
            return self._inv_table[a]
        flat = [self._inv_code(int(c)) for c in a.ravel()]
        return np.array(flat, dtype=np.int64).reshape(a.shape)

    def _inv_code(self, code: int) -> int:
        """Inverse of one nonzero code by extended Euclid in F_p[x] mod min_poly.

        Polynomials are constant-first lists of Python ints without trailing
        zeros; the invariant is s * a = r (mod min_poly) for both pairs.
        """
        p = self.p
        r0 = [int(c) for c in self.min_poly]
        r1 = [(code // p**i) % p for i in range(self.n)]
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
            for i, x in enumerate(quot):
                for m, y in enumerate(s1):
                    s_new[i + m] = (s_new[i + m] - x * y) % p
            while s_new[-1] == 0:
                s_new.pop()
            r0, r1 = r1, rem
            s0, s1 = s1, s_new
        scale = pow(r1[0], p - 2, p)
        return sum(c * scale % p * p**i for i, c in enumerate(s1))

    def div(self, a, b) -> np.ndarray:
        return self.mul(a, self.inv(b))

    # ----- matrix arithmetic on code arrays -----

    def mat_mul(self, A, B) -> np.ndarray:
        """Product of code matrices, shapes (r, k) x (k, c) -> (r, c)."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise InputError("mat_mul shape mismatch: %s x %s" % (A.shape, B.shape))
        if self.n == 1:
            return (A @ B) % self.p
        r, k = A.shape
        c = B.shape[1]
        n = self.n
        if k == 0:
            return np.zeros((r, c), dtype=np.int64)
        Ad = self.decode(A)
        Bd = self.decode(B)
        conv = np.zeros((r, c, 2 * n - 1), dtype=np.int64)
        for s in range(n):
            conv[:, :, s : s + n] += np.einsum("ik,kjt->ijt", Ad[:, :, s], Bd)
        dig = (conv.reshape(r * c, 2 * n - 1) @ self._reduction) % self.p
        return self.encode(dig).reshape(r, c)

    def mat_vec(self, A, v) -> np.ndarray:
        return self.mat_mul(A, np.asarray(v, dtype=np.int64).reshape(-1, 1))[:, 0]

    def mat_pow(self, A, e: int) -> np.ndarray:
        result = self.identity(A.shape[0])
        base = A
        while e > 0:
            if e & 1:
                result = self.mat_mul(result, base)
            base = self.mat_mul(base, base)
            e >>= 1
        return result

    def identity(self, d: int) -> np.ndarray:
        return np.eye(d, dtype=np.int64)

    def zeros(self, *shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    # ----- frobenius -----

    def frobenius(self, a, e: int = 1) -> np.ndarray:
        """Elementwise a**(p**e)."""
        e %= self.n
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return a.copy()
        if self.q <= 65536:
            table = self._frobenius_tables.get(e)
            if table is None:
                table = np.arange(self.q, dtype=np.int64)
                base = self.pow(table, self.p)
                for _ in range(e):
                    table = base[table]
                self._frobenius_tables[e] = table
            return table[a]
        return self.pow(a, self.p**e)

    # ----- misc -----

    @property
    def gen_code(self) -> int:
        """Code of the residue class of x (zero in the degenerate n=1 case)."""
        return self.p % self.q

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise InputError("element belongs to a different field")
            return value
        if isinstance(value, (int, np.integer)):
            v = int(value)
            if not 0 <= v < self.q:
                raise InputError("element code %d out of range for GF(%d)" % (v, self.q))
            return FieldElement(self, v)
        coeffs = list(value)
        if len(coeffs) > self.n:
            raise InputError("too many coefficients for GF(%d)" % self.q)
        coeffs += [0] * (self.n - len(coeffs))
        if any(not 0 <= int(c) < self.p for c in coeffs):
            raise InputError("coefficients must lie in [0, %d)" % self.p)
        return FieldElement(self, int(self.encode(np.array(coeffs, dtype=np.int64))))

    def rand_codes(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.q, size=shape, dtype=np.int64)

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.n) if self.n > 1 else "GF(%d)" % self.p

    def __reduce__(self):
        return (make_field, (self.p, self.n))


class FieldElement:
    """A single field element; thin wrapper over its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: FiniteField, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.field.decode(np.int64(self.code)))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise InputError("mixed-field arithmetic requires an explicit embedding")
            return other
        return self.field.element(other)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, int(self.field.add(self.code, o.code)))

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, int(self.field.sub(self.code, o.code)))

    def __neg__(self):
        return FieldElement(self.field, int(self.field.neg(self.code)))

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, int(self.field.mul(self.code, o.code)))

    def __truediv__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, int(self.field.div(self.code, o.code)))

    def __pow__(self, e: int):
        if e < 0:
            return FieldElement(self.field, int(self.field.inv(self.field.pow(self.code, -e))))
        return FieldElement(self.field, int(self.field.pow(self.code, e)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.code == other.code
        if isinstance(other, (int, np.integer)):
            return self.code == int(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else "%dx" % c)
            else:
                terms.append("x^%d" % i if c == 1 else "%dx^%d" % (c, i))
        return "<%s in %r>" % (" + ".join(terms) if terms else "0", self.field)


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def make_field(p: int, n: int, max_size: int | None = None) -> FiniteField:
    """Return GF(p^n), cached so repeated calls yield the identical object."""
    if not isinstance(p, (int, np.integer)) or not isinstance(n, (int, np.integer)):
        raise InputError("p and n must be integers")
    p, n = int(p), int(n)
    if not is_prime(p):
        raise InputError("p = %d is not prime" % p)
    if n < 1:
        raise InputError("extension degree must be >= 1, got %d" % n)
    cap = limits.MAX_FIELD_SIZE if max_size is None else max_size
    if p**n > cap:
        raise LimitError("field size %d^%d exceeds cap %d" % (p, n, cap))
    key = (p, n)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = _FIELD_CACHE.setdefault(key, FiniteField(p, n))
    return field


def subfields(field: FiniteField) -> list[FiniteField]:
    """All subfields of GF(p^n), one per divisor of n, ascending by degree."""
    return [make_field(field.p, m) for m in range(1, field.n + 1) if field.n % m == 0]


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
        from . import polynomials as P

        f = self.source.min_poly.copy()  # prime-subfield codes are valid in any GF(p^k)
        roots = P.roots_in_field(f, self.target)
        _require(len(roots) == self.source.n, "defining polynomial must split in the target")
        return int(min(roots))

    def _build_table(self) -> np.ndarray:
        src, tgt = self.source, self.target
        digits = src.decode(np.arange(src.q, dtype=np.int64))  # (q_src, m)
        table = np.zeros(src.q, dtype=np.int64)
        g_pow = np.int64(1)
        for i in range(src.n):
            table = tgt.add(table, tgt.mul(digits[:, i], g_pow))
            g_pow = tgt.mul(g_pow, np.int64(self.generator_image))
        table.setflags(write=False)
        return table

    def apply_codes(self, codes) -> np.ndarray:
        return self._table[np.asarray(codes, dtype=np.int64)]

    def __call__(self, value):
        if isinstance(value, FieldElement):
            if value.field is not self.source:
                raise InputError("element not in the embedding's source field")
            return FieldElement(self.target, int(self._table[value.code]))
        return self.apply_codes(value)

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

    def __call__(self, value):
        if isinstance(value, FieldElement):
            if value.field is not self.field:
                raise InputError("element not in the automorphism's field")
            return FieldElement(self.field, int(self.field.frobenius(value.code, self.exponent)))
        return self.apply_codes(value)

    def compose(self, other: "FieldAutomorphism") -> "FieldAutomorphism":
        if other.field is not self.field:
            raise InputError("automorphisms of different fields")
        return FieldAutomorphism(self.field, self.exponent + other.exponent)

    def inverse(self) -> "FieldAutomorphism":
        return FieldAutomorphism(self.field, -self.exponent)

    def is_identity(self) -> bool:
        return self.exponent == 0

    def fixed_field(self) -> FiniteField:
        import math

        return make_field(self.field.p, math.gcd(self.exponent, self.field.n))

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
