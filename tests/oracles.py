"""Independent polynomial routines the library replaced, kept as test oracles.

* `min_poly_mat`: the minimal polynomial as the lcm of the order polynomials
  of unit vectors, one fresh Krylov chain per vector.  End splitting reads
  the characteristic polynomial on the seeds' span instead.
* `eval_codes` and `roots_in_field`: roots by evaluation at every element up
  to 4096 elements, else by gcd with x^q - x and an equal-degree split.  The
  library reads roots off `factor`.  `brute_force_roots` evaluates at every
  element of any field.
"""

import numpy as np

from modclass import polynomials as P
from modclass.linalg import RowSpace


def min_poly_mat(field, M, seeds=None):
    """Minimal polynomial: lcm of the order polynomials of the unit vectors
    e_s, s in `seeds` (every s by default); other seeds than those that
    generate under an algebra commuting with M give the minimal polynomial
    of M on the subspace they span."""
    k = P._kernel(field)
    d = M.shape[0]
    lam = [1]
    seen = RowSpace(field, d)
    for s in range(d) if seeds is None else seeds:
        if seen.dim == d or len(lam) - 1 == d:
            break
        vec = np.zeros(d, dtype=np.int64)
        vec[s] = 1
        if s in seen.pivot_columns() and not seen.reduce_rows(vec[None])[0].any():
            continue
        chain = RowSpace(field, d, track=True)
        while True:
            added, E = chain._insert_rows(vec[None])
            if not added[0]:  # E[0] is (0 | -coords) of the dependent vector
                mu = E[0, d : d + chain.dim].tolist() + [1]
                break
            vec = field.mat_vec(M, vec)
        lam = P._divmod(k, P._mul(k, lam, mu), P._gcd(k, lam, mu))[0]
        seen._insert_rows(np.stack(chain.raw_basis_rows()))
    return P._array(P._monic(k, lam))


def eval_codes(field, a, points):
    """Evaluate at an array of element codes, vectorized Horner."""
    points = np.asarray(points, dtype=np.int64)
    acc = np.zeros_like(points)
    for c in a[::-1]:
        acc = field.add(field.mul(acc, points), np.full_like(points, c))
    return acc


def brute_force_roots(f, field, points=None):
    """Roots of f among `points` (every element of `field` by default),
    ascending, by evaluation at each."""
    points = np.arange(field.q, dtype=np.int64) if points is None else np.asarray(points)
    return [int(r) for r in points[eval_codes(field, P._codes(f), points) == 0]]


def roots_in_field(f, field):
    """Roots (as element codes, ascending) of f with coefficients read in `field`."""
    k = P._kernel(field)
    f = P._monic(k, P._codes(f))
    if len(f) < 2:
        return []
    if field.q <= 4096:
        return brute_force_roots(f, field)
    x = [0, 1]
    lin = P._gcd(k, P._sub(k, P._pow_mod(k, x, field.q, f), x), f)
    if len(lin) < 2:
        return []
    rng = np.random.default_rng(0)
    # each factor is x + c, with root -c
    return sorted(k.neg1(g[0]) for g in P._equal_degree(k, lin, 1, rng))
