"""Acceptance gate.

Seven criteria over a fixed battery of (group, prime) pairs.  Each test
prints exactly one line, "ACCEPTANCE <name>: PASS" or "ACCEPTANCE <name>:
FAIL", and then asserts.  Run with `pytest -s tests/test_acceptance.py` to
see the lines.  All comparisons are exact integer equalities; randomized
routines receive fixed seeds and wrong answers are never tolerated.
"""

import numpy as np

from modclass import cli, linalg
from modclass.classify import (
    count_absolutely_simple,
    splitting_fiber,
    up_relation,
    fiber,
    verify_classification,
)
from modclass.finite_field import make_field
from modclass.green import is_relatively_projective, vertex
from modclass.meataxe import (
    decompose,
    is_isomorphic,
    is_simple,
    simple_modules,
)
from modclass.modrep import (
    Rep,
    induce,
    regular_module,
    restrict_subgroup,
    trivial_module,
)
from modclass.perm_group import (
    catalog,
    p_subgroups_up_to_conjugacy,
)

BATTERY = [
    ("C3", 2),
    ("C7", 2),
    ("S3", 2),
    ("S3", 3),
    ("A4", 2),
    ("A4", 3),
    ("D8", 2),
    ("Q8", 2),
    ("S3", 5),
]

# absolutely simple class counts over the closure, frozen
EXPECTED_COUNTS = {
    ("C3", 2): 3,
    ("C7", 2): 7,
    ("S3", 2): 2,
    ("S3", 3): 2,
    ("A4", 2): 3,
    ("A4", 3): 2,
    ("D8", 2): 1,
    ("Q8", 2): 1,
    ("S3", 5): 3,
}


def _finish(name: str, ok: bool, detail: str = "") -> None:
    line = "ACCEPTANCE %s: %s" % (name, "PASS" if ok else "FAIL")
    if not ok and detail:
        line += " (%s)" % detail
    print(line)
    assert ok, "%s: %s" % (name, detail)


def _field(p):
    return make_field(p, 1)


def _sylow_order(order, p):
    """The largest power of p dividing order."""
    s = 1
    while order % p == 0:
        s, order = s * p, order // p
    return s


def test_acceptance_closure_count():
    # the number of absolutely simple classes over the algebraic closure
    # equals the number of p-regular conjugacy classes, exactly
    failures = []
    try:
        for name, p in BATTERY:
            rep = count_absolutely_simple(catalog()[name], p)
            if rep.total != rep.p_regular_classes:
                failures.append("%s p=%d: %d != %d" % (name, p, rep.total, rep.p_regular_classes))
            if rep.total != EXPECTED_COUNTS[(name, p)]:
                failures.append("%s p=%d: total %d, expected %d" % (name, p, rep.total, EXPECTED_COUNTS[(name, p)]))
        ok, detail = not failures, "; ".join(failures)
    except Exception as exc:
        ok, detail = False, repr(exc)
    _finish("closure-count", ok, detail)


def test_acceptance_splitting_fibers():
    # every prime-field simple splits over the extension of degree
    # dim End into exactly that many absolutely simple pieces, each once
    failures = []
    try:
        for name, p in BATTERY:
            G = catalog()[name]
            F = _field(p)
            S = simple_modules(G, F)
            for i, W in enumerate(S.modules):
                m = S.end_degrees[i]
                level = splitting_fiber(W)
                if level.degree != m or len(level.entries) != m:
                    failures.append("%s p=%d simple %d" % (name, p, i))
                    continue
                for V, mult in level.entries:
                    if mult != 1 or not is_simple(V):
                        failures.append("%s p=%d simple %d entry" % (name, p, i))
                    if len(V.endomorphisms()) != 1:
                        failures.append("%s p=%d simple %d not absolutely simple" % (name, p, i))
        ok, detail = not failures, "; ".join(failures)
    except Exception as exc:
        ok, detail = False, repr(exc)
    _finish("splitting-fibers", ok, detail)


def test_acceptance_lies_under_two_routes():
    # the lies-under relation is computed through extension and through
    # restriction; both routes must agree on positives and negatives for
    # every extension degree up to 4
    failures = []
    try:
        for name, p in BATTERY:
            G = catalog()[name]
            F = _field(p)
            S = simple_modules(G, F)
            for n in range(1, 5):
                if _field(p).q ** n > 2**20:
                    continue
                for i, W in enumerate(S.modules):
                    level = fiber(W, n)
                    for U, _ in level.entries:
                        # ConsistencyError here would mean route disagreement
                        if not up_relation(W, U):
                            failures.append("%s p=%d n=%d simple %d: positive missed" % (name, p, n, i))
                        for j, W2 in enumerate(S.modules):
                            if j != i and up_relation(W2, U):
                                failures.append("%s p=%d n=%d: %d under %d's component" % (name, p, n, j, i))
        ok, detail = not failures, "; ".join(failures)
    except Exception as exc:
        ok, detail = False, repr(exc)
    _finish("lies-under-two-routes", ok, detail)


def test_acceptance_statement_suite():
    # the named verification clauses hold at extension bound 4 across the
    # battery
    wanted = ("restriction-homogeneous", "fiber-partition-count", "transitivity")
    failures = []
    try:
        for name, p in BATTERY:
            rep = verify_classification(catalog()[name], p, bound=4)
            names = [c.name for c in rep.clauses]
            for w in wanted:
                if w not in names:
                    failures.append("%s p=%d missing clause %s" % (name, p, w))
            for c in rep.clauses:
                if c.name in wanted and not c.passed:
                    failures.append("%s p=%d %s: %s" % (name, p, c.name, c.detail))
        ok, detail = not failures, "; ".join(failures)
    except Exception as exc:
        ok, detail = False, repr(exc)
    _finish("statement-suite", ok, detail)


def test_acceptance_green_theory():
    # vertices of trivial modules are Sylow subgroups, projective
    # indecomposables have trivial vertex, and Higman's criterion agrees
    # with the definitional induction-restriction test everywhere
    failures = []
    try:
        for name, p in BATTERY:
            G = catalog()[name]
            tr = trivial_module(G, _field(p))
            if vertex(tr).order != _sylow_order(G.order, p):
                failures.append("%s p=%d trivial vertex" % (name, p))
        for name, p in [("C3", 2), ("S3", 2), ("S3", 3)]:
            G = catalog()[name]
            reg = regular_module(G, _field(p))
            for W, _ in decompose(reg).summands:
                if vertex(W).order != 1:
                    failures.append("%s p=%d PIM vertex" % (name, p))
        for name, p in [("S3", 2), ("S3", 3), ("A4", 2)]:
            G = catalog()[name]
            F = _field(p)
            mods = [trivial_module(G, F)]
            mods += list(simple_modules(G, F).modules)
            mods += [W for W, _ in decompose(regular_module(G, F)).summands]
            for Q in p_subgroups_up_to_conjugacy(G, p):
                for V in mods:
                    got = bool(is_relatively_projective(V, Q))
                    ind = induce(restrict_subgroup(V, Q), G)
                    want = any(
                        W.dim == V.dim and is_isomorphic(V, W)
                        for W, _ in decompose(ind).summands
                    )
                    if got != want:
                        failures.append(
                            "%s p=%d |Q|=%d dim %d: criterion %s, oracle %s"
                            % (name, p, Q.order, V.dim, got, want)
                        )
        ok, detail = not failures, "; ".join(failures)
    except Exception as exc:
        ok, detail = False, repr(exc)
    _finish("green-theory", ok, detail)


def test_acceptance_decomposition_determinism():
    # the multiset of (dimension, multiplicity) pairs of a decomposition
    # is independent of the random seed and of the chosen basis
    failures = []
    try:
        for name, p in BATTERY:
            G = catalog()[name]
            F = _field(p)
            reg = regular_module(G, F)
            base = sorted((W.dim, m) for W, m in decompose(reg, seed=0).summands)
            variants = [reg]
            rng = np.random.default_rng(1000 + G.order * p)
            for _ in range(2):
                T = F.rand_codes(rng, (reg.dim, reg.dim))
                while not linalg.is_invertible(F, T):
                    T = F.rand_codes(rng, (reg.dim, reg.dim))
                Ti = linalg.inverse(F, T)
                mats = [F.mat_mul(F.mat_mul(Ti, M), T) for M in reg.matrices]
                variants.append(Rep(G, F, mats))
            for vi, V in enumerate(variants):
                for seed in range(5):
                    got = sorted((W.dim, m) for W, m in decompose(V, seed=seed).summands)
                    if got != base:
                        failures.append(
                            "%s p=%d variant %d seed %d: %r != %r"
                            % (name, p, vi, seed, got, base)
                        )
        ok, detail = not failures, "; ".join(failures)
    except Exception as exc:
        ok, detail = False, repr(exc)
    _finish("decomposition-determinism", ok, detail)


def test_acceptance_full_verification():
    # every verification clause at the full extension bound 6 on every
    # battery pair, plus the command line front end agreeing
    failures = []
    try:
        for name, p in BATTERY:
            rep = verify_classification(catalog()[name], p, bound=6)
            for c in rep.clauses:
                if not c.passed:
                    failures.append("%s p=%d %s: %s" % (name, p, c.name, c.detail))
        code = cli.main(["verify", "-g", "S3", "-p", "2", "--bound", "4"])
        if code != 0:
            failures.append("cli verify exit %d" % code)
        ok, detail = not failures, "; ".join(failures)
    except Exception as exc:
        ok, detail = False, repr(exc)
    _finish("full-verification", ok, detail)
