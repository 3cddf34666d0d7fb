"""Field descent and extension of modules, counting, and the verification
clauses.

Independent oracle: the number of absolutely simple classes over the
algebraic closure equals the number of p-regular conjugacy classes, which
tests/test_perm_group.py recomputes by brute force.  Fiber sizes are frozen
after derivation from endomorphism algebra degrees.
"""

import pytest

from modclass import classify
from modclass.errors import ConsistencyError, InputError, NotSubfieldError
from modclass.finite_field import make_field
from modclass.meataxe import (
    composition_factors,
    decompose,
    is_isomorphic,
    simple_modules,
)
from modclass.modrep import (
    direct_sum,
    extend_scalars,
    frobenius_twist,
    regular_module,
    trivial_module,
)
from modclass.classify import (
    classify_module,
    count_absolutely_simple,
    descend_component,
    fiber,
    indecomposable_splitting_fiber,
    indecomposable_trace,
    splitting_fiber,
    trace_to_prime_field,
    up_relation,
    verify_classification,
)
from modclass.perm_group import catalog

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F16 = make_field(2, 4)


def _field(p):
    return {2: F2, 3: F3, 5: F5}[p]


def _c3_simple_2dim():
    reg = regular_module(catalog()["C3"], F2)
    return [W for W in composition_factors(reg) if W.dim == 2][0]


# total absolutely simple classes, frozen; equals the p-regular class count
COUNTS = {
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

# splitting fiber size per prime-field simple, ordered by dimension
FIBER_SIZES = {
    ("C3", 2): [1, 2],
    ("C7", 2): [1, 3, 3],
    ("S3", 2): [1, 1],
    ("S3", 3): [1, 1],
    ("A4", 2): [1, 2],
    ("A4", 3): [1, 1],
    ("D8", 2): [1],
    ("Q8", 2): [1],
    ("S3", 5): [1, 1, 1],
}


def test_up_relation_positive_and_negative():
    M2 = _c3_simple_2dim()
    ext = extend_scalars(M2, F4)
    lines = [W for W, _ in decompose(ext).summands]
    assert len(lines) == 2
    for L in lines:
        assert up_relation(M2, L)
    tr = trivial_module(catalog()["C3"], F2)
    tr4 = extend_scalars(tr, F4)
    assert not up_relation(M2, tr4)
    assert not up_relation(tr, lines[0])


def test_up_relation_rejects_different_groups():
    trC3 = trivial_module(catalog()["C3"], F2)
    trS3 = trivial_module(catalog()["S3"], F4)
    with pytest.raises(InputError):
        up_relation(trC3, trS3)


def test_up_relation_false_across_characteristics():
    tr2 = trivial_module(catalog()["S3"], F2)
    tr3 = trivial_module(catalog()["S3"], F3)
    assert not up_relation(tr2, tr3)


def test_fiber_of_nonsplit_simple():
    M2 = _c3_simple_2dim()
    level = fiber(M2, 2)
    assert level.degree == 2
    assert level.field.q == 4
    assert sorted(W.dim for W, _ in level.entries) == [1, 1]
    assert all(m == 1 for _, m in level.entries)
    a, b = level.entries[0][0], level.entries[1][0]
    assert not is_isomorphic(a, b)
    # the two lines are swapped by the Frobenius twist
    assert is_isomorphic(frobenius_twist(a, 1), b)


def test_fiber_of_absolutely_simple_stays_singleton():
    tr = trivial_module(catalog()["S3"], F2)
    for d in (1, 2, 3):
        level = fiber(tr, d)
        assert len(level.entries) == 1
        assert level.entries[0][1] == 1


@pytest.mark.parametrize("name, p", sorted(COUNTS))
def test_splitting_fiber_sizes_match_end_degrees(name, p):
    G = catalog()[name]
    S = simple_modules(G, _field(p))
    sizes = []
    for i, W in enumerate(S.modules):
        level = splitting_fiber(W)
        assert level.degree == S.end_degrees[i]
        sizes.append(len(level.entries))
    assert sizes == FIBER_SIZES[(name, p)]


@pytest.mark.parametrize("name, p", sorted(COUNTS))
def test_count_absolutely_simple_battery(name, p):
    rep = count_absolutely_simple(catalog()[name], p, group_name=name)
    assert rep.total == COUNTS[(name, p)]
    assert rep.agree
    assert rep.p_regular_classes == COUNTS[(name, p)]
    assert [r.fiber_size for r in rep.rows] == FIBER_SIZES[(name, p)]
    for r in rep.rows:
        assert r.splitting_degree == r.end_degree == r.fiber_size


def test_trace_to_prime_field_round_trip():
    M2 = _c3_simple_2dim()
    level = splitting_fiber(M2)
    for V, _ in level.entries:
        T = trace_to_prime_field(V)
        assert is_isomorphic(T, M2)


def test_trace_rejects_non_simple():
    reg = regular_module(catalog()["C3"], F2)
    with pytest.raises(InputError):
        trace_to_prime_field(reg)


def test_indecomposable_splitting_fiber_of_nonsplit_pim():
    reg = regular_module(catalog()["A4"], F2)
    big = [W for W, _ in decompose(reg).summands if W.dim == 8][0]
    level = indecomposable_splitting_fiber(big)
    assert level.degree == 2
    assert sorted((W.dim, m) for W, m in level.entries) == [(4, 1), (4, 1)]


def _a4_big_pim():
    reg = regular_module(catalog()["A4"], F2)
    return [W for W, _ in decompose(reg).summands if W.dim == 8][0]


@pytest.mark.parametrize("doctor, message", [
    (lambda es, X: es + es[:1], "expected 2 absolutely {kind} constituents, found 3"),
    (lambda es, X: [(es[0][0], 2)] + es[1:], "must be multiplicity-free"),
    # X is simple but not absolutely simple, or not absolutely indecomposable
    (lambda es, X: [(X, 1)] + es[1:], "constituent is not absolutely {kind}"),
])
@pytest.mark.parametrize("kind", ["simple", "indecomposable"])
def test_splitting_fibers_check_each_level(monkeypatch, kind, doctor, message):
    # a doctored fiber trips the level checks that the real one passes
    X = _c3_simple_2dim() if kind == "simple" else _a4_big_pim()
    run = splitting_fiber if kind == "simple" else indecomposable_splitting_fiber
    real_fiber = classify.fiber

    def doctored(W, degree, seed=0):
        level = real_fiber(W, degree, seed=seed)
        level.entries = doctor(list(level.entries), X)
        return level

    monkeypatch.setattr(classify, "fiber", doctored)
    with pytest.raises(ConsistencyError, match=message.format(kind=kind)):
        run(X)


def test_indecomposable_trace_round_trip():
    reg = regular_module(catalog()["A4"], F2)
    big = [W for W, _ in decompose(reg).summands if W.dim == 8][0]
    level = indecomposable_splitting_fiber(big)
    for Y, _ in level.entries:
        T = indecomposable_trace(Y)
        assert is_isomorphic(T, big)


def test_descend_component_through_tower():
    M2 = _c3_simple_2dim()
    line16 = decompose(extend_scalars(M2, F16)).summands[0][0]
    mid = descend_component(line16, F4)
    assert mid.field.q == 4
    assert up_relation(mid, line16)
    low = descend_component(mid, F2)
    assert low.field.q == 2
    assert up_relation(low, mid)
    assert is_isomorphic(low, M2)


def test_descend_component_rejects_non_subfield():
    M2 = _c3_simple_2dim()
    with pytest.raises(NotSubfieldError):
        descend_component(M2, F3)


def test_fiber_and_descent_refuse_decomposable_input():
    # T + W, the sum of the two simple S3-modules over GF(2), has no single
    # Galois orbit of components and no one component under its extension
    T, W = simple_modules(catalog()["S3"], F2).modules
    both = direct_sum(T, W)
    with pytest.raises(InputError, match="decompose first"):
        fiber(both, 2)
    with pytest.raises(InputError, match="decompose first"):
        descend_component(extend_scalars(both, F4), F2)


def test_classify_module_flags():
    C3 = catalog()["C3"]
    tr = trivial_module(C3, F2)
    fl = classify_module(tr)
    assert fl.simple and fl.absolutely_simple
    assert fl.indecomposable and fl.absolutely_indecomposable
    M2 = _c3_simple_2dim()
    fl = classify_module(M2)
    assert fl.simple and not fl.absolutely_simple
    assert fl.indecomposable and not fl.absolutely_indecomposable
    reg = regular_module(catalog()["S3"], F2)
    fl = classify_module(reg)
    assert not fl.simple and not fl.indecomposable
    big = [W for W, _ in decompose(regular_module(catalog()["A4"], F2)).summands if W.dim == 8][0]
    fl = classify_module(big)
    assert not fl.simple
    assert fl.indecomposable and not fl.absolutely_indecomposable


def test_verify_classification_small():
    rep = verify_classification(catalog()["S3"], 2, bound=3, group_name="S3")
    assert rep.passed
    names = [c.name for c in rep.clauses]
    assert "subfield-lattice" in names
    assert "lies-under-both-routes" in names
    for c in rep.clauses:
        assert c.passed, (c.name, c.detail)


@pytest.mark.parametrize("bound", [0, -1])
def test_verify_classification_refuses_bound_below_one(bound):
    with pytest.raises(InputError):
        verify_classification(catalog()["S3"], 2, bound=bound)


def _verify_clauses(report):
    return [(c.name, c.passed, c.detail) for c in report.clauses]


def test_verify_decomposes_each_module_once(monkeypatch):
    G = catalog()["S3"]
    decomposed, iso_calls = [], [0]
    real_decompose, real_iso = classify.decompose, classify.is_isomorphic

    def counting_decompose(V, seed=0):
        decomposed.append((b"".join(M.tobytes() for M in V.matrices), V.dim, V.field, seed))
        return real_decompose(V, seed=seed)

    def counting_iso(V, U, seed=0):
        iso_calls[0] += 1
        return real_iso(V, U, seed=seed)

    monkeypatch.setattr(classify, "decompose", counting_decompose)
    monkeypatch.setattr(classify, "is_isomorphic", counting_iso)
    memoized = _verify_clauses(verify_classification(G, 2, bound=4))
    memo_decompose, memo_iso = len(decomposed), iso_calls[0]
    assert len(set(decomposed)) == memo_decompose  # no input decomposed twice

    # every call straight through: the same report from more work
    decomposed.clear()
    iso_calls[0] = 0
    monkeypatch.setattr(classify, "_recall", lambda key, compute: compute())
    assert _verify_clauses(verify_classification(G, 2, bound=4)) == memoized
    assert len(decomposed) > memo_decompose
    assert iso_calls[0] > memo_iso


def test_verify_memo_lives_only_inside_the_call(monkeypatch):
    assert classify._MEMO.get() is None
    verify_classification(catalog()["C3"], 2, bound=2)
    assert classify._MEMO.get() is None

    seen = []

    def failing_fiber(W, degree, seed=0):
        seen.append(classify._MEMO.get())
        raise RuntimeError("fiber failed")

    monkeypatch.setattr(classify, "fiber", failing_fiber)
    with pytest.raises(RuntimeError):
        verify_classification(catalog()["C3"], 2, bound=2)
    assert seen == [{}]
    assert classify._MEMO.get() is None


def test_verify_memo_key_separates_group_seed_and_field(monkeypatch):
    trC2 = trivial_module(catalog()["C2"], F2)
    trC3 = trivial_module(catalog()["C3"], F2)
    trC3_4 = extend_scalars(trC3, F4)  # the same 1x1 matrix, over GF(4)
    calls = []
    real_decompose = classify.decompose

    def counting_decompose(V, seed=0):
        calls.append(seed)
        return real_decompose(V, seed=seed)

    monkeypatch.setattr(classify, "decompose", counting_decompose)
    token = classify._MEMO.set({})
    try:
        for V in (trC2, trC3, trC3_4):
            for W, _ in classify._summand_classes(V, 0):
                assert W.group is V.group and W.field is V.field
        assert len(calls) == 3
        classify._summand_classes(trC3, 1)
        classify._summand_classes(trC3, 0)  # the only repeat
        assert calls == [0, 0, 0, 1]
        # a fresh list per call, so a caller's edit cannot reach the memo
        first = classify._summand_classes(trC3, 0)
        first.clear()
        assert len(classify._summand_classes(trC3, 0)) == 1
    finally:
        classify._MEMO.reset(token)
