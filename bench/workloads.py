"""The three benchmark workloads: inputs made from a seed, queries and checks.

Each workload is a closed loop: one query at a time, in a fixed order, on
one thread.  A workload object has ``setup`` (everything before the first
query, timed as ``setup_s``) and ``queries``, a generator that yields
:class:`Query` objects and receives each query's answer back (``None`` when
the query failed), so later queries can act on earlier answers, as
``vertex`` acts on the summands ``decompose`` returned.

Every answer is compared with hand-written data in ``expected.json`` and
with an invariant that does not use the routine under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import modclass as mc
from modclass import cli, linalg

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)

S5_GENERATORS = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]

# Sources are computed only where |G:Q| <= 30, so that the induced modules
# Ind_Q^G U that ``source`` decomposes stay small; larger inductions (dim 40
# to 120 here) wait for a hom solver without the d^2 x d^2 system.
SOURCE_MAX_INDEX = 30


@dataclass
class Query:
    qid: str
    tag: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while n > 1:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out


def sylow_order(order: int, p: int) -> int:
    s = 1
    while order % p == 0:
        s, order = s * p, order // p
    return s


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else "%s: got %r, expected %r" % (what, got, want)


# ----------------------------------------------------------------- simples


class Simples:
    """``simple_modules`` for S5 at p = 2, 3, 5 and every catalog group at
    each prime dividing its order, over prime fields, through the API."""

    name = "simples"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        groups = {"S5": mc.PermGroup(5, S5_GENERATORS), **mc.catalog()}
        self.cases = []
        for gname, G in groups.items():
            for p in prime_factors(G.order):
                K = mc.make_field(p, 1)
                self.cases.append((gname, G, p, K, G.p_regular_class_count(p)))

    def queries(self):
        seed = self.seed
        for gname, G, p, K, classes in self.cases:
            want = EXPECTED["simples"][gname][str(p)]

            def check(S, want=want, classes=classes):
                return _mismatch("dims", [W.dim for W in S.modules], want) or _mismatch(
                    "sum of End degrees vs p-regular classes", sum(S.end_degrees), classes
                )

            yield Query(
                "simples %s p=%d" % (gname, p), "", lambda G=G, K=K: mc.simple_modules(G, K, seed=seed), check
            )


# ----------------------------------------------------------- krull-schmidt


def random_basis(V, rng: np.random.Generator):
    """V conjugated by a random invertible matrix drawn from rng."""
    F = V.field
    while True:
        P = F.rand_codes(rng, (V.dim, V.dim))
        if linalg.is_invertible(F, P):
            break
    Pinv = linalg.inverse(F, P)
    mats = [F.mat_mul(F.mat_mul(P, M), Pinv) for M in V.matrices]
    return mc.Rep(V.group, F, mats, check=False)


class KrullSchmidt:
    """``decompose``, then ``vertex`` and ``source`` of every summand, on
    modules in their natural basis (sparse 0/1 matrices, dims 15-48) and
    conjugated into a random basis drawn from the seed (dense, dims 15-24)."""

    name = "krull-schmidt"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        F2, F3 = mc.make_field(2, 1), mc.make_field(3, 1)
        S5 = mc.PermGroup(5, S5_GENERATORS)
        cat = mc.catalog()
        A4, S4 = cat["A4"], cat["S4"]
        two = mc.p_subgroups_up_to_conjugacy(S5, 2)
        three = mc.p_subgroups_up_to_conjugacy(S5, 3)
        D8 = next(H for H in two if H.order == 8)
        Q4 = next(H for H in two if H.order == 4)
        C3 = next(H for H in three if H.order == 3)

        def perm_module(H, K):
            return mc.induce(mc.trivial_module(H.group, K), S5)

        # natural-basis inputs are the same for every seed
        pims = mc.decompose(mc.regular_module(A4, F2), seed=0).summands
        pim4 = next(W for W, _ in pims if W.dim == 4)
        Q1 = A4.trivial_subgroup()
        reg_s4_f2 = mc.regular_module(S4, F2)
        rng = np.random.default_rng(self.seed)
        # (key, tag, module, is_regular)
        self.modules = [
            ("S5/D8 GF(2)", "natural", perm_module(D8, F2), False),
            ("S5/Q4 GF(2)", "natural", perm_module(Q4, F2), False),
            ("S5/C3 GF(3)", "natural", perm_module(C3, F3), False),
            ("A4 ind PIM4 GF(2)", "natural", mc.induce(mc.restrict_subgroup(pim4, Q1), A4), False),
            ("S4 reg+reg GF(2)", "natural", mc.direct_sum(reg_s4_f2, reg_s4_f2), True),
            ("S5/D8 GF(2)", "random", random_basis(perm_module(D8, F2), rng), False),
            ("S4 reg GF(2)", "random", random_basis(reg_s4_f2, rng), True),
            ("S4 reg GF(3)", "random", random_basis(mc.regular_module(S4, F3), rng), True),
        ]

    def queries(self):
        seed = self.seed
        for key, tag, V, regular in self.modules:
            rows = EXPECTED["krull_schmidt"][key]
            want = sorted((d, m) for d, m, _, _ in rows)
            sylow = sylow_order(V.group.order, V.field.p)
            label = "%s %s" % (key, tag)

            def check_dec(dec, V=V, want=want):
                pairs = [(W.dim, m) for W, m in dec.summands]
                return _mismatch("summands", sorted(pairs), want) or _mismatch(
                    "sum of dim x multiplicity", sum(d * m for d, m in pairs), V.dim
                )

            dec = yield Query("decompose " + label, tag, lambda V=V: mc.decompose(V, seed=seed), check_dec)
            if dec is None:
                continue
            for W, m in dec.summands:
                allowed = [r for r in rows if (r[0], r[1]) == (W.dim, m)]
                trivial = W.dim == 1 and all(int(M[0, 0]) == 1 for M in W.matrices)

                def check_vertex(Q, allowed=allowed, trivial=trivial, regular=regular, sylow=sylow):
                    if trivial and Q.order != sylow:
                        return "trivial module vertex has order %d, Sylow order %d" % (Q.order, sylow)
                    if regular and Q.order != 1:
                        return "summand of a regular module has vertex order %d" % Q.order
                    orders = sorted({r[2] for r in allowed})
                    return None if Q.order in orders else "vertex order %d not in %r" % (Q.order, orders)

                Q = yield Query(
                    "vertex dim %d of %s" % (W.dim, label), tag, lambda W=W: mc.vertex(W, seed=seed), check_vertex
                )
                if Q is None or V.group.order // Q.order > SOURCE_MAX_INDEX:
                    continue

                def check_source(vs, W=W, Q=Q, allowed=allowed):
                    dims = sorted({r[3] for r in allowed if r[2] == Q.order})
                    if vs.vertex.order != Q.order:
                        return "source vertex order %d, vertex %d" % (vs.vertex.order, Q.order)
                    return None if vs.source.dim in dims else "source dim %d not in %r" % (vs.source.dim, dims)

                yield Query(
                    "source dim %d of %s" % (W.dim, label),
                    tag,
                    lambda W=W, Q=Q: mc.source(W, Q, seed=seed),
                    check_source,
                )


# ------------------------------------------------------------ classify-cli


CLI_REQUESTS = [
    ["simples", "-g", "A4", "-p", "2", "-n", "2"],
    ["simples", "-g", "S4", "-p", "2", "-n", "2"],
    ["simples", "-g", "C7", "-p", "2", "-n", "2"],
    ["simples", "-g", "S3", "-p", "3", "-n", "2"],
    ["simples", "-g", "Q8", "-p", "3", "-n", "2"],
    ["simples", "-g", "Q8", "-p", "2", "-n", "12"],
    ["simples", "-g", "Q8", "-p", "2", "-n", "20"],
    ["count", "-g", "A4", "-p", "2"],
    ["count", "-g", "S4", "-p", "3"],
    ["count", "-g", "S3", "-p", "2"],
    ["count", "-g", "Q8", "-p", "2"],
    ["count", "-g", "C7", "-p", "7"],
    ["fiber", "-g", "A4", "-p", "2", "--index", "1", "--degree", "6"],
    ["fiber", "-g", "S4", "-p", "3", "--index", "1", "--degree", "6"],
    ["fiber", "-g", "S3", "-p", "2", "--index", "1", "--degree", "6"],
    ["fiber", "-g", "C7", "-p", "2", "--index", "1", "--degree", "6"],
    ["verify", "-g", "A4", "-p", "2", "--bound", "6"],
    ["verify", "-g", "S4", "-p", "2", "--bound", "4"],
    ["verify", "-g", "S3", "-p", "2", "--bound", "6"],
    ["verify", "-g", "S3", "-p", "3", "--bound", "5"],
    ["verify", "-g", "Q8", "-p", "2", "--bound", "4"],
    ["make", "regular", "-g", "S3", "-p", "2", "-n", "2", "-o", "{work}/s3reg.json"],
    ["decompose", "--module", "{work}/s3reg.json"],
    ["make", "trivial", "-g", "A4", "-p", "2", "-n", "2", "-o", "{work}/a4triv.json"],
    ["vertex", "--module", "{work}/a4triv.json"],
]


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class ClassifyCli:
    """A batch of ``cli.main`` requests run in-process against a fresh
    ``--cache-dir``, then the same batch replayed from that cache."""

    name = "classify-cli"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.work = workdir
        self.passes = 0

    def setup(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        cat = mc.catalog()
        self.requests = [[a.format(work=self.work) for a in argv] for argv in CLI_REQUESTS]
        # every field a request names, and the extensions fiber and verify reach
        fields = set()
        self.classes = {}
        for argv in self.requests:
            p = _flag(argv, "-p")
            if p is None:
                continue
            p, n = int(p), int(_flag(argv, "-n", "1"))
            top = int(_flag(argv, "--degree", _flag(argv, "--bound", "1")))
            fields.add((p, n))
            fields.update((p, k) for k in range(1, top + 1))
            if argv[0] == "count":
                G = cat[_flag(argv, "-g")]
                self.classes[(_flag(argv, "-g"), p)] = G.p_regular_class_count(p)
        for p, n in sorted(fields):
            mc.make_field(p, n)

    def _key(self, argv: list[str]) -> str:
        return " ".join(argv).replace(self.work, "WORK")

    def _check_cold(self, argv: list[str], answer) -> str | None:
        code, out, err = answer
        if code != 0:
            return "exit %r: %s" % (code, err.strip())
        want = EXPECTED["classify_cli"][self._key(argv)]
        if argv[0] == "make":
            with open(_flag(argv, "-o"), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            return _mismatch("module file sha256", digest, want)
        bad = _mismatch("output", out, want)
        if bad:
            return bad
        lines = out.splitlines()
        if argv[0] == "count":
            total = int(lines[-3].split(": ")[1])
            classes = self.classes[(_flag(argv, "-g"), int(_flag(argv, "-p")))]
            return _mismatch("count vs p-regular classes", total, classes)
        if argv[0] == "decompose":
            dim = int(lines[0].split()[-2])
            rows = [tuple(int(x) for x in line.split()) for line in lines[2:]]
            return _mismatch("sum of dim x multiplicity", sum(d * m for d, m in rows), dim)
        if argv[0] == "vertex":
            # the module is the trivial module of A4 in characteristic 2
            return _mismatch("vertex order", int(lines[0].split(": ")[1]), sylow_order(12, 2))
        return None

    def queries(self):
        self.passes += 1
        cache = os.path.join(self.work, "cache-%d" % self.passes)
        base = ["--seed", str(self.seed), "--cache-dir", cache]
        cold = {}
        for argv in self.requests:

            def check(answer, argv=argv):
                cold[self._key(argv)] = answer
                return self._check_cold(argv, answer)

            yield Query("cold " + self._key(argv), "cold", lambda argv=argv: _run_cli(base + argv), check)
        for argv in self.requests:

            def check_replay(answer, argv=argv):
                first = cold.get(self._key(argv))
                if first is None:
                    return "no cold answer to compare with"
                return _mismatch("replayed (exit, stdout, stderr)", answer, first)

            yield Query("replay " + self._key(argv), "replay", lambda argv=argv: _run_cli(base + argv), check_replay)
        shutil.rmtree(cache, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
