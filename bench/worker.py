"""One workload in one process: set up, run passes, report as JSON.

Started by ``run.py`` with the repository's ``src`` on ``PYTHONPATH`` and
resource limits already applied.  Prints ``READY`` once the inputs are
built (the parent times set-up up to that line), then, unless
``--setup-only``, one ``RESULT`` line holding every pass's query records
and the process's peak RSS at the end of the first pass.

Prints ``GAUGE`` with the median speed-gauge sample (``gauge.py``) up to
then, and each pass records the median sample taken during it.

Untraced passes repeat while the previous pass would still fit in
``--seconds``; there is always at least one.  With ``--trace 1`` the worker
runs one untraced pass and then one traced pass, and adds the per-layer
metrics of the traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter

import numpy as np

import modclass as mc

from gauge import SpeedGauge
from tracer import Tracer
from workloads import ClassifyCli, KrullSchmidt, Simples


def make_workload(name: str, seed: int, outdir: str):
    if name == "simples":
        return Simples(seed)
    if name == "krull-schmidt":
        return KrullSchmidt(seed)
    if name == "classify-cli":
        return ClassifyCli(seed, os.path.join(outdir, "work-%d" % os.getpid()))
    raise SystemExit("unknown workload %r" % name)


def run_pass(wl, gauge: SpeedGauge, tracer: Tracer | None = None) -> dict:
    records = []
    start = len(gauge.samples)
    gen = wl.queries()
    t_pass = perf_counter()
    answer = None
    while True:
        try:
            q = gen.send(answer)
        except StopIteration:
            break
        if tracer is not None:
            tracer.query, tracer.tag = q.qid, q.tag
        t0 = perf_counter()
        try:
            answer = q.run()
            error = None
        except Exception as exc:  # a failed query counts in fail_share; the loop goes on
            answer, error = None, "%s: %s" % (type(exc).__name__, exc)
        dt = perf_counter() - t0
        if error is None:
            error = q.check(answer)
            if error is not None:
                answer = None
        records.append({"qid": q.qid, "tag": q.tag, "s": dt, "error": error})
    makespan = perf_counter() - t_pass
    gauge.sample(5)
    return {"makespan_s": makespan, "gauge_s": gauge.median_since(start), "queries": records}


def layer_metrics(tr: Tracer, traced: dict, make_field_s: float) -> dict:
    """Per-layer metrics of one traced pass; ``make_field_s`` includes set-up."""
    makespan = traced["makespan_s"]
    c = tr.counters
    calls = tr.calls

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    ff_calls = sum(v for k, v in calls.items() if k.startswith("finite_field.FiniteField."))
    mat = ("finite_field.FiniteField.mat_mul", "finite_field.FiniteField.mat_vec", "finite_field.FiniteField.mat_pow")
    replay = [r for r in traced["queries"] if r["tag"] == "replay"]
    reads = c.get("cli.cache_reads.replay", 0)
    return {
        "finite_field.calls": (ff_calls, "count"),
        "finite_field.ext_share": (c.get("finite_field.ext_calls", 0) / ff_calls if ff_calls else 0.0, "ratio"),
        "finite_field.self_s": (tr.layer_self_s("finite_field"), "s"),
        "finite_field.mat_mul_calls": (n(*mat), "count"),
        "finite_field.mat_mul_self_s": (tr.name_self_s(*mat), "s"),
        "finite_field.make_field_s": (make_field_s, "s"),
        "polynomials.self_s": (tr.layer_self_s("polynomials"), "s"),
        "polynomials.factor_calls": (n("polynomials.factor"), "count"),
        "linalg.rref_calls": (n("linalg.rref"), "count"),
        "linalg.rref_self_s": (tr.name_self_s("linalg.rref"), "s"),
        "linalg.rref_self_s.natural": (tr.name_self_s("linalg.rref", tag="natural"), "s"),
        "linalg.rref_self_s.random": (tr.name_self_s("linalg.rref", tag="random"), "s"),
        "linalg.rref_cells": (c.get("linalg.rref_cells", 0), "count"),
        "linalg.nullspace_self_s": (tr.name_self_s("linalg.nullspace"), "s"),
        "linalg.spin_calls": (n("linalg.spin"), "count"),
        "linalg.spin_self_s": (tr.name_self_s("linalg.spin"), "s"),
        "linalg.rowspace_adds": (c.get("linalg.rowspace_adds", 0), "count"),
        "linalg.rowspace_useful_ratio": (
            c.get("linalg.rowspace_useful", 0) / c["linalg.rowspace_adds"] if c.get("linalg.rowspace_adds") else 0.0,
            "ratio",
        ),
        "linalg.spin_share": (tr.inclusive_s.get("spin", 0.0) / makespan, "ratio"),
        "modrep.hom_calls": (n("modrep.hom_basis_matrices"), "count"),
        "modrep.hom_self_s": (tr.name_self_s("modrep.hom_basis_matrices"), "s"),
        "modrep.hom_self_s.natural": (tr.name_self_s("modrep.hom_basis_matrices", tag="natural"), "s"),
        "modrep.hom_self_s.random": (tr.name_self_s("modrep.hom_basis_matrices", tag="random"), "s"),
        "modrep.hom_system_cells": (c.get("modrep.hom_system_cells", 0), "count"),
        "modrep.hom_system_max_mb": (c.get("modrep.hom_system_max_mb", 0.0), "MB"),
        "modrep.hom_share": (tr.inclusive_s.get("hom", 0.0) / makespan, "ratio"),
        "modrep.induce_self_s": (tr.name_self_s("modrep.induce"), "s"),
        "meataxe.endomorphism_calls": (n("meataxe.endomorphism_basis"), "count"),
        "meataxe.decompose_self_s": (tr.name_self_s("meataxe.decompose"), "s"),
        "meataxe.chop_self_s": (tr.name_self_s("meataxe._chop"), "s"),
        "meataxe.canonical_self_s": (tr.name_self_s("meataxe.try_canonical_form"), "s"),
        "meataxe.iso_calls": (n("meataxe.is_isomorphic"), "count"),
        "meataxe.iso_self_s": (tr.name_self_s("meataxe.is_isomorphic"), "s"),
        "green.relproj_calls": (n("green.is_relatively_projective"), "count"),
        "green.relproj_self_s": (tr.name_self_s("green.is_relatively_projective"), "s"),
        "green.vertex_self_s": (tr.name_self_s("green.vertex"), "s"),
        "green.source_self_s": (tr.name_self_s("green.source"), "s"),
        "perm_group.self_s": (tr.layer_self_s("perm_group"), "s"),
        "classify.up_relation_calls": (n("classify.up_relation"), "count"),
        "classify.up_relation_self_s": (tr.name_self_s("classify.up_relation"), "s"),
        "classify.fiber_self_s": (tr.name_self_s("classify.fiber"), "s"),
        "classify.verify_self_s": (tr.name_self_s("classify.verify_classification"), "s"),
        "serialize.self_s": (tr.layer_self_s("serialize"), "s"),
        "cli.replay_s": (sum(r["s"] for r in replay), "s"),
        "cli.replay_max_s": (max((r["s"] for r in replay), default=0.0), "s"),
        "cli.cache_hit_ratio": (c.get("cli.cache_hits.replay", 0) / reads if reads else 0.0, "ratio"),
        "finite_field.share": (tr.layer_self_s("finite_field") / makespan, "ratio"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    gauge = SpeedGauge()
    gauge.start()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(mc)
    wl = make_workload(args.workload, args.seed, args.outdir)
    try:
        wl.setup()
        print("READY", flush=True)
        gauge.sample(20)
        print("GAUGE %r" % gauge.median_since(0), flush=True)
        if args.setup_only:
            return 0
        result = {
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        if tracer is not None:
            make_field_s = sum(s[3] - s[2] for s in tracer.spans if s[1] == "finite_field.make_field")
            tracer.uninstall()
            plain = run_pass(wl, gauge)
            tracer.reset()
            tracer.install(mc)
            try:
                traced = run_pass(wl, gauge, tracer)
            finally:
                tracer.uninstall()
            make_field_s += sum(s[3] - s[2] for s in tracer.spans if s[1] == "finite_field.make_field")
            metrics = layer_metrics(tracer, traced, make_field_s)
            result["passes"] = [plain, traced]
            result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            tracer.write(os.path.join(args.outdir, "trace-%s-seed%d.json" % (args.workload, args.seed)))
        else:
            passes = []
            t_start = perf_counter()
            while True:
                passes.append(run_pass(wl, gauge))
                if len(passes) == 1:
                    # later passes repeat the same work, so they add no new peak
                    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if perf_counter() - t_start + passes[-1]["makespan_s"] > args.seconds:
                    break
            result["passes"] = passes
    finally:
        gauge.stop()
        close = getattr(wl, "close", None)
        if close is not None:
            close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
