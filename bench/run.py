"""modclass benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root:

    python3 bench/run.py --workload simples --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all                 # every workload, end to end
    python3 bench/run.py --all --trace 1       # plus a traced run per workload

Each workload runs in its own child process (``worker.py``) with
``RLIMIT_AS`` set on that child only, so an allocation blow-up fails a
query instead of exhausting the machine; ``peak_rss_mb`` is that child's
``ru_maxrss`` after its first pass over the queries.  ``setup_s`` is the median over several children of the
time from process start until the inputs are ready.  Numpy/BLAS run on one
thread.  Times are scaled to a reference machine speed by the speed gauge
of ``gauge.py``; the measured seconds and gauge readings are kept in the
results file.

Output: one ``<workload> <metric> <value> <unit>`` line per metric, the
workload's ``fail_share``, and as the last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file
with the git SHA, Python and numpy versions and ``nproc`` goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("simples", "krull-schmidt", "classify-cli")

MEMORY_LIMIT = 3 * 2**30  # address space of one workload process, bytes
CPU_LIMIT_S = 150  # CPU seconds of one workload process
SETUP_SAMPLES = 5  # set-up-only processes per run, plus the measuring one

# Every time is reported in seconds at a reference speed: measured seconds
# times REF_GAUGE_S over the median speed-gauge sample (gauge.py) taken
# while they were measured.  REF_GAUGE_S is a typical sample on a 2-vCPU
# Xeon VM at 2.1 GHz nominal.
REF_GAUGE_S = 1.25e-4

# Which layer metric should move which end-to-end metric, on which workload.
LAYER_TARGETS = {
    "finite_field.calls": ["classify-cli makespan_s", "classify-cli query_p50_s"],
    "finite_field.ext_share": ["classify-cli makespan_s", "classify-cli query_p50_s"],
    "finite_field.self_s": [
        "classify-cli makespan_s",
        "classify-cli query_p50_s",
        "no change on simples and krull-schmidt from an extension-field-only change",
    ],
    "finite_field.mat_mul_calls": ["classify-cli makespan_s"],
    "finite_field.mat_mul_self_s": ["classify-cli makespan_s"],
    "finite_field.make_field_s": ["setup_s on every workload"],
    "finite_field.share": ["classify-cli makespan_s"],
    "polynomials.self_s": ["simples makespan_s"],
    "polynomials.factor_calls": ["simples makespan_s"],
    "linalg.rref_calls": ["krull-schmidt makespan_s", "krull-schmidt query_max_s"],
    "linalg.rref_self_s": ["krull-schmidt makespan_s", "krull-schmidt query_max_s"],
    "linalg.rref_self_s.natural": ["krull-schmidt makespan_s"],
    "linalg.rref_self_s.random": ["krull-schmidt makespan_s"],
    "linalg.rref_cells": ["krull-schmidt makespan_s", "krull-schmidt query_max_s"],
    "linalg.nullspace_self_s": ["krull-schmidt makespan_s", "krull-schmidt query_max_s"],
    "linalg.spin_calls": ["simples makespan_s"],
    "linalg.spin_self_s": ["simples makespan_s"],
    "linalg.rowspace_adds": ["simples makespan_s"],
    "linalg.rowspace_useful_ratio": ["simples makespan_s"],
    "linalg.spin_share": ["simples makespan_s"],
    "modrep.hom_calls": ["krull-schmidt makespan_s", "krull-schmidt query_max_s", "krull-schmidt peak_rss_mb"],
    "modrep.hom_self_s": ["krull-schmidt makespan_s", "krull-schmidt query_max_s", "krull-schmidt peak_rss_mb"],
    "modrep.hom_self_s.natural": ["krull-schmidt makespan_s"],
    "modrep.hom_self_s.random": ["krull-schmidt makespan_s"],
    "modrep.hom_system_cells": ["krull-schmidt makespan_s", "krull-schmidt peak_rss_mb"],
    "modrep.hom_system_max_mb": ["krull-schmidt peak_rss_mb"],
    "modrep.hom_share": ["krull-schmidt makespan_s"],
    "modrep.induce_self_s": ["krull-schmidt makespan_s"],
    "meataxe.endomorphism_calls": ["krull-schmidt makespan_s"],
    "meataxe.decompose_self_s": ["krull-schmidt makespan_s"],
    "meataxe.chop_self_s": ["simples makespan_s", "classify-cli makespan_s"],
    "meataxe.canonical_self_s": ["simples makespan_s", "classify-cli makespan_s"],
    "meataxe.iso_calls": ["simples makespan_s", "krull-schmidt makespan_s"],
    "meataxe.iso_self_s": ["simples makespan_s", "krull-schmidt makespan_s"],
    "green.relproj_calls": ["krull-schmidt query_p50_s"],
    "green.relproj_self_s": ["krull-schmidt query_p50_s"],
    "green.vertex_self_s": ["krull-schmidt query_p50_s"],
    "green.source_self_s": ["krull-schmidt query_p50_s"],
    "perm_group.self_s": ["krull-schmidt query_p50_s"],
    "classify.up_relation_calls": ["classify-cli makespan_s"],
    "classify.up_relation_self_s": ["classify-cli makespan_s"],
    "classify.fiber_self_s": ["classify-cli makespan_s"],
    "classify.verify_self_s": ["classify-cli makespan_s"],
    "serialize.self_s": ["classify-cli makespan_s"],
    "cli.replay_s": ["classify-cli makespan_s"],
    "cli.replay_max_s": ["classify-cli makespan_s"],
    "cli.cache_hit_ratio": ["classify-cli makespan_s"],
    "trace_overhead_s": ["none: the cost of tracing itself"],
}


class WorkerError(RuntimeError):
    """A workload process died or printed no result."""


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """Start one worker; return (scaled set-up seconds, result dict or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--outdir", OUT,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT, preexec_fn=_limit_child
    )
    setup_s = gauge_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("GAUGE "):
                gauge_s = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or gauge_s is None or (result is None and not setup_only):
        raise WorkerError("worker for %s exited with %d" % (workload, proc.returncode))
    return setup_s * REF_GAUGE_S / gauge_s, result


def _latency_queries(result: dict) -> list[list[dict]]:
    """Per pass, the queries whose latency counts (replays are cli metrics)."""
    return [[q for q in p["queries"] if q["tag"] != "replay"] for p in result["passes"]]


def _scale(p: dict) -> float:
    """Factor from one pass's measured seconds to reference-speed seconds."""
    return REF_GAUGE_S / p["gauge_s"]


def _slowest(queries: list[dict]) -> float:
    """The slowest query among those whose input does not depend on the seed.

    Random-basis inputs change with the seed, and so does the path their
    decomposition takes, so across seeds their maximum measures the seed.
    """
    return max(q["s"] for q in queries if q["tag"] != "random")


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of one workload."""
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(workload, seed, seconds, 0, True)[0])
    setup_s, result = run_worker(workload, seed, seconds, trace, False)
    setups.append(setup_s)
    queries = [q for p in result["passes"] for q in p["queries"]]
    failed = [q for q in queries if q["error"] is not None]
    out = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(queries),
        "failed": len(failed),
        "failures": [[q["qid"], q["error"]] for q in failed],
        "python": result["python"],
        "numpy": result["numpy"],
    }
    if trace:
        plain, traced = result["passes"]
        out["metrics"] = result["layers"]
        overhead = traced["makespan_s"] * _scale(traced) - plain["makespan_s"] * _scale(plain)
        out["metrics"]["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        return out
    passes = result["passes"]
    lat = _latency_queries(result)
    out["passes"] = len(passes)
    out["queries_per_pass"] = len(lat[0])
    out["measured_makespan_s"] = [p["makespan_s"] for p in passes]
    out["gauge_s"] = [p["gauge_s"] for p in passes]
    out["query_s"] = [[[q["qid"], q["s"]] for q in p["queries"]] for p in passes]
    out["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "makespan_s": {"value": statistics.median(p["makespan_s"] * _scale(p) for p in passes), "unit": "s"},
        "query_p50_s": {
            "value": statistics.median(q["s"] * _scale(p) for p, qs in zip(passes, lat) for q in qs),
            "unit": "s",
        },
        "query_max_s": {"value": statistics.median(_slowest(qs) * _scale(p) for p, qs in zip(passes, lat)), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(run: dict) -> None:
    for name, m in run["metrics"].items():
        print("%-14s %-30s %14.6g %s" % (run["workload"], name, m["value"], m["unit"]))
    print("%-14s %-30s %14.6g %s (%d of %d queries)" % (
        run["workload"], "fail_share", run["failed"] / run["attempted"], "ratio", run["failed"], run["attempted"]))
    if not run["trace"]:
        print("%-14s %d passes of %d timed queries" % (run["workload"], run["passes"], run["queries_per_pass"]))
    for qid, err in run["failures"]:
        print("FAILED %s: %s" % (qid, err), file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="results file (default bench/out/results-*.json)")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")
    if not os.path.exists(os.path.join(ROOT, "src", "modclass", "__init__.py")):
        print("error: no modclass sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    runs = []
    for name in WORKLOADS if args.all else [args.workload]:
        modes = [0, 1] if args.all and args.trace else [args.trace]
        for trace in modes:
            try:
                run = measure(name, args.seed, args.seconds, trace)
            except WorkerError as exc:
                print("error: %s" % exc, file=sys.stderr)
                return 1
            report(run)
            runs.append(run)

    doc = {
        "git_sha": git_sha(),
        "python": runs[0]["python"],
        "numpy": runs[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
        "layer_targets": LAYER_TARGETS,
    }
    path = args.out or os.path.join(
        OUT, "results-%s-seed%d-trace%d.json" % ("all" if args.all else args.workload, args.seed, args.trace)
    )
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {}
    for r in runs:
        for k, m in r["metrics"].items():
            metrics[k if not args.all else "%s.%s" % (r["workload"], k)] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
