"""Command line interface.

Designed for batch use: no prompts, deterministic output for a fixed seed,
and machine-readable exit codes.  Exit 0 means success (and, for `count`
and `verify`, that the mathematical checks agreed); exit 2 is reserved for
mathematical failures (a consistency check or verification clause failed);
exit 1 covers usage errors, bad input files, resource limits and
inconclusive randomized searches.

Report commands (`simples`, `count`, `fiber`, `verify`, `decompose`,
`vertex`) honour `--format table` (default) or `--format structured`
(JSON).  Module-emitting commands (`make`, `extend`, `restrict`, `green`)
always write a module document, to `-o FILE` or stdout.

With `--cache-dir DIR` the report commands memoize rendered output keyed
by a hash of the full request, the package version and a digest of the
package's source files; a cache hit replays byte-identical output.  An
entry is written to a temp file and renamed into place, so readers never
see part of one; a failed write only warns, and the report is printed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict

from .errors import ConsistencyError, InputError, ModclassError
from . import limits
from .finite_field import make_field
from . import classify
from . import meataxe
from . import green as green_mod
from .modrep import (
    extend_scalars,
    regular_module,
    restrict_scalars,
    trivial_module,
)
from .perm_group import catalog
from . import serialize

CACHE_SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for mathematical
    # failures here, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _resolve_group(name_or_path: str):
    """A catalog name or a path to a group/module JSON document.

    Returns (group, group_doc) where group_doc is the canonical document
    used in cache keys.
    """
    groups = catalog()
    if name_or_path in groups:
        doc = {"name": name_or_path}
        return serialize.group_from_doc(doc), doc
    if os.path.exists(name_or_path):
        try:
            with open(name_or_path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError("cannot read group file %s: %s" % (name_or_path, exc)) from None
        if isinstance(doc, dict) and doc.get("kind") == "module":
            doc = doc.get("group")
        G = serialize.group_from_doc(doc)
        return G, serialize.group_to_doc(G)
    raise InputError(
        "unknown group %r: not a catalog name (%s) and not a file"
        % (name_or_path, ", ".join(sorted(groups)))
    )


def _load_module_arg(path: str):
    """(module, document) from one read of the file; the document keys the cache."""
    doc = serialize.read_module_doc(path)
    return serialize.module_from_doc(doc), doc


def _parse_perm_list(text: str, degree: int):
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if not isinstance(data, list) or not all(isinstance(g, list) for g in data):
        raise InputError(
            "expected a JSON list of permutations (0-based image lists), got %r" % text
        )
    perms = [tuple(serialize._int(x, "permutation image") for x in g) for g in data]
    for g in perms:
        if sorted(g) != list(range(degree)):
            raise InputError("not a permutation of 0..%d: %r" % (degree - 1, list(g)))
    return perms


# ---------------------------------------------------------------- caching


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's source files, read once per process."""
    h = hashlib.sha256()
    root = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(hashlib.sha256(name.encode() + b"\0" + fh.read()).digest())
    return h.hexdigest()


def _cache_path(cache_dir: str, key_doc) -> str:
    digest = hashlib.sha256(serialize.dumps_canonical(key_doc).encode()).hexdigest()
    return os.path.join(cache_dir, digest + ".json")


def _cache_read(path: str):
    if not os.path.isfile(path):  # a directory there is a miss, and the write warns
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("cache_schema") != CACHE_SCHEMA:
            raise ValueError("wrong cache schema")
        output = doc["output"]
        code = doc["exit_code"]
        if not isinstance(output, str) or not isinstance(code, int):
            raise ValueError("wrong field types")
        return output, code
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print("warning: evicting corrupt cache entry %s (%s)" % (path, exc), file=sys.stderr)
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def _cache_write(path: str, key_doc, output: str, exit_code: int) -> None:
    """Write a temp file beside the entry and rename it into place: a reader
    sees a whole entry or none, and of concurrent writers of one request,
    which write the same bytes, the last rename wins.  A failure only warns."""
    doc = {
        "cache_schema": CACHE_SCHEMA,
        "request": key_doc,
        "output": output,
        "exit_code": exit_code,
    }
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(serialize.dumps_canonical(doc))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        print("warning: cache entry %s not written (%s)" % (path, exc), file=sys.stderr)


def _run_cached(args, key_doc, report) -> int:
    """report() -> (structured doc, table lines, exit code); prints the
    output in args.format, replayed from cache when possible.

    The key gets the command, seed and format, the package version and the
    digest of its source, so output of another version of the code never
    replays.
    """
    from . import __version__

    key_doc = dict(key_doc, command=args.command, seed=args.seed, format=args.format)
    key_doc.update(version=__version__, source=_source_digest())
    if args.cache_dir:
        os.makedirs(args.cache_dir, exist_ok=True)
        path = _cache_path(args.cache_dir, key_doc)
        hit = _cache_read(path)
        if hit is not None:
            sys.stdout.write(hit[0])
            return hit[1]
    doc, lines, code = report()
    if args.format == "structured":
        output = serialize.dumps_canonical(doc)
    else:
        output = "\n".join(lines) + "\n"
    if args.cache_dir:
        _cache_write(path, key_doc, output, code)
    sys.stdout.write(output)
    return code


# ---------------------------------------------------------------- commands


def _field_label(p: int, n: int) -> str:
    return "GF(%d)" % p if n == 1 else "GF(%d^%d)" % (p, n)


def _simple_module(G, K, args):
    """Simple module number args.index of G over K."""
    S = meataxe.simple_modules(G, K, seed=args.seed)
    if not 0 <= args.index < len(S.modules):
        raise InputError("index %d out of range: %d simple modules" % (args.index, len(S.modules)))
    return S.modules[args.index]


def _summand_report(entries):
    """Structured rows and table lines of (module, multiplicity) pairs."""
    rows = [{"dim": W.dim, "multiplicity": m} for W, m in entries]
    return rows, ["dim  multiplicity"] + ["%3d  %12d" % (W.dim, m) for W, m in entries]


def _cmd_simples(args) -> int:
    G, gdoc = _resolve_group(args.group)

    def report():
        K = make_field(args.p, args.n)
        S = meataxe.simple_modules(G, K, seed=args.seed)
        doc = {
            "group": gdoc,
            "field": serialize.field_to_doc(K),
            "simples": [
                {"index": i, "dim": W.dim, "end_degree": S.end_degrees[i]}
                for i, W in enumerate(S.modules)
            ],
        }
        lines = [
            "simple %s-modules for group of order %d" % (_field_label(args.p, args.n), G.order)
        ]
        lines.append("index  dim  end_degree")
        for i, W in enumerate(S.modules):
            lines.append("%5d  %3d  %10d" % (i, W.dim, S.end_degrees[i]))
        return doc, lines, 0

    return _run_cached(args, {"group": gdoc, "p": args.p, "n": args.n}, report)


def _cmd_count(args) -> int:
    G, gdoc = _resolve_group(args.group)

    def report():
        rep = classify.count_absolutely_simple(G, args.p, seed=args.seed)
        doc = {
            "group": gdoc,
            "p": args.p,
            "rows": [asdict(r) for r in rep.rows],
            "total": rep.total,
            "p_regular_classes": rep.p_regular_classes,
            "agree": rep.agree,
        }
        lines = ["absolutely simple classes over the closure of GF(%d)" % args.p]
        lines.append("index  dim  end_degree  splitting_field  fiber_size")
        for r in rep.rows:
            lines.append(
                "%5d  %3d  %10d  %15s  %10d"
                % (r.index, r.dim, r.end_degree, _field_label(args.p, r.splitting_degree), r.fiber_size)
            )
        lines.append("total: %d" % rep.total)
        lines.append("p-regular classes: %d" % rep.p_regular_classes)
        lines.append("agree: %s" % ("yes" if rep.agree else "NO"))
        return doc, lines, 0 if rep.agree else 2

    return _run_cached(args, {"group": gdoc, "p": args.p}, report)


def _cmd_fiber(args) -> int:
    if args.module:
        V, key_mod = _load_module_arg(args.module)
    else:
        if args.group is None or args.p is None:
            raise InputError("fiber needs either --module FILE or -g GROUP with -p P")
        G, gdoc = _resolve_group(args.group)
        K = make_field(args.p, args.n)
        key_mod = {"group": gdoc, "p": args.p, "n": args.n, "index": args.index}

    def report():
        # a replay from the cache computes no simple modules
        W = V if args.module else _simple_module(G, K, args)
        level = classify.fiber(W, args.degree, seed=args.seed)
        L = level.field
        rows, lines = _summand_report(level.entries)
        doc = {
            "degree": args.degree,
            "field": serialize.field_to_doc(L),
            "entries": rows,
        }
        title = "fiber over %s (degree %d extension)" % (_field_label(L.p, L.n), args.degree)
        return doc, [title] + lines, 0

    return _run_cached(args, {"module": key_mod, "degree": args.degree}, report)


def _cmd_verify(args) -> int:
    G, gdoc = _resolve_group(args.group)

    def report():
        rep = classify.verify_classification(G, args.p, bound=args.bound, seed=args.seed)
        doc = {
            "group": gdoc,
            "p": args.p,
            "bound": rep.bound,
            "clauses": [asdict(c) for c in rep.clauses],
            "passed": rep.passed,
        }
        lines = ["verification for p=%d through extension degree %d" % (args.p, rep.bound)]
        for c in rep.clauses:
            lines.append(
                "%-26s %s%s" % (c.name, "PASS" if c.passed else "FAIL", "" if c.passed else "  " + c.detail)
            )
        lines.append("result: %s" % ("PASS" if rep.passed else "FAIL"))
        return doc, lines, 0 if rep.passed else 2

    return _run_cached(args, {"group": gdoc, "p": args.p, "bound": args.bound}, report)


def _emit_module(args, V, group_name=None) -> int:
    text = serialize.dumps_canonical(serialize.module_to_doc(V, group_name))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_make(args) -> int:
    G, gdoc = _resolve_group(args.group)
    name = gdoc.get("name")
    K = make_field(args.p, args.n)
    if args.what == "regular":
        V = regular_module(G, K)
    elif args.what == "trivial":
        V = trivial_module(G, K)
    else:
        V = _simple_module(G, K, args)
    return _emit_module(args, V, name)


def _cmd_decompose(args) -> int:
    V, mdoc = _load_module_arg(args.module)

    def report():
        dec = meataxe.decompose(V, seed=args.seed)
        rows, lines = _summand_report(dec.summands)
        title = "indecomposable summands of a dim %d module" % V.dim
        doc = {
            "dim": V.dim,
            "summands": rows,
        }
        return doc, [title] + lines, 0

    return _run_cached(args, {"module": mdoc}, report)


def _cmd_vertex(args) -> int:
    V, mdoc = _load_module_arg(args.module)

    def report():
        vs = green_mod.source(V, seed=args.seed)
        Q, U = vs.vertex, vs.source
        gens = [list(g) for g in Q.group.generators]
        doc = {
            "vertex_order": Q.order,
            "vertex_generators": gens,
            "source_dim": U.dim,
            "projective": Q.order == 1,
        }
        lines = [
            "vertex order: %d" % Q.order,
            "vertex generators: %s" % json.dumps(gens),
            "source dim: %d" % U.dim,
            "projective: %s" % ("yes" if Q.order == 1 else "no"),
        ]
        return doc, lines, 0

    return _run_cached(args, {"module": mdoc}, report)


def _cmd_green(args) -> int:
    V, _ = _load_module_arg(args.module)
    G = V.group
    Q = G.generated_subgroup(_parse_perm_list(args.vertex_gens, G.degree))
    H = G.generated_subgroup(_parse_perm_list(args.subgroup_gens, G.degree))
    W = green_mod.green_correspondent(V, Q, H, seed=args.seed)
    return _emit_module(args, W)


def _cmd_extend(args) -> int:
    V, _ = _load_module_arg(args.module)
    K = V.field
    L = make_field(K.p, K.n * args.degree)
    return _emit_module(args, extend_scalars(V, L))


def _cmd_restrict(args) -> int:
    V, _ = _load_module_arg(args.module)
    K = V.field
    m = args.to_degree
    if m < 1:
        raise InputError("target degree must be >= 1, got %d" % m)
    if K.n % m != 0:
        raise InputError("target degree %d does not divide the field degree %d" % (m, K.n))
    return _emit_module(args, restrict_scalars(V, make_field(K.p, m)))


# ---------------------------------------------------------------- parser


def _add_group_field(sp, required=True):
    sp.add_argument("-g", "--group", required=required, help="catalog name or group JSON file")
    sp.add_argument("-p", type=int, required=required, help="field characteristic (prime)")
    sp.add_argument("-n", type=int, default=1, help="field degree over the prime field")


def _non_negative_int(text: str) -> int:
    # numpy refuses negative seeds; argparse reports this as a usage error
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="modclass", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--seed", type=_non_negative_int, default=0, help="seed for randomized searches (>= 0)")
    top.add_argument(
        "--format", choices=("table", "structured"), default="table", help="report output format"
    )
    top.add_argument("--cache-dir", default=None, help="directory for memoized report output")
    top.add_argument("--max-group-order", type=int, default=None, help="override the group order cap")
    top.add_argument("--max-field-size", type=int, default=None, help="override the field size cap")
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simples", help="list the simple modules over GF(p^n)")
    _add_group_field(sp)

    sp = sub.add_parser("count", help="count absolutely simple classes and compare with the class count")
    _add_group_field(sp)

    sp = sub.add_parser("fiber", help="components of a module after a field extension")
    _add_group_field(sp, required=False)
    sp.add_argument("--index", type=int, default=0, help="which simple module (with -g)")
    sp.add_argument("--module", default=None, help="module JSON file (alternative to -g)")
    sp.add_argument("--degree", type=int, required=True, help="extension degree")

    sp = sub.add_parser("verify", help="run the classification verification clauses")
    _add_group_field(sp)
    sp.add_argument("--bound", type=int, default=None, help="largest extension degree to check")

    sp = sub.add_parser("make", help="write a standard module as JSON")
    sp.add_argument("what", choices=("regular", "trivial", "simple"))
    _add_group_field(sp)
    sp.add_argument("--index", type=int, default=0, help="which simple module (for 'simple')")
    sp.add_argument("-o", "--out", default=None, help="output file (default stdout)")

    sp = sub.add_parser("decompose", help="indecomposable summands of a module file")
    sp.add_argument("--module", required=True, help="module JSON file")

    sp = sub.add_parser("vertex", help="vertex and source of an indecomposable module")
    sp.add_argument("--module", required=True, help="module JSON file")

    sp = sub.add_parser("green", help="Green correspondent across a subgroup containing the normalizer")
    sp.add_argument("--module", required=True, help="module JSON file")
    sp.add_argument("--vertex-gens", required=True, help="JSON list of permutations generating Q")
    sp.add_argument("--subgroup-gens", required=True, help="JSON list of permutations generating H")
    sp.add_argument("-o", "--out", default=None, help="output file (default stdout)")

    sp = sub.add_parser("extend", help="extend scalars by a field extension of given degree")
    sp.add_argument("--module", required=True, help="module JSON file")
    sp.add_argument("--degree", type=int, required=True, help="extension degree")
    sp.add_argument("-o", "--out", default=None, help="output file (default stdout)")

    sp = sub.add_parser("restrict", help="restrict scalars to a subfield (default: the prime field)")
    sp.add_argument("--module", required=True, help="module JSON file")
    sp.add_argument("--to-degree", type=int, default=1, help="degree of the target subfield")
    sp.add_argument("-o", "--out", default=None, help="output file (default stdout)")

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; building it costs more than a cache replay."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    saved_caps = limits.MAX_GROUP_ORDER, limits.MAX_FIELD_SIZE
    if args.max_group_order is not None:
        limits.MAX_GROUP_ORDER = args.max_group_order
    if args.max_field_size is not None:
        limits.MAX_FIELD_SIZE = args.max_field_size
    try:
        # looked up per call, so a wrapped or replaced command takes effect
        return globals()["_cmd_" + args.command](args)
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return 2
    except (ModclassError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        # the caps hold for this invocation only
        limits.MAX_GROUP_ORDER, limits.MAX_FIELD_SIZE = saved_caps


if __name__ == "__main__":
    raise SystemExit(main())
