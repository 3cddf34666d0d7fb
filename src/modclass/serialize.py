"""JSON documents for fields, groups and modules.

The on-disk format is deliberately plain: a module document records the
group (by catalog name or generator images), the coefficient field (prime,
degree and the canonical minimal polynomial, constant term first), and one
matrix per group generator.  Matrix entries are integer codes for prime
fields and coefficient lists for extension fields; the loader accepts both
forms either way.  Every number must be a JSON integer: floats, strings
and booleans are refused, never truncated.  Every load re-validates the
representation law, so a hand-edited file cannot smuggle in a non-module.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError
from .finite_field import FiniteField, make_field
from .modrep import Rep, validate
from .perm_group import PermGroup, catalog

SCHEMA_VERSION = 1


def dumps_canonical(doc) -> str:
    """Stable serialization: sorted keys, no whitespace, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def field_to_doc(field: FiniteField) -> dict:
    return {
        "p": field.p,
        "n": field.n,
        "min_poly": [int(c) for c in field.min_poly],
    }


def _int(value, what: str) -> int:
    """A JSON integer as an int; bools, floats and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError("%s must be an integer, got %r" % (what, value))
    return int(value)


def field_from_doc(doc) -> FiniteField:
    if not isinstance(doc, dict):
        raise InputError("field document must be an object")
    if "p" not in doc or "n" not in doc:
        raise InputError("field document needs integer fields 'p' and 'n'")
    p = _int(doc["p"], "field 'p'")
    n = _int(doc["n"], "field 'n'")
    field = make_field(p, n)
    if "min_poly" in doc:
        if not isinstance(doc["min_poly"], list):
            raise InputError("min_poly must be a list of coefficients")
        given = [_int(c, "min_poly coefficient") for c in doc["min_poly"]]
        if given != [int(c) for c in field.min_poly]:
            raise InputError(
                "min_poly %r is not the canonical polynomial %r for GF(%d^%d)"
                % (given, [int(c) for c in field.min_poly], p, n)
            )
    return field


def group_to_doc(G: PermGroup, name: str | None = None) -> dict:
    if name is not None:
        return {"name": name}
    return {
        "degree": G.degree,
        "generators": [list(g) for g in G.generators],
    }


def group_from_doc(doc) -> PermGroup:
    if not isinstance(doc, dict):
        raise InputError("group document must be an object")
    if "name" in doc:
        name = doc["name"]
        groups = catalog()
        if not isinstance(name, str) or name not in groups:
            raise InputError(
                "unknown group name %r; catalog has %s" % (name, ", ".join(sorted(groups)))
            )
        return groups[name]
    if "degree" not in doc or "generators" not in doc:
        raise InputError("group document needs 'name' or 'degree' plus 'generators'")
    degree = _int(doc["degree"], "group degree")
    gens = doc["generators"]
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise InputError("group generators must be a list of image lists")
    # generator images are 0-based, matching the Python API
    perms = [tuple(_int(x, "generator image") for x in g) for g in gens]
    if not perms:
        perms = [tuple(range(degree))]  # trivial group still needs one generator
    return PermGroup(degree, perms)


def _entry_from_doc(field: FiniteField, entry) -> int:
    if isinstance(entry, list):
        if len(entry) > field.n:
            raise InputError("coefficient list longer than the field degree")
        code = 0
        for i, c in enumerate(entry):
            c = _int(c, "matrix coefficient")
            if not 0 <= c < field.p:
                raise InputError("coefficient %d out of range for p=%d" % (c, field.p))
            code += c * field.p**i
        return code
    code = _int(entry, "matrix entry")
    if not 0 <= code < field.q:
        raise InputError("entry code %d out of range for field of size %d" % (code, field.q))
    return code


def module_to_doc(V: Rep, group_name: str | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "module",
        "group": group_to_doc(V.group, group_name),
        "field": field_to_doc(V.field),
        "dim": V.dim,
        "matrices": [(V.field.decode(M) if V.field.n > 1 else M).tolist() for M in V.matrices],
    }


def module_from_doc(doc) -> Rep:
    if not isinstance(doc, dict):
        raise InputError("module document must be an object")
    if doc.get("kind") != "module":
        raise InputError("document kind is %r, expected 'module'" % (doc.get("kind"),))
    version = doc.get("schema_version")
    if isinstance(version, bool) or not isinstance(version, int) or not 1 <= version <= SCHEMA_VERSION:
        raise InputError("unsupported schema_version %r" % (version,))
    group = group_from_doc(doc.get("group"))
    field = field_from_doc(doc.get("field"))
    if "dim" not in doc or "matrices" not in doc:
        raise InputError("module document needs 'dim' and 'matrices'")
    dim = _int(doc["dim"], "module dim")
    raw = doc["matrices"]
    if not isinstance(raw, list) or len(raw) != len(group.generators):
        raise InputError(
            "need %d matrices (one per group generator)" % len(group.generators)
        )
    mats = []
    for M in raw:
        if not isinstance(M, list) or len(M) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in M
        ):
            raise InputError("matrix is not %d x %d" % (dim, dim))
        mats.append(
            np.array(
                [[_entry_from_doc(field, e) for e in row] for row in M], dtype=np.int64
            ).reshape(dim, dim)
        )
    V = Rep(group, field, mats)
    issues = validate(V)
    if issues:
        raise InputError("matrices do not define a module: " + "; ".join(issues))
    return V


def save_module(path: str, V: Rep, group_name: str | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(module_to_doc(V, group_name)))


def read_module_doc(path: str):
    """The parsed JSON of a module file, not yet validated as a module."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read module file: %s" % exc) from None
    except json.JSONDecodeError as exc:
        raise InputError("module file is not valid JSON: %s" % exc) from None


def load_module(path: str) -> Rep:
    return module_from_doc(read_module_doc(path))
