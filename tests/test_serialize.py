"""JSON documents for fields, groups, and modules.

Round trips must be lossless and loading must re-validate everything:
canonical minimal polynomial, matrix shapes, invertibility, and the group
relations.
"""

import json

import numpy as np
import pytest

from modclass import limits, serialize
from modclass.errors import InputError, LimitError
from modclass.finite_field import make_field
from modclass.meataxe import is_isomorphic
from modclass.modrep import direct_sum, extend_scalars, regular_module, trivial_module
from modclass.perm_group import PermGroup, catalog
from modclass.serialize import (
    SCHEMA_VERSION,
    dumps_canonical,
    field_from_doc,
    field_to_doc,
    group_from_doc,
    group_to_doc,
    load_module,
    module_from_doc,
    module_to_doc,
    save_module,
)

F2 = make_field(2, 1)
F4 = make_field(2, 2)


def test_field_round_trip():
    for p, n in [(2, 1), (2, 2), (3, 2), (5, 1)]:
        F = make_field(p, n)
        doc = field_to_doc(F)
        G = field_from_doc(doc)
        assert G is F  # construction is cached


def test_field_doc_rejects_wrong_min_poly():
    doc = field_to_doc(F4)
    doc["min_poly"] = [0, 1, 1]  # not the canonical choice
    with pytest.raises(InputError):
        field_from_doc(doc)


def test_group_doc_by_name_and_explicit():
    S3 = catalog()["S3"]
    assert group_from_doc(group_to_doc(S3, "S3")) == S3
    explicit = group_from_doc(group_to_doc(S3))
    assert explicit == S3  # same degree and same generator list


def test_group_doc_rejects_unknown_name():
    with pytest.raises(InputError):
        group_from_doc({"name": "M11"})


def test_group_doc_caps_the_order_of_a_named_group(monkeypatch):
    monkeypatch.setattr(limits, "MAX_GROUP_ORDER", 10)
    assert group_from_doc({"name": "D8"}).order == 8
    with pytest.raises(LimitError, match="group order exceeds cap 10"):
        group_from_doc({"name": "S4"})


def test_group_doc_caps_degree_without_generators(monkeypatch):
    trivial = group_from_doc({"degree": limits.MAX_GROUP_ORDER, "generators": []})
    assert trivial.order == 1 and trivial.degree == limits.MAX_GROUP_ORDER

    def refuse(*args, **kwargs):
        raise AssertionError("PermGroup built before the degree was checked")

    # without the checks the refusal fails the test at a degree still cheap to build
    monkeypatch.setattr(serialize, "PermGroup", refuse)
    for degree in (limits.MAX_GROUP_ORDER + 1, 10**5):
        with pytest.raises(LimitError):
            group_from_doc({"degree": degree, "generators": []})
    with pytest.raises(InputError):
        group_from_doc({"degree": -1, "generators": []})


def test_module_round_trip_prime_field():
    reg = regular_module(catalog()["S3"], F2)
    doc = module_to_doc(reg, group_name="S3")
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["kind"] == "module"
    V = module_from_doc(doc)
    assert V.group == reg.group
    assert V.field is F2
    assert all(np.array_equal(a, b) for a, b in zip(V.matrices, reg.matrices))


def test_module_round_trip_without_generators():
    G = PermGroup(1, [])
    doc = module_to_doc(direct_sum(trivial_module(G, F2), trivial_module(G, F2)))
    assert doc["dim"] == 2 and doc["group"]["generators"] == [] and doc["matrices"] == []
    V = module_from_doc(json.loads(dumps_canonical(doc)))
    assert V.group == G and V.dim == 2 and V.matrices == ()


def test_module_round_trip_extension_field_uses_coefficient_lists():
    tr4 = extend_scalars(trivial_module(catalog()["C3"], F2), F4)
    doc = module_to_doc(tr4, group_name="C3")
    entry = doc["matrices"][0][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    V = module_from_doc(doc)
    assert is_isomorphic(V, tr4)
    assert all(np.array_equal(a, b) for a, b in zip(V.matrices, tr4.matrices))


def test_module_loader_accepts_int_codes_over_extension():
    tr4 = extend_scalars(trivial_module(catalog()["C3"], F2), F4)
    doc = module_to_doc(tr4, group_name="C3")
    doc["matrices"] = [[[1 if i == j else 0 for j in range(1)] for i in range(1)]]
    V = module_from_doc(doc)
    assert V.dim == 1


def test_save_and_load(tmp_path):
    reg = regular_module(catalog()["C3"], F2)
    path = tmp_path / "reg.json"
    save_module(str(path), reg, group_name="C3")
    text = path.read_text()
    assert text == dumps_canonical(module_to_doc(reg, group_name="C3"))
    # canonical form is stable: keys sorted, one trailing newline
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert json.loads(text)["dim"] == 3
    V = load_module(str(path))
    assert all(np.array_equal(a, b) for a, b in zip(V.matrices, reg.matrices))


def test_load_missing_file_raises_input_error(tmp_path):
    with pytest.raises(InputError):
        load_module(str(tmp_path / "absent.json"))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_module(str(path))


def _good_doc():
    return module_to_doc(regular_module(catalog()["C3"], F2), group_name="C3")


def test_module_doc_rejects_wrong_kind():
    doc = _good_doc()
    doc["kind"] = "matrix"
    with pytest.raises(InputError):
        module_from_doc(doc)


def test_module_doc_rejects_future_schema():
    doc = _good_doc()
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(InputError):
        module_from_doc(doc)


def test_module_doc_rejects_wrong_shape():
    doc = _good_doc()
    doc["matrices"][0] = doc["matrices"][0][:2]
    with pytest.raises(InputError):
        module_from_doc(doc)


def test_module_doc_rejects_singular_matrix():
    doc = _good_doc()
    doc["matrices"][0] = [[0] * 3 for _ in range(3)]
    with pytest.raises(InputError):
        module_from_doc(doc)


def test_module_doc_rejects_out_of_range_entries():
    doc = _good_doc()
    doc["matrices"][0][0][0] = 7
    with pytest.raises(InputError):
        module_from_doc(doc)


def test_module_doc_rejects_non_module_matrices():
    # invertible matrices that do not satisfy the generator orders
    doc = _good_doc()
    doc["matrices"][0] = [[1, 0, 0], [0, 1, 0], [0, 1, 1]]  # order 2, not 3
    with pytest.raises(InputError):
        module_from_doc(doc)


def test_module_doc_rejects_overlong_coefficient_list():
    tr4 = extend_scalars(trivial_module(catalog()["C3"], F2), F4)
    doc = module_to_doc(tr4, group_name="C3")
    doc["matrices"][0][0][0] = [1, 0, 0]
    with pytest.raises(InputError):
        module_from_doc(doc)


def test_dumps_canonical_is_deterministic():
    a = dumps_canonical({"b": 1, "a": [2, 3]})
    b = dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b
    assert a == '{"a":[2,3],"b":1}\n'


# (path into the good C3 document, replacement value): each is malformed
MALFORMED = {
    "generators-not-lists": (("group",), {"degree": 3, "generators": [5, 5]}),
    "generators-int": (("group",), {"degree": 3, "generators": 5}),
    "degree-float": (("group",), {"degree": 3.0, "generators": [[1, 2, 0]]}),
    "image-string": (("group",), {"degree": 3, "generators": [[1, 2, "0"]]}),
    "name-list": (("group",), {"name": ["C3"]}),
    "min-poly-int": (("field", "min_poly"), 5),
    "min-poly-string": (("field", "min_poly"), ["x"]),
    "p-float": (("field", "p"), 2.5),
    "p-string": (("field", "p"), "2"),
    "n-bool": (("field", "n"), True),
    "dim-float": (("dim",), 3.0),
    "entry-string": (("matrices", 0, 0, 0), "a"),
    "entry-null": (("matrices", 0, 0, 0), None),
    "entry-object": (("matrices", 0, 0, 0), {}),
    "entry-float": (("matrices", 0, 0, 1), 1.7),  # entry (0, 1) is 1: truncation would hide it
    "entry-bool": (("matrices", 0, 0, 0), False),
    "coefficient-float": (("matrices", 0, 0, 1), [1.7]),
    "coefficient-null": (("matrices", 0, 0, 0), [None]),
    "coefficient-string": (("matrices", 0, 0, 1), ["1"]),
    "row-int": (("matrices", 0, 0), 5),
    "schema-version-bool": (("schema_version",), True),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_module_doc_raises_input_error(case):
    path, value = MALFORMED[case]
    doc = _good_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(InputError):
        module_from_doc(doc)
