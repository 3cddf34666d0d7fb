"""Command line interface: frozen report text, module file round trips,
exit codes, and the cache replay semantics."""

import json
import os
import time

import pytest

from modclass import cli, limits, perm_group
from modclass.errors import LimitError
from modclass.finite_field import make_field
from modclass.serialize import field_to_doc, load_module

COUNT_S3_P2_TABLE = """\
absolutely simple classes over the closure of GF(2)
index  dim  end_degree  splitting_field  fiber_size
    0    1           1            GF(2)           1
    1    2           1            GF(2)           1
total: 2
p-regular classes: 2
agree: yes
"""

VERIFY_S3_P2_BOUND6_TABLE = """\
verification for p=2 through extension degree 6
subfield-lattice           PASS
restriction-homogeneous    PASS
galois-orbit               PASS
lies-under-both-routes     PASS
fiber-partition-count      PASS
transitivity               PASS
result: PASS
"""

VERIFY_A4_P2_BOUND4_STRUCTURED = (
    '{"bound":4,"clauses":['
    '{"detail":"10 subfield pairs checked","name":"subfield-lattice","passed":true},'
    '{"detail":"10 components restricted and matched","name":"restriction-homogeneous","passed":true},'
    '{"detail":"8 fibers checked","name":"galois-orbit","passed":true},'
    '{"detail":"20 relation instances checked","name":"lies-under-both-routes","passed":true},'
    '{"detail":"count 3 matches the p-regular class count","name":"fiber-partition-count","passed":true},'
    '{"detail":"11 factorizations found","name":"transitivity","passed":true}],'
    '"group":{"name":"A4"},"p":2,"passed":true}\n'
)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_table_output_frozen(capsys):
    code, out, err = _run(capsys, ["count", "-g", "S3", "-p", "2"])
    assert code == 0
    assert out == COUNT_S3_P2_TABLE


def test_count_structured_output(capsys):
    code, out, _ = _run(capsys, ["--format", "structured", "count", "-g", "S3", "-p", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["total"] == 2
    assert doc["p_regular_classes"] == 2
    assert [r["dim"] for r in doc["rows"]] == [1, 2]


def test_simples_table(capsys):
    code, out, _ = _run(capsys, ["simples", "-g", "C3", "-p", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "index  dim  end_degree"
    assert lines[2].split() == ["0", "1", "1"]
    assert lines[3].split() == ["1", "2", "2"]


def test_make_and_decompose_round_trip(tmp_path, capsys):
    path = str(tmp_path / "reg.json")
    code, out, _ = _run(capsys, ["make", "regular", "-g", "S3", "-p", "2", "-o", path])
    assert code == 0 and out == ""
    V = load_module(path)
    assert V.dim == 6
    code, out, _ = _run(
        capsys, ["--format", "structured", "decompose", "--module", path]
    )
    assert code == 0
    doc = json.loads(out)
    got = sorted((s["dim"], s["multiplicity"]) for s in doc["summands"])
    assert got == [(2, 1), (2, 2)]


def test_vertex_output_frozen(tmp_path, capsys):
    path = str(tmp_path / "simple1.json")
    code, _, _ = _run(
        capsys, ["make", "simple", "-g", "S3", "-p", "2", "--index", "1", "-o", path]
    )
    assert code == 0
    code, out, _ = _run(capsys, ["vertex", "--module", path])
    assert code == 0
    assert out == (
        "vertex order: 1\n"
        "vertex generators: [[0, 1, 2]]\n"
        "source dim: 1\n"
        "projective: yes\n"
    )


def test_vertex_of_trivial_module(tmp_path, capsys):
    path = str(tmp_path / "triv.json")
    _run(capsys, ["make", "trivial", "-g", "S3", "-p", "2", "-o", path])
    code, out, _ = _run(capsys, ["--format", "structured", "vertex", "--module", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["vertex_order"] == 2
    assert doc["source_dim"] == 1
    assert doc["projective"] is False


def test_extend_restrict_round_trip(tmp_path, capsys):
    base = str(tmp_path / "m.json")
    up = str(tmp_path / "m4.json")
    down = str(tmp_path / "m2.json")
    _run(capsys, ["make", "simple", "-g", "C3", "-p", "2", "--index", "1", "-o", base])
    code, _, _ = _run(capsys, ["extend", "--module", base, "--degree", "2", "-o", up])
    assert code == 0
    V4 = load_module(up)
    assert V4.field.q == 4 and V4.dim == 2
    code, _, _ = _run(capsys, ["restrict", "--module", up, "--to-degree", "1", "-o", down])
    assert code == 0
    V2 = load_module(down)
    assert V2.field.q == 2 and V2.dim == 4


def test_green_correspondent_via_cli(tmp_path, capsys):
    path = str(tmp_path / "triv.json")
    out_path = str(tmp_path / "green.json")
    _run(capsys, ["make", "trivial", "-g", "S3", "-p", "2", "-o", path])
    gens = json.dumps([[1, 0, 2]])
    code, _, _ = _run(
        capsys,
        [
            "green",
            "--module",
            path,
            "--vertex-gens",
            gens,
            "--subgroup-gens",
            gens,
            "-o",
            out_path,
        ],
    )
    assert code == 0
    W = load_module(out_path)
    assert W.dim == 1
    assert W.group.degree == 3


@pytest.mark.parametrize("gens", ['[[1.7, 0, 2.2]]', '[["1", false, 2]]'])
def test_green_refuses_non_integer_permutations(tmp_path, capsys, gens):
    path = str(tmp_path / "triv.json")
    _run(capsys, ["make", "trivial", "-g", "S3", "-p", "2", "-o", path])
    argv = ["green", "--module", path, "--vertex-gens", gens, "--subgroup-gens", "[[1, 0, 2]]"]
    code, out, err = _run(capsys, argv + ["-o", str(tmp_path / "green.json")])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert not os.path.exists(tmp_path / "green.json")


def test_green_refuses_a_repeated_image(tmp_path, capsys):
    path = str(tmp_path / "triv.json")
    _run(capsys, ["make", "trivial", "-g", "S4", "-p", "2", "-o", path])
    argv = ["green", "--module", path, "--vertex-gens", "[[0, 0, 1, 2]]", "--subgroup-gens", "[[1, 0, 2, 3]]"]
    code, out, err = _run(capsys, argv + ["-o", str(tmp_path / "green.json")])
    assert (code, out) == (1, "")
    assert err == "error: not a permutation of 0..3: [0, 0, 1, 2]\n"
    assert not os.path.exists(tmp_path / "green.json")


def test_fiber_from_group_and_from_file(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        ["--format", "structured", "fiber", "-g", "C3", "-p", "2", "--index", "1", "--degree", "2"],
    )
    assert code == 0
    doc = json.loads(out)
    assert [e["dim"] for e in doc["entries"]] == [1, 1]
    path = str(tmp_path / "triv.json")
    _run(capsys, ["make", "trivial", "-g", "C3", "-p", "2", "-o", path])
    code, out, _ = _run(
        capsys, ["--format", "structured", "fiber", "--module", path, "--degree", "3"]
    )
    assert code == 0
    assert json.loads(out)["entries"] == [{"dim": 1, "multiplicity": 1}]


def test_verify_exit_zero(capsys):
    code, out, _ = _run(capsys, ["verify", "-g", "S3", "-p", "2", "--bound", "2"])
    assert code == 0
    assert out.endswith("result: PASS\n")


def test_verify_table_output_frozen(capsys):
    code, out, _ = _run(capsys, ["verify", "-g", "S3", "-p", "2", "--bound", "6"])
    assert code == 0
    assert out == VERIFY_S3_P2_BOUND6_TABLE


def test_verify_structured_output_frozen(capsys):
    argv = ["--format", "structured", "verify", "-g", "A4", "-p", "2", "--bound", "4"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == VERIFY_A4_P2_BOUND4_STRUCTURED


@pytest.mark.parametrize(
    "command, want_code",
    [(["count", "-g", "C3", "-p", "2"], 0), (["count", "-g", "M11", "-p", "2"], 1)],
)
def test_cap_overrides_hold_for_one_invocation(capsys, monkeypatch, command, want_code):
    defaults = (limits.MAX_GROUP_ORDER, limits.MAX_FIELD_SIZE)
    # restored on teardown even if main leaks the overrides
    monkeypatch.setattr(limits, "MAX_GROUP_ORDER", defaults[0])
    monkeypatch.setattr(limits, "MAX_FIELD_SIZE", defaults[1])
    argv = ["--max-group-order", "500", "--max-field-size", str(2**24)] + command
    code, _, _ = _run(capsys, argv)
    assert code == want_code
    assert (limits.MAX_GROUP_ORDER, limits.MAX_FIELD_SIZE) == defaults
    with pytest.raises(LimitError):
        make_field(2, 22)


@pytest.mark.parametrize("name, want_code", [("C2", 0), ("S4", 1)])
def test_group_order_cap_applies_to_the_named_group(capsys, monkeypatch, name, want_code):
    # a fresh catalog is built under the lowered cap, as in a new process
    monkeypatch.setattr(perm_group, "_CATALOG", {})
    code, _, err = _run(capsys, ["--max-group-order", "4", "simples", "-g", name, "-p", "2"])
    assert code == want_code
    assert ("exceeds cap 4" in err) == (want_code == 1)


def test_group_order_cap_applies_to_a_module_file_naming_its_group(tmp_path, capsys):
    # `make` writes a catalog group by name; reading it back checks the cap too
    path = str(tmp_path / "reg.json")
    assert _run(capsys, ["make", "regular", "-g", "S4", "-p", "2", "-o", path])[0] == 0
    code, out, err = _run(capsys, ["--max-group-order", "10", "decompose", "--module", path])
    assert code == 1 and out == ""
    assert "group order exceeds cap 10" in err


def test_huge_field_degree_exits_1_within_a_second(tmp_path, capsys):
    # -n, fiber and extend --degree, and a module file's n all reach
    # make_field, which refuses n past the cap's bit length without
    # computing 3**(10**12)
    n = 10**12
    path, big = str(tmp_path / "reg.json"), str(tmp_path / "big.json")
    assert _run(capsys, ["make", "regular", "-g", "S3", "-p", "3", "-o", path])[0] == 0
    with open(path) as fh:
        doc = json.load(fh)
    doc["field"]["n"] = n
    with open(big, "w") as fh:
        json.dump(doc, fh)
    for argv in (
        ["simples", "-g", "S3", "-p", "3", "-n", str(n)],
        ["fiber", "-g", "S3", "-p", "3", "--index", "0", "--degree", str(n)],
        ["extend", "--module", path, "--degree", str(n)],
        ["decompose", "--module", big],
    ):
        start = time.perf_counter()
        code, out, err = _run(capsys, argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 1 and out == "" and "exceeds cap" in err, argv


def test_exit_code_unknown_group(capsys):
    code, _, err = _run(capsys, ["count", "-g", "M11", "-p", "2"])
    assert code == 1
    assert "unknown group" in err


def test_exit_code_composite_characteristic(capsys):
    code, _, err = _run(capsys, ["count", "-g", "S3", "-p", "4"])
    assert code == 1
    assert "error" in err


def test_exit_code_fiber_of_decomposable(tmp_path, capsys):
    path = str(tmp_path / "reg.json")
    _run(capsys, ["make", "regular", "-g", "S3", "-p", "2", "-o", path])
    code, _, err = _run(capsys, ["fiber", "--module", path, "--degree", "2"])
    assert code == 1
    assert "decompose first" in err


def test_exit_code_malformed_module_entry(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    _run(capsys, ["make", "regular", "-g", "C3", "-p", "2", "-o", path])
    with open(path) as fh:
        doc = json.load(fh)
    doc["matrices"][0][0][1] = "a"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = _run(capsys, ["decompose", "--module", path])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_exit_code_negative_module_dimension(tmp_path, capsys):
    # a group without generators: the file's "dim" is the only dimension
    path = str(tmp_path / "neg.json")
    doc = {
        "kind": "module",
        "schema_version": 1,
        "group": {"degree": 1, "generators": []},
        "field": field_to_doc(make_field(2, 1)),
        "dim": -1,
        "matrices": [],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = _run(capsys, ["decompose", "--module", path])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "-g", "S3"])  # missing -p
    assert exc.value.code == 1
    capsys.readouterr()


def test_exit_code_restrict_bad_degree(tmp_path, capsys):
    path = str(tmp_path / "triv.json")
    _run(capsys, ["make", "trivial", "-g", "C3", "-p", "2", "-o", path])
    code, _, err = _run(capsys, ["restrict", "--module", path, "--to-degree", "3"])
    assert code == 1
    assert "does not divide" in err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_exit_code_restrict_degree_below_one(tmp_path, capsys, degree):
    path = str(tmp_path / "triv.json")
    _run(capsys, ["make", "trivial", "-g", "C3", "-p", "2", "-o", path])
    code, out, err = _run(capsys, ["restrict", "--module", path, "--to-degree", degree])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and ">= 1" in err


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_exit_code_verify_bound_below_one(capsys, bound):
    code, out, err = _run(capsys, ["verify", "-g", "S3", "-p", "2", "--bound", bound])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and ">= 1" in err


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_negative_seed_is_a_usage_error(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--seed", seed, "simples", "-g", "S3", "-p", "2"])
    assert exc.value.code == 1
    assert "--seed: expected a non-negative integer" in capsys.readouterr().err


def test_cache_replays_identical_bytes(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["--cache-dir", cache, "count", "-g", "S3", "-p", "2"]
    code1, out1, _ = _run(capsys, argv)
    entries = [f for f in os.listdir(cache) if f.endswith(".json")]
    assert len(entries) == 1
    code2, out2, _ = _run(capsys, argv)
    assert (code1, out1) == (code2, out2)
    assert out1 == COUNT_S3_P2_TABLE


def test_cache_key_separates_formats(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    _run(capsys, ["--cache-dir", cache, "count", "-g", "S3", "-p", "2"])
    _run(capsys, ["--cache-dir", cache, "--format", "structured", "count", "-g", "S3", "-p", "2"])
    entries = [f for f in os.listdir(cache) if f.endswith(".json")]
    assert len(entries) == 2


# not JSON, and JSON that is not an object
@pytest.mark.parametrize("content", ["{broken", "[]", "null", "1", '"x"'])
def test_cache_recovers_from_corruption(tmp_path, capsys, content):
    cache = str(tmp_path / "cache")
    argv = ["--cache-dir", cache, "count", "-g", "S3", "-p", "2"]
    _, out1, _ = _run(capsys, argv)
    entry = [f for f in os.listdir(cache) if f.endswith(".json")][0]
    with open(os.path.join(cache, entry), "w") as fh:
        fh.write(content)
    code, out2, err = _run(capsys, argv)
    assert code == 0
    assert out2 == out1
    assert "evicting corrupt cache entry" in err
    # the rewritten entry replays again
    _, out3, err3 = _run(capsys, argv)
    assert out3 == out1 and err3 == ""


def test_cache_ignores_a_leftover_lock_file(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["--cache-dir", cache, "count", "-g", "S3", "-p", "2"]
    _, out1, _ = _run(capsys, argv)
    entry = os.path.join(cache, [f for f in os.listdir(cache) if f.endswith(".json")][0])
    os.unlink(entry)
    # a lock file as an older writer left it: no writer waits for it
    lock = entry + ".lock"
    open(lock, "w").close()
    old = time.time() - 60
    os.utime(lock, (old, old))
    t0 = time.monotonic()
    code, out2, err = _run(capsys, argv)
    elapsed = time.monotonic() - t0
    assert code == 0 and out2 == out1
    assert "stale" not in err
    assert elapsed < 2.5
    assert os.path.exists(entry)


def test_failed_cache_write_still_prints_the_report(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["--cache-dir", str(cache), "count", "-g", "S3", "-p", "2"]
    _run(capsys, argv)
    (entry,) = os.listdir(cache)
    os.unlink(cache / entry)
    os.mkdir(cache / entry)  # neither read nor replaced by a file
    code, out, err = _run(capsys, argv)
    assert code == 0 and out == COUNT_S3_P2_TABLE
    assert "warning: cache entry" in err and "not written" in err
    assert "evicting" not in err and len(err.splitlines()) == 1
    assert os.listdir(cache) == [entry]  # no temp file left behind


def test_concurrent_writers_of_one_request(tmp_path):
    import subprocess
    import sys

    cache = str(tmp_path / "cache")
    argv = [sys.executable, "-m", "modclass.cli", "--cache-dir", cache, "count", "-g", "S3", "-p", "2"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    procs = [
        subprocess.Popen(argv, env=env, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(3)
    ]
    results = [p.communicate(timeout=120) + (p.returncode,) for p in procs]
    assert [(out, code) for out, _, code in results] == [(COUNT_S3_P2_TABLE.encode(), 0)] * 3
    (entry,) = os.listdir(cache)
    assert entry.endswith(".json")


def test_no_cache_dir_means_no_cache_files(tmp_path, capsys):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        _run(capsys, ["count", "-g", "C3", "-p", "2"])
        assert os.listdir(".") == []
    finally:
        os.chdir(cwd)


def test_vertex_reads_the_module_file_once(tmp_path, capsys, monkeypatch):
    import builtins

    path = str(tmp_path / "triv.json")
    _run(capsys, ["make", "trivial", "-g", "S3", "-p", "2", "-o", path])
    reads = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if file == path:
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, _, _ = _run(capsys, ["--cache-dir", str(tmp_path / "cache"), "vertex", "--module", path])
    assert code == 0
    assert len(reads) == 1


def test_cache_key_carries_package_version(tmp_path, capsys, monkeypatch):
    import modclass

    cache = str(tmp_path / "cache")
    argv = ["--cache-dir", cache, "count", "-g", "S3", "-p", "2"]
    _run(capsys, argv)
    _run(capsys, argv)
    assert len([f for f in os.listdir(cache) if f.endswith(".json")]) == 1
    monkeypatch.setattr(modclass, "__version__", modclass.__version__ + ".post1")
    code, out, _ = _run(capsys, argv)
    assert code == 0 and out == COUNT_S3_P2_TABLE
    assert len([f for f in os.listdir(cache) if f.endswith(".json")]) == 2


def test_cache_key_carries_source_digest(tmp_path):
    import shutil
    import subprocess
    import sys

    pkg = os.path.dirname(os.path.abspath(cli.__file__))
    copy = tmp_path / "src"
    shutil.copytree(pkg, copy / "modclass", ignore=shutil.ignore_patterns("__pycache__"))
    cache = str(tmp_path / "cache")
    argv = [sys.executable, "-m", "modclass.cli", "--cache-dir", cache, "count", "-g", "S3", "-p", "2"]
    env = dict(os.environ, PYTHONPATH=str(copy))

    def entries():
        subprocess.run(argv, env=env, cwd=tmp_path, check=True, capture_output=True)
        return sorted(f for f in os.listdir(cache) if f.endswith(".json"))

    first = entries()
    assert entries() == first  # unchanged source: a hit, no new entry
    with open(copy / "modclass" / "meataxe.py", "a") as fh:
        fh.write("\n# edited\n")
    assert len(entries()) == 2


def test_fiber_replay_computes_no_simple_modules(tmp_path, capsys, monkeypatch):
    from modclass import meataxe

    calls = []
    real = meataxe.simple_modules

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(meataxe, "simple_modules", counting)
    cache = str(tmp_path / "cache")
    argv = ["--cache-dir", cache, "fiber", "-g", "S4", "-p", "3", "--index", "1", "--degree", "6"]
    code1, out1, _ = _run(capsys, argv)
    assert code1 == 0 and len(calls) == 1
    code2, out2, _ = _run(capsys, argv)
    assert (code2, out2) == (code1, out1) and len(calls) == 1
    # an index out of range is still an input error, and leaves no entry
    other = str(tmp_path / "other")
    argv = ["--cache-dir", other, "fiber", "-g", "S3", "-p", "2", "--index", "9", "--degree", "2"]
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "index 9 out of range" in err
    assert [f for f in os.listdir(other) if f.endswith(".json")] == []


def test_one_parser_serves_every_call(capsys, monkeypatch):
    monkeypatch.setattr(limits, "MAX_GROUP_ORDER", limits.MAX_GROUP_ORDER)
    cli._parser.cache_clear()
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    counted = []
    real_count = cli._cmd_count
    monkeypatch.setattr(cli, "_cmd_count", lambda args: counted.append(args.group) or real_count(args))
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "-g", "S3"])  # missing -p
    assert exc.value.code == 1
    capsys.readouterr()
    assert _run(capsys, ["count", "-g", "S3", "-p", "2"]) == (0, COUNT_S3_P2_TABLE, "")
    code, out, err = _run(capsys, ["--max-group-order", "4", "simples", "-g", "S4", "-p", "2"])
    assert code == 1 and out == "" and "exceeds cap 4" in err
    code, out, _ = _run(capsys, ["simples", "-g", "S4", "-p", "2"])
    assert code == 0 and out.startswith("simple GF(2)-modules for group of order 24")
    assert built == [1]  # one parser for every call
    assert counted == ["S3"]  # commands are looked up when called
    for argv in (
        ["count", "-g", "S3", "-p", "2"],
        ["--max-group-order", "4", "simples", "-g", "S4", "-p", "2"],
        ["simples", "-g", "S4", "-p", "2"],
        ["--seed", "3", "--format", "structured", "fiber", "-g", "C3", "-p", "2", "--degree", "2"],
    ):
        assert vars(cli._parser().parse_args(argv)) == vars(real_build().parse_args(argv))
