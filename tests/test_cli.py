"""End-to-end CLI behaviour: JSON/CSV output, cache, exit codes."""

import hashlib
import json
import math
import os
import random
import re
from types import SimpleNamespace

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from rookpack import __version__
from rookpack.cli import EXIT_BUDGET, _build_parser, config_to_dict, dump_json, main
from rookpack.constructions import diagonal_slab_block
from rookpack.core import Configuration, GridParams, InvalidArgument
from rookpack.solve import (
    SolverBudget,
    exact_max_packing,
    exact_max_two_packing,
    exact_min_covering,
)

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "rookpack", "schemas")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ROOKPACK_CACHE", str(tmp_path / "cache"))
    return tmp_path


def _schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as f:
        return json.load(f)


def _validate(doc, name):
    """Validate against a shipped schema, resolving cross-schema refs."""
    if jsonschema is None:
        return
    from referencing import Registry, Resource

    resources = []
    for fname in os.listdir(SCHEMA_DIR):
        schema = _schema(fname)
        resources.append((schema["$id"], Resource.from_contents(schema)))
    registry = Registry().with_resources(resources)
    jsonschema.Draft202012Validator(_schema(name), registry=registry).validate(doc)


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "3", "--k", "3", "--l", "2")
    assert code == 0
    doc = json.loads(out)
    assert (doc["a_lower"], doc["a_lower_by"], doc["a_upper"]) == (6, "sphere", 9)
    assert doc["b_upper"] == "27/2"
    assert doc["b_incidence"] == "81/7"
    assert doc["c_upper"] == 9 and doc["c_sphere"] == 5
    assert "b_hypercube" not in doc
    _validate(doc, "bound_report.schema.json")
    code, out, _ = run(capsys, "bounds", "--n", "2", "--k", "7", "--l", "5")
    doc = json.loads(out)
    assert (code, doc["b_hypercube"], doc["c_sphere"]) == (0, 64, 21)
    _validate(doc, "bound_report.schema.json")
    code, out, _ = run(capsys, "bounds", "--n", "5", "--k", "3", "--l", "3")
    doc = json.loads(out)
    assert (code, doc["a_lower"], doc["a_lower_by"]) == (0, 13, "rodemich")
    _validate(doc, "bound_report.schema.json")


def test_bounds_rational_spelling(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "3", "--k", "4", "--l", "2")
    doc = json.loads(out)
    assert doc["b_upper"] == 54  # integral Fractions flatten to ints


def test_bounds_documents_are_pinned(capsys):
    # the bytes of bounds on every grid with n <= 6, k <= 5 and n^k <= 4,096
    digest, grids = hashlib.sha256(), 0
    for n in range(1, 7):
        for k in range(1, 6):
            if n ** k <= 4096:
                for l in range(1, k + 1):
                    code, out, err = run(capsys, "bounds", "--n", str(n), "--k", str(k),
                                         "--l", str(l))
                    assert (code, err) == (0, ""), (n, k, l)
                    digest.update(out.encode())
                    grids += 1
    assert grids == 85
    assert digest.hexdigest() == (
        "52d1b8115b6c3a4479fe02a0e80031e02270f152a93c7bae76e55eefc8b2d625")


def test_family_constructions_are_pinned(capsys, tmp_path):
    # the bytes construct writes for the generators that return a
    # rookpack.families configuration, per name, and those of a diagonal
    # blowup; one refused parameter set per name keeps its exit and message
    cases = {
        "diagonal_covering": ([("--n", "3", "--k", "4"), ("--n", "7", "--k", "3"),
                               ("--n", "1", "--k", "5"), ("--n", "5", "--k", "1")],
                              "c90c34d22b8e697faa13ed79ebcf586c7589198c69f328a5d14fbe5818941c62"),
        "latin_covering": ([("--n", str(n)) for n in range(1, 10)],
                           "f817f82f37584effb087c5844c3c0df4ce3fbd0dbf8a2f0932d0c988c7a5c8da"),
        "hamming_code": ([("--k", "1"), ("--k", "3"), ("--k", "7")],
                         "b69f8155efefdc60d3fff16e7f1e57f6017ccdc1d37537d3f9ca3b6677f0ed91"),
        "hamming_complement": ([("--k", "1"), ("--k", "3"), ("--k", "7")],
                               "165ddf1de6884ab527539a8f44f3ff232751201a89ab33dfa00f52e9bb1e9a29"),
        "distance3_code": ([("--p", "5", "--k", "4"), ("--p", "7", "--k", "3"),
                            ("--p", "2", "--k", "2"), ("--p", "3", "--k", "3")],
                           "2c3b635bbc6a1aab726e5cb7bd210edb2a533116209dc573a81be3033d133dff"),
    }
    for name, (argsets, want) in cases.items():
        digest = hashlib.sha256()
        for argv in argsets:
            code, out, err = run(capsys, "construct", name, *argv)
            assert (code, err) == (0, ""), (name, argv)
            digest.update(out.encode())
        assert digest.hexdigest() == want, name
    diag = str(tmp_path / "diag.json")
    code, _, _ = run(capsys, "construct", "diagonal_covering", "--n", "3", "--k", "2", "--out", diag)
    assert code == 0
    digest = hashlib.sha256()
    for kind, n_inner in (("cover", "4"), ("pack", "2"), ("cover", "1")):
        code, out, err = run(capsys, "compose", "blowup", diag, "--kind", kind,
                             "--n-inner", n_inner)
        assert (code, err) == (0, ""), kind
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "bd071270a7a24529e9ed3df516dd7bb9f5098a64b7442a109a202360b6c1ddce")
    for argv, message in [
        (("diagonal_covering", "--n", "0", "--k", "3"), "need n >= 1 and k >= 1"),
        (("latin_covering", "--n", "0"), "side must be >= 1, got 0"),
        (("hamming_code", "--k", "4"), "need k = 2^m - 1, got 4"),
        (("hamming_complement", "--k", "0"), "need k = 2^m - 1, got 0"),
        (("distance3_code", "--p", "4", "--k", "3"), "4 is not prime"),
        (("distance3_code", "--p", "3", "--k", "5"), "need p >= k, got p=3, k=5"),
        (("distance3_code", "--p", "5", "--k", "1"), "need k >= 2"),
    ]:
        assert run(capsys, "construct", *argv) == (2, "", f"error: {message}\n"), argv


def test_construct_verify_round_trip(capsys, tmp_path):
    cases = [
        ("diagonal_covering", ["--n", "3", "--k", "2"], "cover", []),
        ("diagonal_slab_block", ["--n1", "2", "--k", "3", "--l", "2"], "cover", []),
        ("distance3_code", ["--p", "5", "--k", "3"], "pack2", []),
        ("block_packing", ["--n", "2", "--k", "2", "--t", "2"], "pack", []),
        ("c_k2", ["--n", "7", "--k", "2"], "pack2", []),
        ("a32_covering", ["--a", "5", "--b", "2"], "cover", []),
        ("b_k2_inductive", ["--n", "4", "--k", "3"], "pack", []),
        ("latin_covering", ["--n", "5"], "cover", []),
        ("hamming_code", ["--k", "7"], "pack2", []),
        ("hamming_complement", ["--k", "7"], "pack", []),
    ]
    for name, params, kind, flags in cases:
        path = str(tmp_path / f"{name}.json")
        code, out, _ = run(capsys, "construct", name, *params, "--out", path)
        assert code == 0, name
        summary = json.loads(out)
        assert summary["rooks"] >= 1
        _validate(summary, "write_summary.schema.json")
        code, out, _ = run(capsys, "verify", kind, path, *flags)
        assert code == 0, name
        assert json.loads(out)["valid"]
        with open(path) as f:
            _validate(json.load(f), "config.schema.json")


def test_construct_slab_axis_report(capsys):
    code, out, _ = run(capsys, "construct", "diagonal_slab_block",
                       "--n1", "2", "--k", "3", "--l", "2")
    assert code == 0
    assert json.loads(out)["axis_report"] == [True, True, True]


def test_write_summaries_match_their_schema(capsys, tmp_path):
    # the {name|op, rooks, out} summary construct and compose print for
    # --out, with axis_report for diagonal_slab_block alone; a field only
    # the code or only the schema has fails
    path = str(tmp_path / "slab.json")
    code, out, _ = run(capsys, "construct", "diagonal_slab_block",
                       "--n1", "2", "--k", "3", "--l", "2", "--out", path)
    assert code == 0
    slab = json.loads(out)
    assert slab == {"name": "diagonal_slab_block", "rooks": 8, "out": path,
                    "axis_report": [True, True, True]}
    _validate(slab, "write_summary.schema.json")
    code, out, _ = run(capsys, "compose", "extend", path, "--out", str(tmp_path / "extended.json"))
    assert code == 0
    extended = json.loads(out)
    assert extended == {"op": "extend", "rooks": 15, "out": str(tmp_path / "extended.json")}
    _validate(extended, "write_summary.schema.json")
    if jsonschema is not None:
        for bad in ({**extended, "note": ""}, {**extended, "name": "x"},
                    {**extended, "axis_report": [True]}, {**slab, "name": "diagonal_covering"},
                    {"rooks": 8, "out": path}, {**extended, "op": "rotate"}):
            with pytest.raises(jsonschema.ValidationError):
                _validate(bad, "write_summary.schema.json")


def _usage_error(code, out, err):
    """Exit 2 with nothing on stdout and one "error: " line on stderr."""
    return (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


def test_construct_unknown_and_missing_params(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "mystery")
    assert _usage_error(code, out, err) and "unknown" in err
    code, out, err = run(capsys, "construct", "diagonal_covering", "--n", "3")
    assert _usage_error(code, out, err) and "--k" in err
    path = tmp_path / "out.json"
    code, out, err = run(capsys, "construct", "diagonal_covering", "--n", "3", "--k", "2",
                         "--t", "5", "--out", str(path))
    assert _usage_error(code, out, err) and "takes no --t" in err
    assert not path.exists()
    # an arity outside 1..k is refused before it is used
    for l in ("0", "-1", "4"):
        code, out, err = run(capsys, "construct", "diagonal_slab_block", "--n1", "3", "--k", "3",
                             "--l", l)
        assert _usage_error(code, out, err), l
    # a dimension past the index width is refused before (k-1)!^2 is formatted
    code, out, err = run(capsys, "construct", "b_k2_inductive", "--n", "36", "--k", "2000")
    assert _usage_error(code, out, err) and "dimension 2000" in err


def test_construct_and_compose_over_the_point_cap_exit_usage(capsys, tmp_path, monkeypatch):
    diag = str(tmp_path / "diag.json")
    code, _, _ = run(capsys, "construct", "diagonal_covering", "--n", "5", "--k", "2",
                     "--out", diag)
    assert code == 0
    monkeypatch.setenv("ROOKPACK_POINT_CAP", "100")
    for argv in (("construct", "diagonal_covering", "--n", "4", "--k", "6"),
                 ("construct", "b_k2_inductive", "--n", "8", "--k", "3"),
                 ("compose", "blowup", diag, "--kind", "cover", "--n-inner", "3"),
                 ("compose", "stack", diag)):
        code, out, err = run(capsys, *argv)
        assert _usage_error(code, out, err) and "cap 100" in err, argv


def test_verify_invalid_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "k": 2, "l": 2, "rooks": []}))
    code, out, _ = run(capsys, "verify", "cover", str(path))
    assert code == 1
    doc = json.loads(out)
    assert not doc["valid"] and doc["total_violations"] == 4
    _validate(doc, "verify_report.schema.json")


def test_verify_strict_flag(capsys, tmp_path):
    ref = {
        "n": 3, "k": 3, "l": 2,
        "rooks": [
            {"point": [0, 0, 2], "dirs": [0, 1]},
            {"point": [1, 0, 1], "dirs": [0, 1]},
            {"point": [2, 1, 0], "dirs": [0, 2]},
            {"point": [2, 2, 0], "dirs": [0, 2]},
        ],
    }
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(ref))
    for flags in ([], ["--strict"]):
        code, out, _ = run(capsys, "verify", "pack2", str(path), *flags)
        assert code == 0 and json.loads(out)["valid"]


def test_solve_and_cache_verbatim(capsys, tmp_path):
    argv = ("solve", "a", "--n", "3", "--k", "3", "--l", "2")
    code, first, err = run(capsys, *argv)
    assert code == 0
    doc = json.loads(first)
    assert doc["optimum"] == 7 and doc["exact"]
    _validate(doc, "solve_result.schema.json")
    if jsonschema is not None:  # a field only the code or only the schema has fails
        for extra in ({**doc, "note": ""}, {**doc, "stats": {**doc["stats"], "depth": 3}}):
            with pytest.raises(jsonschema.ValidationError):
                _validate(extra, "solve_result.schema.json")
    cache = tmp_path / "cache"
    records = sorted(p.name for p in cache.iterdir() if p.suffix == ".json")
    assert records == ["solve_a_3_3_2.json"]  # one record per instance, no temp file
    record = str(cache / "solve_a_3_3_2.json")
    assert err == f"cache miss: wrote {record}\n"
    code, second, err = run(capsys, *argv)
    assert code == 0
    assert second == first  # byte-identical replay from cache
    assert err == f"cache hit: {record}\n"


def test_solve_flag_records_replay(capsys, tmp_path):
    cases = [
        (("solve", "c", "--n", "2", "--k", "3", "--l", "2"), 2, "solve_c_2_3_2.json"),
        (("solve", "c", "--n", "2", "--k", "3", "--l", "2", "--strict"), 4,
         "solve_c_strict_2_3_2.json"),
    ]
    for argv, optimum, record in cases:
        code, first, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(first)
        assert doc["optimum"] == optimum and doc["exact"]
        _validate(doc, "solve_result.schema.json")
        assert (tmp_path / "cache" / record).read_text() == first
        code, second, _ = run(capsys, *argv)
        assert code == 0 and second == first
    records = sorted(p.name for p in (tmp_path / "cache").iterdir() if p.suffix == ".json")
    assert records == sorted(record for _, _, record in cases)


def test_solve_rejects_flags_the_mode_ignores(capsys, tmp_path):
    # --strict belongs to mode c and --N to coverage: any other mode exits
    # 2 with one error line, before it opens the cache
    grid = ("--n", "2", "--k", "3", "--l", "2")
    owned = {"c": ("--strict",), "coverage": ("--N", "4")}
    for mode in ("a", "b", "c", "coverage"):
        argv = ("solve", mode, *grid, *(owned["coverage"] if mode == "coverage" else ()))
        for owner, flag in owned.items():
            if owner != mode:
                code, out, err = run(capsys, *argv, *flag)
                assert (code, out, err) == (2, "", f"error: {flag[0]} is for mode {owner} only\n")
    # the root's axis filter always runs, so no flag asks for it
    code, out, err = run(capsys, "solve", "a", *grid, "--symmetry")
    assert (code, out) == (2, "") and "unrecognized arguments: --symmetry" in err
    assert not (tmp_path / "cache").exists()
    # each mode with the flags it owns prints what it printed before the
    # check was added, wall times aside, save b's witness: b(2,3,2) is now
    # the even-weight points of its closed-form seed
    digest = hashlib.sha256()
    for argv in (("a",), ("b",), ("c",), ("c", "--strict"), ("coverage", "--N", "4")):
        code, out, _ = run(capsys, "solve", argv[0], *grid, *argv[1:])
        assert code == 0, argv
        digest.update(re.sub(r'"wall_time": [^,]*', "", out).encode())
    assert digest.hexdigest() == (
        "5535badc0ef41b316f1efab90a68e437e20fafcefc54c09ba6c7d3f1d995b09e")


def test_verify_rejects_strict_outside_pack2(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    rooks = [{"point": [0, 0], "dirs": [0, 1]}]
    path.write_text(json.dumps({"n": 2, "k": 2, "l": 2, "rooks": rooks}))
    for mode in ("cover", "pack"):
        code, out, err = run(capsys, "verify", mode, str(path), "--strict")
        assert (code, out, err) == (2, "", "error: --strict is for mode pack2 only\n"), mode
        code, out, _ = run(capsys, "verify", mode, str(path))
        assert code in (0, 1) and "valid" in json.loads(out), mode


def test_solve_bad_instance_exits_usage(capsys, tmp_path):
    # two-packings of 1-rooks and coverage counts outside 0..n^k end with
    # one error line, no traceback and no record
    for argv in (("c", "--n", "3", "--k", "2", "--l", "1"),
                 ("coverage", "--n", "3", "--k", "2", "--l", "2", "--N", "-1"),
                 ("coverage", "--n", "3", "--k", "2", "--l", "2", "--N", "10")):
        code, out, err = run(capsys, "solve", *argv)
        assert (code, out) == (2, "") and err.startswith("error: "), argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv
    assert not [p.name for p in (tmp_path / "cache").iterdir() if p.name.startswith("solve_")]


def test_solve_reports_stop_reason(capsys, tmp_path):
    # a capped solve says which cap stopped it; a proven one replays its
    # record, stop reason included, byte for byte
    code, capped, _ = run(capsys, "solve", "a", "--n", "4", "--k", "3", "--l", "2",
                          "--max-nodes", "1000")
    doc = json.loads(capped)
    assert code == EXIT_BUDGET and doc["stats"]["stop_reason"] == "node_cap"
    _validate(doc, "solve_result.schema.json")
    argv = ("solve", "a", "--n", "3", "--k", "2", "--l", "1")
    code, first, _ = run(capsys, *argv)
    assert code == 0 and json.loads(first)["stats"]["stop_reason"] == "proven"
    code, second, _ = run(capsys, *argv)
    assert code == 0 and second == first


def test_solve_witness_file_shape(capsys, tmp_path):
    _, out, _ = run(capsys, "solve", "b", "--n", "2", "--k", "2", "--l", "2")
    record = (tmp_path / "cache" / "solve_b_2_2_2.json").read_text()
    assert record == out
    doc = json.loads(record)
    assert doc["optimum"] == 2
    assert len(doc["witness"]["rooks"]) == 2


def test_solve_poisoned_cache_recomputed(capsys, tmp_path):
    argv = ("solve", "a", "--n", "2", "--k", "2", "--l", "2")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    rec_path = tmp_path / "cache" / "solve_a_2_2_2.json"
    rec = json.loads(rec_path.read_text())
    poisoned = dict(rec)
    poisoned["witness"] = dict(rec["witness"])
    # duplicate the second rook: no longer a usable witness
    poisoned["witness"]["rooks"] = [rec["witness"]["rooks"][1]] * 2
    rec_path.write_text(json.dumps(poisoned))
    code, again, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(again)["optimum"] == 2
    # recomputed, not replayed: wall time is fresh, everything else matches
    d1, d2 = json.loads(first), json.loads(again)
    d1["stats"] = d2["stats"] = None
    assert d1 == d2
    healed = json.loads(rec_path.read_text())
    assert healed["witness"] == rec["witness"]
    # nested too deep for the decoder: a miss, not a traceback
    rec_path.write_text("[" * 200_000 + "]" * 200_000)
    code, again, err = run(capsys, *argv)
    assert code == 0 and err.startswith("cache miss: wrote")
    assert rec_path.read_text() == again and json.loads(again)["optimum"] == 2


def test_solve_record_of_other_sources_recomputed(capsys, tmp_path):
    # a record's stats describe the search that wrote it: records left by
    # other sources are dropped, so the node count is this search's
    argv = ("solve", "a", "--n", "3", "--k", "3", "--l", "2")
    code, first, _ = run(capsys, *argv)
    assert code == 0 and json.loads(first)["stats"]["nodes"] == 10_650
    cache = tmp_path / "cache"
    revision = (cache / ".lock").read_bytes()
    stale = first.replace('"nodes": 10650,', '"nodes": 60852,')
    (cache / "solve_a_3_3_2.json").write_text(stale)
    code, again, _ = run(capsys, *argv)
    assert code == 0 and again == stale  # written by these sources: replayed
    (cache / "solve_b_2_2_2.json").write_text("{}")
    (cache / ".lock").write_text("other sources")
    code, again, _ = run(capsys, *argv)
    assert code == 0 and json.loads(again)["stats"]["nodes"] == 10_650
    assert (cache / ".lock").read_bytes() == revision
    assert sorted(p.name for p in cache.iterdir()) == [".lock", "solve_a_3_3_2.json"]
    assert (cache / "solve_a_3_3_2.json").read_text() == again


def test_solve_lock_of_garbage_bytes_recomputed(capsys, tmp_path):
    # .lock names the sources that wrote the records; bytes that are not
    # even text name no sources, so the records go and the digest returns
    argv = ("solve", "b", "--n", "2", "--k", "2", "--l", "1")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    cache = tmp_path / "cache"
    revision = (cache / ".lock").read_bytes()
    assert len(revision) == 64
    stale = first.replace('"pruned": ', '"pruned": 1')
    (cache / "solve_b_2_2_1.json").write_text(stale)
    (cache / ".lock").write_bytes(b"\xff\xfe")
    code, again, err = run(capsys, *argv)
    assert code == 0 and err.startswith("cache miss")
    assert json.loads(again)["stats"]["pruned"] == json.loads(first)["stats"]["pruned"]
    assert (cache / ".lock").read_bytes() == revision
    assert (cache / "solve_b_2_2_1.json").read_text() == again


def test_solve_replay_over_the_point_cap_exits_usage(capsys, tmp_path, monkeypatch):
    # the record is sound, but checking its witness needs a bitset over the cap
    argv = ("solve", "a", "--n", "3", "--k", "2", "--l", "2")
    code, _, _ = run(capsys, *argv)
    assert code == 0 and (tmp_path / "cache" / "solve_a_3_2_2.json").exists()
    monkeypatch.setenv("ROOKPACK_POINT_CAP", "4")
    code, out, err = run(capsys, *argv)
    assert _usage_error(code, out, err) and "cap 4" in err


def test_solve_record_of_other_instance_recomputed(capsys, tmp_path):
    argv = ("solve", "b", "--n", "2", "--k", "2", "--l", "1")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    rec_path = tmp_path / "cache" / "solve_b_2_2_1.json"
    # the witness still checks out, but on H(2, 2); 2.0 is not the integer 2
    for edit in (3, 2.0):
        edited = json.loads(first)
        edited["n"] = edit
        rec_path.write_text(json.dumps(edited, indent=2) + "\n")
        code, again, _ = run(capsys, *argv)
        assert code == 0
        assert '"n": 2,' in again
        assert rec_path.read_text() == again


def test_solve_replays_only_the_canonical_bytes(capsys, tmp_path, monkeypatch):
    # a record holding the same values in another layout is a miss, and the
    # search writes the canonical bytes back; a fixed clock makes them equal
    monkeypatch.setattr("rookpack.solve.time", SimpleNamespace(perf_counter=lambda: 0.0))
    argv = ("solve", "a", "--n", "3", "--k", "2", "--l", "2")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    record = tmp_path / "cache" / "solve_a_3_2_2.json"
    doc = json.loads(first)
    layouts = [
        json.dumps(doc, separators=(",", ":")),
        json.dumps(doc, indent=4) + "\n",
        first.replace("\n", "\r\n"),
        first[:-1],
        json.dumps({"n": doc["n"], "mode": doc["mode"], **doc}, indent=2) + "\n",
    ]
    for text in layouts:
        assert json.loads(text) == doc and text != first
        record.write_bytes(text.encode())
        code, again, err = run(capsys, *argv)
        assert (code, again, err) == (0, first, f"cache miss: wrote {record}\n"), text
        assert record.read_bytes() == first.encode()


def _random_text(rng):
    # control characters, printable ASCII, and any other code point
    return "".join(chr(rng.choice((rng.randrange(32), rng.randrange(32, 127),
                                   rng.randrange(127, 0x110000))))
                   for _ in range(rng.randrange(6)))


def _random_value(rng, depth=0):
    """Nested dicts, lists and tuples, empty ones too, of every scalar whose
    spelling json.dumps fixes."""
    if depth < 4 and rng.random() < 0.4:
        size = rng.randrange(4)
        if rng.random() < 0.4:
            return {_random_text(rng): _random_value(rng, depth + 1) for _ in range(size)}
        items = [_random_value(rng, depth + 1) for _ in range(size)]
        return tuple(items) if rng.random() < 0.3 else items
    return rng.choice((rng.randint(-10**6, 10**6), 2 ** 100, -(2 ** 100), 0.0, -0.0, 0.1,
                       1e300, 2.5e-05, math.nan, math.inf, -math.inf, True, False, None,
                       _random_text(rng)))


def test_dump_json_writes_the_bytes_of_json_dumps(capsys, tmp_path, monkeypatch):
    # solve replays a record only when its bytes are dump_json's, so every
    # document the CLI writes is pinned to json.dumps(indent=2)'s bytes
    docs = []
    monkeypatch.setattr("rookpack.cli.dump_json", lambda doc: docs.append(doc) or dump_json(doc))
    capped = [("a", "--n", "3", "--k", "3", "--l", "2"), ("b", "--n", "3", "--k", "3", "--l", "2"),
              ("c", "--n", "3", "--k", "3", "--l", "2"),
              ("c", "--n", "3", "--k", "3", "--l", "2", "--strict"),
              ("coverage", "--n", "3", "--k", "3", "--l", "2", "--N", "4")]
    exact = [("a", "--n", "2", "--k", "2", "--l", "2"), ("b", "--n", "2", "--k", "2", "--l", "1"),
             ("c", "--n", "2", "--k", "3", "--l", "2"),
             ("c", "--n", "2", "--k", "3", "--l", "2", "--strict"),
             ("coverage", "--n", "3", "--k", "2", "--l", "2", "--N", "2")]
    empty, clash = tmp_path / "empty.json", tmp_path / "clash.json"
    empty.write_text(json.dumps({"n": 2, "k": 2, "l": 1, "rooks": []}))
    clash.write_text(json.dumps({"n": 2, "k": 2, "l": 1, "rooks": [
        {"point": [0, 0], "dirs": [0]}, {"point": [1, 0], "dirs": [0]}]}))
    slab = ("construct", "diagonal_slab_block", "--n1", "2", "--k", "3", "--l", "2")
    commands = [
        *[("solve", *argv) for argv in exact],
        *[("solve", *argv, "--max-nodes", "2") for argv in capped],  # optimum null
        ("bounds", "--n", "3", "--k", "3", "--l", "2"),  # "27/2" and "81/7"
        ("construct", "diagonal_covering", "--n", "3", "--k", "2"),
        slab,
        (*slab, "--out", str(tmp_path / "slab.json")),  # the file, then the summary
        ("verify", "cover", str(empty)),  # uncovered points, rooks null
        ("verify", "pack", str(clash)),  # an attacking pair
        ("encode", "max_pack", "--n", "2", "--k", "2", "--l", "1", "--out", str(tmp_path / "p.lp")),
    ]
    for argv in commands:
        assert run(capsys, *argv)[0] in (0, 1, EXIT_BUDGET), argv
    assert len(docs) == len(commands) + 1
    assert [doc["optimum"] for doc in docs[:10]] == [2, 2, 2, 4, 8] + [None] * 5
    assert docs[-3]["violations"][0]["rooks"] is None and docs[-2]["violations"][0]["rooks"]
    rng = random.Random(1)
    docs += [config_to_dict(Configuration(GridParams(2, 2, 1), ())),
             {"axis_report": diagonal_slab_block(2, 3, 2)[1]},
             *[_random_value(rng) for _ in range(400)]]
    for doc in docs:
        assert dump_json(doc) == json.dumps(doc, indent=2) + "\n", doc
    for bad in ({1: 2}, [{"rooks": {None: []}}], {("n",): 1}):
        with pytest.raises(TypeError):
            dump_json(bad)


def test_solve_budget_exit(capsys, tmp_path):
    code, out, err = run(capsys, "solve", "a", "--n", "3", "--k", "3", "--l", "2",
                         "--max-nodes", "20")
    assert code == 4
    doc = json.loads(out)
    assert not doc["exact"] and doc["optimum"] is None
    # inexact runs are not cached
    record = tmp_path / "cache" / "solve_a_3_3_2.json"
    assert not record.exists()
    assert err == f"cache miss: capped result, not written to {record}\n"


def test_solve_coverage_many_placements_budget_exit(capsys):
    # 30 rooks among the 1,536 placements of H(8,3) with 2-rooks: a capped
    # result with its incumbent, not a traceback
    code, out, _ = run(capsys, "solve", "coverage", "--n", "8", "--k", "3", "--l", "2",
                       "--N", "30", "--max-nodes", "50000")
    assert code == 4
    doc = json.loads(out)
    assert not doc["exact"] and doc["lower_bound"] > 0 and doc["upper_bound"] == 450
    assert len(doc["witness"]["rooks"]) == 30


def test_budget_that_cannot_be_met_is_rejected(capsys, tmp_path):
    # a negative cap or a NaN clock is a usage error, not a cap of 0 or no
    # clock at all; 0 and inf stay valid caps
    with pytest.raises(InvalidArgument):
        SolverBudget(max_nodes=-1)
    # nor is a cap that is not a number of nodes or seconds: a bool, a
    # fraction of a node or a string
    for bad in ({"max_nodes": True}, {"max_nodes": 2.5}, {"max_nodes": "5"},
                {"max_seconds": True}, {"max_seconds": "1"}):
        with pytest.raises(InvalidArgument):
            SolverBudget(**bad)
    for flag, value in (("--max-nodes", "-1"), ("--max-seconds", "nan"), ("--max-seconds", "-1")):
        for argv in (("solve", "a", "--n", "3", "--k", "3", "--l", "2"),
                     ("table", "--mode", "b", "--k", "5", "--l", "1", "--n", "3..3")):
            code, out, err = run(capsys, *argv, flag, value)
            assert code == 2 and out == "" and "budget" in err, (argv, flag, value)
    assert not (tmp_path / "cache").exists()
    SolverBudget(max_nodes=0, max_seconds=0)
    SolverBudget(max_seconds=float("inf"))


def test_solve_capped_with_meeting_bounds_is_exact(capsys, tmp_path):
    # the greedy seed of c(5,3,3) meets the plane bound 5, so a run cut at
    # 100 nodes has proved the optimum: exact, exit 0, cached
    code, out, _ = run(capsys, "solve", "c", "--n", "5", "--k", "3", "--l", "3",
                       "--max-nodes", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] and doc["optimum"] == doc["lower_bound"] == doc["upper_bound"] == 5
    assert (tmp_path / "cache" / "solve_c_5_3_3.json").read_text() == out
    # zero rooks cover zero points, so the bracket of N = 0 is closed
    # before the first node: a zero budget gives the optimum and its record
    code, out, err = run(capsys, "solve", "coverage", "--n", "2", "--k", "2", "--l", "1",
                         "--N", "0", "--max-nodes", "0")
    assert code == 0
    doc = json.loads(out)
    assert (doc["exact"], doc["optimum"], doc["lower_bound"], doc["upper_bound"]) == (True, 0, 0, 0)
    assert (doc["witness"]["rooks"], doc["stats"]["nodes"]) == ([], 1)
    record = tmp_path / "cache" / "solve_coverage_N0_2_2_1.json"
    assert err == f"cache miss: wrote {record}\n" and record.read_text() == out


def test_solve_coverage(capsys):
    code, out, _ = run(capsys, "solve", "coverage", "--n", "3", "--k", "2", "--l", "2",
                       "--N", "1")
    assert code == 0
    assert json.loads(out)["optimum"] == 5
    code, _, err = run(capsys, "solve", "coverage", "--n", "3", "--k", "2", "--l", "2")
    assert code == 2 and "--N" in err


def test_encode(capsys, tmp_path):
    code, out, _ = run(capsys, "encode", "min_cover", "--n", "2", "--k", "2", "--l", "2")
    assert code == 0
    assert "Minimize" in out and "Binary" in out
    assert out.count("cover_") == 4
    path = str(tmp_path / "prog.lp")
    code, out, _ = run(capsys, "encode", "min_cover", "--n", "2", "--k", "2", "--l", "2",
                       "--out", path)
    assert code == 0
    summary = json.loads(out)
    assert summary == {"mode": "min_cover", "variables": 4, "constraints": 4}
    assert "y_0_3" in open(path).read()
    _validate(summary, "encode_summary.schema.json")
    for mode, rows in (("max_pack", 8), ("max_two_pack", 4)):
        code, out, _ = run(capsys, "encode", mode, "--n", "2", "--k", "2", "--l", "2",
                           "--out", path)
        assert code == 0 and json.loads(out) == {"mode": mode, "variables": 4, "constraints": rows}
        _validate(json.loads(out), "encode_summary.schema.json")
    if jsonschema is not None:  # a field only the code or only the schema has fails
        for bad in ({**summary, "bytes": 10}, {**summary, "mode": "a"},
                    {"mode": "min_cover", "variables": 4}):
            with pytest.raises(jsonschema.ValidationError):
                _validate(bad, "encode_summary.schema.json")


def test_encode_rejected_instance_leaves_out_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "prog.lp"
    path.write_text("kept\n")
    monkeypatch.setenv("ROOKPACK_POINT_CAP", "4")
    code, out, err = run(capsys, "encode", "min_cover", "--n", "3", "--k", "2", "--l", "1",
                         "--out", str(path))
    assert code == 2 and out == "" and "cap" in err
    assert path.read_text() == "kept\n"


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--mode", "a", "--k", "2", "--l", "2",
                       "--n", "2..4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,lower,exact,upper,density,status"
    values = [line.split(",") for line in lines[1:]]
    assert [v[0] for v in values] == ["2", "3", "4"]
    assert [v[2] for v in values] == ["2", "3", "4"]  # a(n,2,2) = n
    assert values[1][4] == f"{3 / 3:.6f}"
    assert [v[5] for v in values] == ["exact"] * 3
    # a row cut by its budget names the cap that stopped it
    code, out, _ = run(capsys, "table", "--mode", "a", "--k", "3", "--l", "2",
                       "--n", "4..4", "--max-nodes", "1000")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert int(row[1]) < int(row[3]) and row[5] == "node_cap"


def test_table_rows_are_the_library_solves(capsys):
    # lower, exact and upper are the bounds and best value of the library
    # solve with the same budget; density is per n^(k-1) points for a and
    # b, whose optima grow like n^(k-1), and per n^(k-2) for c
    budget = SolverBudget(2_000, 60.0)
    solvers = {
        "a": (exact_min_covering, 1),
        "b": (exact_max_packing, 1),
        "c": (lambda g, budget: exact_max_two_packing(g, "closed", budget), 2),
    }
    for mode, (solve, drop) in solvers.items():
        code, out, _ = run(capsys, "table", "--mode", mode, "--k", "3", "--l", "2",
                           "--n", "2..4", "--max-nodes", "2000")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["2", "3", "4"]
        for n, row in zip((2, 3, 4), rows):
            res = solve(GridParams(n, 3, 2), budget)
            value = res.upper_bound if mode == "a" else res.lower_bound
            status = "exact" if res.exact else res.stats.stop_reason
            assert row == [str(n), str(res.lower_bound), str(value), str(res.upper_bound),
                           f"{value / n ** (3 - drop):.6f}", status], (mode, n)
    # density is b(3,3,2) = 10 over n^(k-1) = 9, and c(3,3,2) over n^(k-2) = 3
    code, out, _ = run(capsys, "table", "--mode", "b", "--k", "3", "--l", "2", "--n", "3..3")
    assert out.splitlines()[1].split(",")[2:5] == ["10", "10", f"{10 / 9:.6f}"]
    code, out, _ = run(capsys, "table", "--mode", "c", "--k", "3", "--l", "2", "--n", "3..3")
    row = out.splitlines()[1].split(",")
    assert row[4] == f"{int(row[2]) / 3:.6f}" and row[5] == "exact"


def test_table_empty_range(capsys):
    code, out, err = run(capsys, "table", "--mode", "a", "--k", "2", "--l", "2",
                         "--n", "5..3")
    assert _usage_error(code, out, err) and "empty" in err


def test_table_bad_range(capsys, monkeypatch):
    code, _, err = run(capsys, "table", "--mode", "a", "--k", "2", "--l", "2",
                       "--n", "x..3")
    assert code == 2 and "range" in err
    code, out, err = run(capsys, "table", "--mode", "a", "--k", "2", "--l", "2",
                         "--n", "0..3")
    assert _usage_error(code, out, err)
    # a range is never built as a list: this one's largest grid is refused
    code, out, err = run(capsys, "table", "--mode", "a", "--k", "2", "--l", "1",
                         "--n", "2..1000000000000")
    assert _usage_error(code, out, err) and "index width" in err
    # H(6,2) has 36 points, over a cap of 30: the table exits 2 before it
    # solves the grids below it
    solves = []
    monkeypatch.setattr("rookpack.cli.exact_min_covering", lambda g, budget: solves.append(g))
    monkeypatch.setenv("ROOKPACK_POINT_CAP", "30")
    code, out, err = run(capsys, "table", "--mode", "a", "--k", "2", "--l", "2", "--n", "2..6")
    assert _usage_error(code, out, err) and "36 points" in err
    assert solves == []


def test_compose_round_trips(capsys, tmp_path):
    diag = str(tmp_path / "diag.json")
    run(capsys, "construct", "diagonal_covering", "--n", "2", "--k", "2", "--out", diag)
    blown = str(tmp_path / "blown.json")
    code, out, _ = run(capsys, "compose", "blowup", diag, "--kind", "cover",
                       "--n-inner", "3", "--out", blown)
    assert code == 0 and json.loads(out) == {"op": "blowup", "rooks": 6, "out": blown}
    _validate(json.loads(out), "write_summary.schema.json")
    assert run(capsys, "compose", "blowup", diag, "--n-inner", "3",
               "--out", blown)[:2] == (0, out)  # --kind defaults to cover
    code, out, _ = run(capsys, "verify", "cover", blown)
    assert code == 0

    code, out, _ = run(capsys, "compose", "stack", diag)
    assert code == 0
    stacked = json.loads(out)
    assert stacked["k"] == 3 and len(stacked["rooks"]) == 4

    code, out, _ = run(capsys, "compose", "extend", diag)
    assert code == 0
    extended = json.loads(out)
    assert extended["n"] == 3

    code, out, err = run(capsys, "compose", "blowup", diag)
    assert _usage_error(code, out, err) and "--n-inner" in err
    # a flag the operation does not take exits 2 and writes no --out file
    path = tmp_path / "out.json"
    for argv, flag in [(("stack", diag, "--n-inner", "4", "--kind", "pack2"), "--kind"),
                       (("extend", diag, "--n-inner", "2"), "--n-inner")]:
        code, out, err = run(capsys, "compose", *argv, "--out", str(path))
        assert _usage_error(code, out, err) and f"{flag} is for blowup only" in err
        assert not path.exists()


def test_usage_errors_return_exit_code(capsys):
    # argparse's own exits come back as main()'s return value, not as SystemExit
    code, out, err = run(capsys, "solve", "a", "--n", "x", "--k", "2", "--l", "2")
    assert code == 2 and out == "" and "usage:" in err
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out == f"{__version__}\n"


def test_shared_parser_keeps_no_state(capsys):
    # every main() in a process parses with one parser; a flag, an option
    # or an error of one command must not reach the next
    assert _build_parser() is _build_parser()
    grid = ("--n", "2", "--k", "3", "--l", "2")
    sequence = [
        ("solve", "coverage", "--n", "3", "--k", "2", "--l", "2", "--N", "3"),
        ("solve", "c", *grid, "--strict"),
        ("solve", "c", *grid),
        ("solve", "a", "--n", "x", "--k", "2", "--l", "2"),
        ("solve", "a", *grid),
        ("solve", "coverage", "--n", "3", "--k", "2", "--l", "2"),
    ]
    alone = []
    for argv in sequence:  # each with a parser of its own, filling the cache
        _build_parser.cache_clear()
        alone.append(run(capsys, *argv)[:2])
    _build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in sequence]  # exact solves replay
    assert [r[:2] for r in shared] == alone
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 2]
    assert json.loads(shared[1][1])["optimum"] == 4 and json.loads(shared[2][1])["optimum"] == 2
    assert "needs --N" in shared[-1][2]


def test_exit_code_usage_on_bad_instance(capsys):
    code, _, err = run(capsys, "bounds", "--n", "3", "--k", "2", "--l", "5")
    assert code == 2 and "error" in err


def test_exit_code_io_on_truncated_json(capsys, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"n": 2, "k": 2,')
    code, _, err = run(capsys, "verify", "cover", str(path))
    assert code == 3
    code, _, err = run(capsys, "verify", "cover", str(tmp_path / "missing.json"))
    assert code == 3
    # a file that is not UTF-8, one nested deeper than the decoder's
    # recursion limit and one with an int over Python's 4,300-digit limit
    # are parse errors, not tracebacks, for verify and compose alike
    for name, data in [("binary", b"\xff\xfe{\x00\x80"),
                       ("deep", b"[" * 10_000 + b"]" * 10_000),
                       ("long", b'{"n": 1%s, "k": 2, "l": 1, "rooks": []}' % (b"0" * 5000))]:
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        for argv in (("verify", "cover", str(path)), ("compose", "stack", str(path))):
            code, _, err = run(capsys, *argv)
            assert code == 3 and err.startswith("parse error"), argv


def test_config_file_shape_refused(capsys, tmp_path):
    # rooks that are not an array, and an axis listed twice, which the
    # frozenset of a Rook would merge (0 with 0, 1 with true)
    good = {"n": 3, "k": 2, "l": 2, "rooks": [{"point": [1, 1], "dirs": [0, 1]}]}
    for doc in [{**good, "rooks": ""}, {**good, "rooks": {}},
                {**good, "l": 1, "rooks": [{"point": [1, 1], "dirs": [0, 0]}]},
                {**good, "rooks": [{"point": [1, 1], "dirs": [1, True]}]}]:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for mode in ("cover", "pack"):
            code, out, err = run(capsys, "verify", mode, str(path))
            assert (code, out) == (2, "") and err.startswith("error:"), doc
            assert err.count("\n") == 1, doc


def _schema_mutations(good):
    """Copies of the valid config good, each of which config.schema.json rejects."""
    rook = good["rooks"][0]
    for key in ("n", "k", "l", "rooks"):
        yield {x: v for x, v in good.items() if x != key}
    for key in ("point", "dirs"):
        yield {**good, "rooks": [{x: v for x, v in rook.items() if x != key}]}
    for key in ("n", "k", "l"):
        for bad in (0, 1.5, "3", True):
            yield {**good, key: bad}
    for key, bad in [("point", [-1, 1]), ("dirs", [-1, 1]), ("dirs", [0, 0]), ("point", "11"),
                     ("point", None), ("point", 1.5)]:
        yield {**good, "rooks": [{**rook, key: bad}]}
    for bad in ({}, 5):
        yield {**good, "rooks": bad}
    yield [good]


def test_config_schema_rejects_are_refused(capsys, tmp_path):
    # every file config.schema.json rejects ends as a usage or parse error
    if jsonschema is None:
        pytest.skip("jsonschema is not installed")
    good = {"n": 3, "k": 2, "l": 2, "rooks": [{"point": [1, 1], "dirs": [0, 1]}]}
    _validate(good, "config.schema.json")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(good))
    assert run(capsys, "verify", "cover", str(path))[0] == 1  # valid, but no covering
    for doc in _schema_mutations(good):
        with pytest.raises(jsonschema.ValidationError):
            _validate(doc, "config.schema.json")
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "cover", str(path))
        assert code in (2, 3) and "Traceback" not in err, doc


def test_config_file_integers_only(capsys, tmp_path):
    good = {"n": 3, "k": 2, "l": 2, "rooks": [{"point": [1, 1], "dirs": [0, 1]}]}
    for key, bad in [("n", 3.7), ("n", True), ("point", [0.9, 1]), ("point", [False, 1])]:
        doc = json.loads(json.dumps(good))
        if key == "n":
            doc["n"] = bad
        else:
            doc["rooks"][0]["point"] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "pack", str(path))
        assert code == 2 and "integer" in err, (key, bad)


def test_config_file_with_huge_dimension(capsys, tmp_path):
    # refused by GridParams from k alone, before n^k is computed
    path = tmp_path / "huge.json"
    for n, k in [(3, 2_000_000), (1, 10**6)]:
        path.write_text(json.dumps({"n": n, "k": k, "l": 1, "rooks": []}))
        code, out, err = run(capsys, "verify", "cover", str(path))
        assert (code, out) == (2, "") and "dimension" in err, (n, k)


def test_point_cap_env_validation(capsys, monkeypatch):
    for raw in ("abc", "0", "-5"):
        monkeypatch.setenv("ROOKPACK_POINT_CAP", raw)
        code, _, err = run(capsys, "solve", "a", "--n", "2", "--k", "2", "--l", "2")
        assert code == 2 and "ROOKPACK_POINT_CAP" in err, raw
    monkeypatch.setenv("ROOKPACK_POINT_CAP", "4")
    code, _, _ = run(capsys, "solve", "a", "--n", "2", "--k", "2", "--l", "2")
    assert code == 0
