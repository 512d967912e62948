"""End-to-end CLI behaviour: JSON/CSV output, cache, exit codes."""

import json
import os

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from rookpack.cli import main
from rookpack.core import InvalidArgument
from rookpack.solve import SolverBudget

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
    assert doc["a_lower"] == 6 and doc["a_upper"] == 9
    assert doc["b_upper"] == "27/2"
    assert doc["b_incidence"] == "81/7"
    assert doc["c_upper"] == 9
    _validate(doc, "bound_report.schema.json")


def test_bounds_rational_spelling(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "3", "--k", "4", "--l", "2")
    doc = json.loads(out)
    assert doc["b_upper"] == 54  # integral Fractions flatten to ints


def test_construct_verify_round_trip(capsys, tmp_path):
    cases = [
        ("diagonal_covering", ["--n", "3", "--k", "2"], "cover", []),
        ("diagonal_slab_block", ["--n1", "2", "--k", "3", "--l", "2"], "cover", []),
        ("distance3_code", ["--p", "5", "--k", "3"], "pack2", []),
        ("block_packing", ["--n", "2", "--k", "2", "--t", "2"], "pack", []),
        ("c_k2", ["--n", "7", "--k", "2"], "pack2", []),
        ("a32_covering", ["--a", "5", "--b", "2"], "cover", []),
        ("b_k2_inductive", ["--n", "4", "--k", "3"], "pack", []),
    ]
    for name, params, kind, flags in cases:
        path = str(tmp_path / f"{name}.json")
        code, out, _ = run(capsys, "construct", name, *params, "--out", path)
        assert code == 0, name
        summary = json.loads(out)
        assert summary["rooks"] >= 1
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


def test_construct_unknown_and_missing_params(capsys):
    code, _, err = run(capsys, "construct", "mystery")
    assert code == 2 and "unknown" in err
    code, _, err = run(capsys, "construct", "diagonal_covering", "--n", "3")
    assert code == 2 and "--k" in err


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
    code, first, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(first)
    assert doc["optimum"] == 7 and doc["exact"]
    _validate(doc, "solve_result.schema.json")
    cache = tmp_path / "cache"
    records = sorted(p.name for p in cache.iterdir() if p.suffix == ".json")
    assert records == ["solve_a_3_3_2.json"]  # one record per instance, no temp file
    code, second, _ = run(capsys, *argv)
    assert code == 0
    assert second == first  # byte-identical replay from cache


def test_solve_flag_records_replay(capsys, tmp_path):
    cases = [
        (("solve", "c", "--n", "2", "--k", "3", "--l", "2"), 2, "solve_c_2_3_2.json"),
        (("solve", "c", "--n", "2", "--k", "3", "--l", "2", "--strict"), 4,
         "solve_c_strict_2_3_2.json"),
        (("solve", "a", "--n", "3", "--k", "3", "--l", "2", "--symmetry"), 7,
         "solve_a_sym_3_3_2.json"),
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


def test_solve_budget_exit(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", "a", "--n", "3", "--k", "3", "--l", "2",
                       "--max-nodes", "20")
    assert code == 4
    doc = json.loads(out)
    assert not doc["exact"] and doc["optimum"] is None
    # inexact runs are not cached
    assert not (tmp_path / "cache" / "solve_a_3_3_2.json").exists()


def test_budget_that_cannot_be_met_is_rejected(capsys, tmp_path):
    # a negative cap or a NaN clock is a usage error, not a cap of 0 or no
    # clock at all; 0 and inf stay valid caps
    with pytest.raises(InvalidArgument):
        SolverBudget(max_nodes=-1)
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
    assert json.loads(out)["variables"] == 4
    assert "y_0_3" in open(path).read()


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
    assert lines[0] == "n,lower,exact,upper,density"
    values = [line.split(",") for line in lines[1:]]
    assert [v[0] for v in values] == ["2", "3", "4"]
    assert [v[2] for v in values] == ["2", "3", "4"]  # a(n,2,2) = n
    assert values[1][4] == f"{3 / 3:.6f}"


def test_table_empty_range(capsys):
    code, _, err = run(capsys, "table", "--mode", "a", "--k", "2", "--l", "2",
                       "--n", "5..3")
    assert code == 2 and "empty" in err


def test_table_bad_range(capsys):
    code, _, err = run(capsys, "table", "--mode", "a", "--k", "2", "--l", "2",
                       "--n", "x..3")
    assert code == 2 and "range" in err


def test_compose_round_trips(capsys, tmp_path):
    diag = str(tmp_path / "diag.json")
    run(capsys, "construct", "diagonal_covering", "--n", "2", "--k", "2", "--out", diag)
    blown = str(tmp_path / "blown.json")
    code, out, _ = run(capsys, "compose", "blowup", diag, "--kind", "cover",
                       "--n-inner", "3", "--out", blown)
    assert code == 0 and json.loads(out)["rooks"] == 6
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

    code, _, err = run(capsys, "compose", "blowup", diag)
    assert code == 2 and "--n-inner" in err


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
    # a file that is not UTF-8 is a parse error, for verify and compose alike
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{\x00\x80")
    for argv in (("verify", "cover", str(binary)), ("compose", "stack", str(binary))):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "parse error" in err, argv


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


def test_point_cap_env_validation(capsys, monkeypatch):
    for raw in ("abc", "0", "-5"):
        monkeypatch.setenv("ROOKPACK_POINT_CAP", raw)
        code, _, err = run(capsys, "solve", "a", "--n", "2", "--k", "2", "--l", "2")
        assert code == 2 and "ROOKPACK_POINT_CAP" in err, raw
    monkeypatch.setenv("ROOKPACK_POINT_CAP", "4")
    code, _, _ = run(capsys, "solve", "a", "--n", "2", "--k", "2", "--l", "2")
    assert code == 0
