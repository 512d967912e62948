"""Tests of the benchmark itself, run from the repository root with

    python3 -m pytest perfbench/tests

They take about a minute: every workload runs one pass.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(capsys, workload, seed=1, trace=0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]])
def test_every_end_to_end_metric_is_present(capsys, workload):
    code, _, result = invoke(capsys, workload)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert_metrics(result, spec()["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_present(capsys):
    code, _, result = invoke(capsys, "cli-cache", trace=1)
    assert code == 0 and result["correct"] is True
    assert_metrics(result, spec()["per_layer"])


def fingerprints(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    head = next(line for line in out.splitlines() if line.startswith("fingerprint "))
    doc = json.loads(next(line for line in out.splitlines() if line.startswith("fingerprint-json "))
                     .split(" ", 1)[1])
    return head, doc


def test_fingerprint_is_stable_across_invocations():
    first, doc1 = fingerprints("exact-solve", 5)
    again, doc2 = fingerprints("exact-solve", 5)
    assert first == again and doc1 == doc2
    other, doc3 = fingerprints("exact-solve", 6)
    assert doc3["fixed"] == doc1["fixed"]
    assert doc1["fixed"]["b(8,2,1)"][0] == 6093


def _wrong_packing(rp):
    real = rp.solve.exact_max_packing

    def wrong(g, budget=None):
        r = real(g, budget)
        r.optimum += 1
        r.lower_bound += 1
        r.upper_bound += 1
        return r

    rp.solve.exact_max_packing = wrong
    return 8  # b(3,3,2) and b(n,2,1) for n = 4..10


def _short_coverage_witness(rp):
    """A witness rookpack's own checks would not catch: one rook short."""
    real = rp.solve.exact_max_coverage

    def wrong(g, N, budget=None):
        r = real(g, N, budget)
        r.witness = rp.core.Configuration(r.witness.params, r.witness.rooks[1:])
        return r

    rp.solve.exact_max_coverage = wrong
    return 4  # max coverage for N = 1..4


@pytest.mark.parametrize("tamper", [_wrong_packing, _short_coverage_witness])
def test_injected_wrong_result_raises_failed_ratio(capsys, monkeypatch, tamper):
    expected = []
    real_load = run.load_rookpack

    def load(src):
        rp = real_load(src)
        expected.append(tamper(rp))
        return rp

    monkeypatch.setattr(run, "load_rookpack", load)
    code, lines, result = invoke(capsys, "exact-solve")
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == expected[-1]
    assert any(line.strip().startswith("failed_ratio = ") for line in lines)
