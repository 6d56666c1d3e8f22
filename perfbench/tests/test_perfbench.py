"""Tests of the benchmark itself: its contract file, its checks, its tracer.

    python3 -m pytest perfbench/tests -q

The command is exercised in-process on tiny versions of the workloads, so
the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "scan-quadratic": workloads.ScanWorkload(
        "scan-quadratic", base=10**7, width=3000, d_max=None, n_max=1, p0=1e7,
        shard_width=1000, workers=1),
    "scan-orders": workloads.ScanWorkload(
        "scan-orders", base=10**12, width=400, d_max=12, n_max=3, p0=1e12,
        shard_width=100, workers=2),
    "verify-small": workloads.VerifyWorkload(
        "verify-small",
        grid=dict(stirling_r_max=10, totient_x_max=12, convexity_h_max=10,
                  convexity_r_max=10, s_upper_p_max=7, s_upper_h_max=3,
                  s_upper_r_max=2, disjoint_trials=3, disjoint_p_max=1000,
                  proposition_instances=3, proposition_p_limit=1000,
                  shifted_p_limit=60, shifted_max_instances=5),
        frozen_counts={"proposition": (3, 0), "sum-chi": (17, 11)}),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run the command on tiny workloads, one round of jobs, output in tmp_path."""
    for name, wl in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, wl)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def command(capsys, workload, trace=0, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    return code, out, json.loads(out[-1])


# -- the contract file -------------------------------------------------------


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_predictions_name_declared_metrics_and_workloads():
    pred = json.loads((BENCH / "predictions.json").read_text())["layers"]
    layer_metrics = {m["name"] for m in SPEC["per_layer"]}
    covered = set()
    for layer, p in pred.items():
        assert all(m.startswith(layer + ".") for m in p["metrics"])
        covered.update(p["metrics"])
        for move in p["moves"]:
            assert move["workload"] in workloads.WORKLOADS
            assert set(move["end_to_end"]) <= {m["name"] for m in SPEC["end_to_end"]}
        assert set(p["flat"]) <= set(workloads.WORKLOADS)
    assert covered <= layer_metrics
    assert layer_metrics - covered == {"trace.overhead_frac"}


# -- the command ---------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_printed_metrics_are_declared(tiny, capsys, workload, trace):
    code, lines, last = command(capsys, workload, trace)
    assert code == 0 and last["correct"] and last["failed"] == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(last["metrics"]) == declared
    every = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for line in lines[1:-2]:  # one human line per metric, then the uncompared times
        if "not compared:" in line:
            assert trace == 0 and all(k in line for k in ("wall_s", "cpu_s", "reference_s"))
            continue
        assert line.split()[1] in every


def test_traced_scan_sees_its_layers(tiny, capsys):
    _, _, last = command(capsys, "scan-orders", trace=1)
    m = {k: v["value"] for k, v in last["metrics"].items()}
    assert m["primes.factorize.calls"] > 0 and m["characters.kernel_tests"] > 0
    assert m["scan.checkpoint.commits"] == 4 and m["bounds.compute_g.calls"] > 0
    assert m["lemmas.s-upper.instances"] == 0


def test_seed_picks_the_inputs():
    wl = workloads.WORKLOADS["scan-quadratic"]
    assert wl.inputs(5) == wl.inputs(5) != wl.inputs(6)
    assert workloads.WORKLOADS["verify-small"].inputs(9)["seed"] == 9


def test_corrupted_scan_record_fails(tiny, capsys, monkeypatch):
    from nonresidues import scan as sc

    to_jsonl = sc.ScanRecord.to_jsonl

    def corrupt(rec):
        line = to_jsonl(rec)
        return line.replace('"q": [2]', '"q": [3]') if rec.p % 7 == 1 else line

    monkeypatch.setattr(sc.ScanRecord, "to_jsonl", corrupt)
    code, _, last = command(capsys, "scan-quadratic")
    assert code == 1 and not last["correct"] and last["failed"] > 0


def test_output_differing_between_jobs_fails(tiny, capsys, monkeypatch):
    from nonresidues import scan as sc

    run_scan = sc.run_scan
    calls = []

    def flaky(task, **kw):
        calls.append(1)
        if len(calls) == 2:
            task = type(task).make(task.p_lo, task.p_hi - 2, n_max=task.n_max,
                                   p0=task.p0, shard_width=task.shard_width)
        return run_scan(task, **kw)

    monkeypatch.setattr(sc, "run_scan", flaky)
    code, _, last = command(capsys, "scan-quadratic")
    assert code == 1 and not last["correct"]


def test_corrupted_verify_count_fails(tiny, capsys, monkeypatch):
    from nonresidues import lemmas as lm

    sweep = lm.sweep_stirling
    monkeypatch.setattr(lm, "sweep_stirling", lambda r_max: sweep(r_max - 1))
    code, _, last = command(capsys, "verify-small")
    assert code == 1 and not last["correct"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-quadratic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the independent checks and the tracer --------------------------------------


def test_reference_job_is_fixed_and_independent_of_the_package():
    import reference

    assert reference.reference_job() == reference.reference_job() == 34596
    wall, cpu = reference.timed()
    assert wall > 0 and cpu > 0
    assert "nonresidues" not in (BENCH / "reference.py").read_text()


def test_plain_sieve_agrees_with_trial_division():
    primes = check.primes_between(10**6, 10**6 + 500)
    assert primes == [n for n in range(10**6, 10**6 + 501)
                      if all(n % k for k in range(2, int(n**0.5) + 1))]
    assert check.smallest_nonresidues(7, 2, 3, check.plain_sieve(100)) == [3, 5, 13]


def test_tracer_self_time_and_restore():
    mod = types.SimpleNamespace()
    mod.leaf = lambda: sum(range(2000))
    mod.outer = lambda: [mod.leaf() for _ in range(3)]
    original = mod.outer
    tr = Tracer()
    tr.wrap(mod, "outer", "outer")
    tr.wrap(mod, "leaf", "leaf", leaf=True)
    tr.wrap(mod, "absent", "absent")
    mod.outer()
    out, leaf = tr.stat("outer"), tr.stat("leaf")
    assert (out.calls, leaf.calls) == (1, 3)
    assert out.self_s == pytest.approx(out.total_s - leaf.total_s)
    assert [s[2] for s in tr.spans] == ["outer"] and tr.missing == ["SimpleNamespace.absent"]
    tr.unwrap_all()
    assert mod.outer is original
