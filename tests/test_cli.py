import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from nonresidues import bounds as bd
from nonresidues import cli
from nonresidues import lemmas as lm
from nonresidues import primes as pr
from nonresidues.rounding import certify, upper

from table1_data import TABLE1


def run_cli(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def load_schema(name):
    with open(cli.schema_path(name)) as fh:
        return json.load(fh)


DATA = Path(__file__).parent / "data"


def at_or_above_g(c, n0, p0):
    """Whether the double c is at least the upper end of g(n0, p0)'s
    enclosure, exactly."""
    return certify(upper(bd.enclose_g(n0, p0)[2]), c.as_integer_ratio())[0]


def test_table_single_cell(capsys):
    code, out, _ = run_cli(["table", "--n0", "1", "--p0", "1e7"], capsys)
    assert code == 0
    assert "1.530" in out  # published rounding (up at the third decimal)


def test_table_text_matches_published_grid(capsys):
    code, out, _ = run_cli(["table"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    for row_line, n0 in zip(lines[1:], range(1, 9)):
        cells = row_line.split()
        assert cells[0] == str(n0)
        for cell, expected in zip(cells[1:], TABLE1[n0]):
            if expected is None:
                assert cell == "-"
            else:
                assert cell == f"{expected:.3f}"


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_default_table_matches_golden(fmt, capsys):
    # written by `nonres table` while g was still evaluated in doubles
    code, out, _ = run_cli(["table", "--format", fmt], capsys)
    assert code == 0
    assert out == (DATA / f"table_default.{'txt' if fmt == 'text' else 'csv'}").read_text()


def test_table_json_constants_are_certified_upper_bounds(capsys):
    # the double-precision g of each cell lay up to 7e-15 below the true g
    code, out, _ = run_cli(["table", "--format", "json"], capsys)
    assert code == 0
    cells = [c for c in json.loads(out) if c["g"] is not None]
    assert len(cells) == 45
    for c in cells:
        assert at_or_above_g(c["g"], c["n0"], c["p0"]), c


def test_table_csv_and_json(capsys):
    code, out, _ = run_cli(["table", "--format", "csv", "--n0", "1,3",
                            "--p0", "1e7,1e8"], capsys)
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "n0,1e7,1e8"
    assert rows[1] == "1,1.530,1.433"
    assert rows[2] == "3,-,7.170"

    code, out, _ = run_cli(["table", "--format", "json", "--n0", "1..2",
                            "--p0", "1e7"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema("table"))
    assert [c["n0"] for c in obj] == [1, 2]


def test_table_ellipsis_expansion(capsys):
    code, out, _ = run_cli(
        ["table", "--format", "json", "--n0", "1", "--p0", "1e7,1e8,...,1e12"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert [round(c["p0"] / 10**e) for c, e in zip(obj, range(7, 13))] == [1] * 6


def test_table_all_dash_below_threshold(capsys):
    code, out, _ = run_cli(["table", "--n0", "1..8", "--p0", "1e3"], capsys)
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split()[1] == "-"


def test_table_refuses_non_finite_p0(capsys):
    # refused while parsing: a non-finite p0 cannot even be labelled
    for p0 in ("inf", "1e400", "nan", "-inf", "1e7,1e8,...,1e400", "1e7,inf"):
        code, out, err = run_cli(["table", f"--p0={p0}"], capsys)
        assert code == 2 and "not a finite number" in err and out == "", p0


def test_table_large_n0_is_dashes_not_overflow(capsys):
    # exp(8(n0-1)) overflows from n0 = 90 on, (log p0)^((n0-1)/2) near 500
    code, out, _ = run_cli(["table", "--n0", "89,90,600,100000",
                            "--p0", "1e7,1e300"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 4 and all(row.split()[1:] == ["-", "-"] for row in rows)


# -- invalid input: exit 2, never a traceback ---------------------------------


def main_in_process(argv):
    """(exit code, stderr) of cli.main(argv); argparse refusals raise
    SystemExit, any other exception fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def assert_refused(argv):
    code, err = main_in_process(argv)
    assert code == 2, (argv, code, err)
    assert "Traceback" not in err and "error" in err, (argv, err)


def with_one_bad(valid, bad):
    """Comma lists of valid tokens with one bad token at a random place."""
    return st.tuples(st.lists(valid, max_size=3), bad, st.lists(valid, max_size=3)).map(
        lambda t: ",".join(t[0] + [t[1]] + t[2]))


N0_VALID = st.one_of(st.integers(1, 10**6).map(str), st.just("1..8"))
N0_BAD = st.one_of(
    st.sampled_from(["x", "1.5", "2e3", "..", "1..x", "0x10", "1..2..3"]),
    st.integers(-(10**6), 0).map(str),
    st.integers(-5, 0).map(lambda lo: f"{lo}..3"),
)
P0_VALID = st.floats(min_value=2, max_value=1e308).map(repr)
P0_BAD = st.one_of(
    st.sampled_from(["x", "1e", "e7", "1..2", "inf", "-inf", "nan", "1e400", "-1e999"]),
    st.floats(max_value=2, exclude_max=True, allow_nan=False).map(repr),
)


@settings(deadline=None, max_examples=60)
@given(with_one_bad(N0_VALID, N0_BAD))
def test_malformed_n0_list_exits_2(spec):
    assert_refused(["table", f"--n0={spec}", "--p0=1e7"])


@settings(deadline=None, max_examples=60)
@given(with_one_bad(P0_VALID, P0_BAD))
def test_malformed_p0_list_exits_2(spec):
    assert_refused(["table", "--n0=1..3", f"--p0={spec}"])


@settings(deadline=None, max_examples=40)
@given(st.one_of(
    st.tuples(st.integers(2, 10**4), st.integers(2, 10**4)).map(lambda t: t[0] * t[1]),
    st.integers(-(10**6), 1),
))
def test_composite_p_exits_2(p):
    assert_refused(["nonresidues", f"--p={p}", "--d=2", "--n=3"])


ODD_PRIMES = [int(p) for p in pr.primes_upto(10**4) if p > 2]


@settings(deadline=None, max_examples=40)
@given(st.tuples(st.sampled_from(ODD_PRIMES), st.integers(-10, 10**6)).filter(
    lambda t: t[1] < 2 or (t[0] - 1) % t[1] != 0))
def test_order_not_dividing_p_minus_1_exits_2(pd):
    p, d = pd
    assert_refused(["nonresidues", f"--p={p}", f"--d={d}", "--n=1"])


@settings(deadline=None, max_examples=40)
@given(st.tuples(st.integers(2, 10**15), st.integers(1, 10**15)).filter(
    lambda t: t[0] > t[1]), st.booleans())
def test_reversed_scan_range_exits_2(bounds, check_bound):
    lo, hi = bounds
    argv = ["scan", f"--p-lo={lo}", f"--p-hi={hi}"]
    assert_refused(argv if check_bound else argv + ["--no-bound-check"])


NON_FINITE = ("inf", "-inf", "nan", "1e400")


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("argv", [
    ["bound", "--n=1", "--p={}"],
    ["bound", "--n=1", "--p=1e7", "--p0={}"],
    ["scan", "--p-lo=1e7", "--p-hi=1.0001e7", "--n0=1", "--p0={}"],
    ["scan", "--p-lo=1e7", "--p-hi=1.0001e7", "--n0=1", "--p0=1e7", "--c={}"],
    ["scan", "--p-lo=1e7", "--p-hi=1.0001e7", "--c={}", "--no-bound-check"],
    ["scan", "--p-lo=1e7", "--p-hi=1.0001e7", "--p0={}", "--no-bound-check"],
], ids=" ".join)
def test_non_finite_float_options_exit_2(argv, value):
    # --c inf raised OverflowError in certify_freeze, and with
    # --no-bound-check wrote "c": Infinity into the summary; bound --p inf
    # exited 2 with a message that named no failed condition
    argv = [a.format(value) for a in argv]
    assert_refused(argv)
    assert "not a finite number" in main_in_process(argv)[1]


@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("check", [[], ["--no-bound-check"]], ids=["checked", "unchecked"])
def test_scan_constant_that_is_not_positive_exits_2(value, check, tmp_path):
    # --no-bound-check --c -1 exited 0 with "c": -1.0 in the summary
    summary = tmp_path / "s.json"
    argv = ["scan", "--p-lo", "1e7", "--p-hi", "1.00001e7", *check, "--c", value,
            "--summary", str(summary)]
    assert_refused(argv)
    assert "c must be a positive finite number" in main_in_process(argv)[1]
    assert not summary.exists()


def test_bound_text_and_json(capsys):
    code, out, _ = run_cli(["bound", "--n", "1", "--p", "1e7"], capsys)
    assert code == 0 and "1.530" in out and "q_1" in out

    code, out, _ = run_cli(["bound", "--n", "1", "--p", "1e7",
                            "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema("bound"))
    assert obj["c"] == pytest.approx(1.5294789, abs=1e-6)
    assert obj["bound"] == pytest.approx(1386.3, abs=1.0)
    # c was the double-precision g, 1.529478876435229, below the true g
    assert at_or_above_g(obj["c"], 1, 1e7)


def test_bound_invalid_reference_exits_2(capsys):
    code, _, err = run_cli(["bound", "--n", "3", "--p", "1e7"], capsys)
    assert code == 2
    assert "invalid" in err


def test_bound_at_a_huge_n_refuses_in_little_memory(capsys):
    # reference_g at n0 = 10^9 once built an integer of 10^9 bits
    tracemalloc.start()
    try:
        code, _, err = run_cli(["bound", "--n", "1000000000", "--p", "1e7"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "invalid" in err
    assert peak < 4 * 2**20


def test_bound_refuses_overflowing_power(capsys):
    # (log 1e7)^((1000+1)/2) is past the double range
    code, out, err = run_cli(["bound", "--n", "1000", "--p", "1e7",
                              "--n0", "1", "--p0", "1e7"], capsys)
    assert code == 2 and "error:" in err and "overflows" in err and out == ""
    assert "Traceback" not in err


def test_bound_warns_below_p0_but_exits_0(capsys):
    code, out, _ = run_cli(
        ["bound", "--n", "1", "--p", "5e6", "--n0", "1", "--p0", "1e7"], capsys
    )
    assert code == 0
    assert "warning" in out


def test_nonresidues_text(capsys):
    code, out, _ = run_cli(["nonresidues", "--p", "7", "--d", "2", "--n", "3"], capsys)
    assert code == 0 and out.split() == ["3", "5", "13"]
    code, out, _ = run_cli(["nonresidues", "--p", "5", "--d", "2", "--n", "2"], capsys)
    assert code == 0 and out.split() == ["2", "3"]


def test_nonresidues_json_schema(capsys):
    code, out, _ = run_cli(
        ["nonresidues", "--p", "101", "--d", "4", "--n", "5", "--format", "json"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema("nonresidues"))
    assert obj["q"] == sorted(obj["q"])


def test_nonresidues_cap_exit_3(capsys):
    code, _, err = run_cli(
        ["nonresidues", "--p", "1000003", "--d", "2", "--n", "9", "--cap", "3"],
        capsys,
    )
    assert code == 3 and "cap" in err


@pytest.mark.parametrize("extra", [
    ["--n", "0"],  # printed an empty line, exit 0
    ["--n", "-2"],
    ["--n", "3", "--cap", "-5"],  # reported "search cap -5 exhausted", exit 3
    ["--n", "3", "--cap", "0"],
], ids=" ".join)
def test_nonresidues_count_below_one_exits_2(extra):
    assert_refused(["nonresidues", "--p", "1000003", "--d", "2", *extra])


def test_nonresidues_bad_order_exit_2(capsys):
    code, _, err = run_cli(["nonresidues", "--p", "7", "--d", "4", "--n", "1"], capsys)
    assert code == 2


def test_nonresidues_composite_p_exit_2(capsys):
    for p in ("9", "1", "561"):
        code, out, err = run_cli(["nonresidues", "--p", p, "--d", "2", "--n", "3"], capsys)
        assert code == 2 and "not prime" in err and out == ""


def test_verify_requires_selector(capsys):
    code, _, err = run_cli(["verify"], capsys)
    assert code == 2 and "--all" in err


def test_verify_single_lemma_report(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "--lemma", "stirling", "--r-max", "40",
         "--report", str(report_path)],
        capsys,
    )
    assert code == 0
    assert "PASS stirling" in out
    obj = json.loads(report_path.read_text())
    jsonschema.validate(obj, load_schema("verify_report"))
    assert obj["all_passed"] and obj["lemmas"]["stirling"]["instances_run"] == 40


def test_verify_unknown_lemma_exit_2(capsys):
    # the refusal, not the --lemma help, lists the valid names
    code, _, err = run_cli(["verify", "--lemma", "zorn"], capsys)
    assert code == 2
    assert "'zorn'" in err and all(repr(name) in err for name in lm.LEMMA_NAMES)


@pytest.mark.parametrize("spec", [",", " , ,"])
def test_verify_empty_lemma_selection_exit_2(capsys, spec):
    # a --lemma that names no lemma is refused, not taken for --all
    code, out, err = run_cli(["verify", "--lemma", spec], capsys)
    assert code == 2 and out == ""
    assert "no lemma selected" in err


def test_verify_multiple_lemmas(capsys):
    code, out, _ = run_cli(
        ["verify", "--lemma", "stirling,convexity", "--r-max", "10",
         "--h-max", "16"],
        capsys,
    )
    assert code == 0
    assert "PASS stirling" in out and "PASS convexity" in out


# -- invalid verify grids: refused, never a pass over zero instances ----------


@pytest.mark.parametrize("argv", [
    ["--lemma", "disjointness", "--p-max", "5"],  # drew from no primes: IndexError
    ["--lemma", "stirling", "--r-max", "0"],
    ["--lemma", "convexity", "--r-max", "-3"],
    ["--lemma", "disjointness", "--trials", "-1"],
    ["--lemma", "totient", "--x-max", "1"],
    ["--lemma", "convexity", "--h-max", "0"],
], ids=lambda argv: " ".join(argv[1:]))
def test_verify_empty_grid_exits_2(argv):
    assert_refused(["verify", *argv])


@pytest.mark.parametrize("opt", ["--r-max", "--x-max", "--h-max", "--p-max", "--trials",
                                 "--instances"])
def test_verify_grid_bound_below_one_refused_before_any_sweep(opt, monkeypatch):
    monkeypatch.setattr(lm, "run_verification", lambda *a: pytest.fail("ran a sweep"))
    assert_refused(["verify", "--all", f"{opt}=0"])


@settings(deadline=None, max_examples=40)
@given(st.one_of(
    st.tuples(st.sampled_from(["stirling", "convexity", "s-upper"]), st.just("--r-max"),
              st.integers(-(10**6), 0)),
    st.tuples(st.sampled_from(["convexity", "s-upper"]), st.just("--h-max"),
              st.integers(-(10**6), 0)),
    st.tuples(st.just("totient"), st.just("--x-max"), st.integers(-(10**6), 1)),
    st.tuples(st.just("disjointness"), st.sampled_from(["--p-max", "--trials"]),
              st.integers(-(10**6), 0)),
    st.tuples(st.just("disjointness"), st.just("--p-max"), st.integers(1, 10)),
    st.tuples(st.sampled_from(["s-upper", "proposition"]), st.just("--p-max"),
              st.integers(-(10**6), 2)),
    st.tuples(st.just("proposition"), st.just("--p-max"), st.integers(3, 19)),
    st.tuples(st.just("proposition"), st.just("--instances"), st.integers(-(10**6), 0)),
))
def test_verify_grid_without_instances_exits_2(case):
    lemma, opt, value = case
    assert_refused(["verify", "--lemma", lemma, f"{opt}={value}"])


def test_scan_summary_schema_and_records(capsys, tmp_path):
    out_path = tmp_path / "records.jsonl"
    summary_path = tmp_path / "summary.json"
    code, out, _ = run_cli(
        ["scan", "--p-lo", "1e7", "--p-hi", "1.0002e7", "--n-max", "1",
         "--n0", "1", "--p0", "1e7", "--c", "1.530",
         "--out", str(out_path), "--summary", str(summary_path)],
        capsys,
    )
    assert code == 0
    summary = json.loads(summary_path.read_text())
    jsonschema.validate(summary, load_schema("scan_summary"))
    assert summary["violations"] == 0
    rec_schema = load_schema("scan_record")
    lines = out_path.read_text().splitlines()
    assert len(lines) == summary["records"] > 0
    for line in lines:
        jsonschema.validate(json.loads(line), rec_schema)


def test_scan_checkpoint_schema(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    code, _, _ = run_cli(
        ["scan", "--p-lo", "1e7", "--p-hi", "1.0005e7", "--c", "1.530",
         "--n0", "1", "--p0", "1e7", "--shard-width", "2000",
         "--out", str(tmp_path / "r.jsonl"), "--summary", str(tmp_path / "s.json"),
         "--checkpoint", str(ck)],
        capsys,
    )
    assert code == 0
    jsonschema.validate(json.loads(ck.read_text()), load_schema("checkpoint"))


def test_scan_checkpoint_mismatch_exit_2(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    args = ["scan", "--p-lo", "1e7", "--p-hi", "1.0005e7", "--c", "1.530",
            "--n0", "1", "--p0", "1e7",
            "--out", str(tmp_path / "r.jsonl"),
            "--summary", str(tmp_path / "s.json"), "--checkpoint", str(ck)]
    code, _, _ = run_cli(args + ["--stop-after-shards", "1",
                                 "--shard-width", "2000"], capsys)
    assert code == 0
    # resume with a different n-max must refuse
    bad = [a.replace("1.0005e7", "1.0005e7") for a in args]
    bad[bad.index("--n0") + 1] = "1"
    code, _, err = run_cli(bad + ["--n-max", "1", "--shard-width", "1000"], capsys)
    assert code == 2 and "different task" in err


def test_scan_usage_errors(capsys):
    code, _, err = run_cli(
        ["scan", "--p-lo", "1e6", "--p-hi", "2e6", "--n0", "1", "--p0", "1e7",
         "--c", "1.530"],
        capsys,
    )
    assert code == 2
    code, _, err = run_cli(
        ["scan", "--p-lo", "1e7", "--p-hi", "1.001e7", "--orders", "bogus"],
        capsys,
    )
    assert code == 2


def test_scan_refuses_a_constant_below_the_certified_g(capsys, tmp_path):
    # the double g(1, 10^7) lies below the true g: refused by the certificate
    args = ["scan", "--p-lo", "1e7", "--p-hi", "10000100", "--n-max", "1", "--n0", "1",
            "--p0", "1e7", "--summary", str(tmp_path / "s.json")]
    code, _, err = run_cli([*args, "--c", "1.529478876435229"], capsys)
    assert code == 2 and "g_le_c" in err and "Traceback" not in err
    assert not (tmp_path / "s.json").exists()
    code, _, err = run_cli([*args, "--c", "1.530"], capsys)
    assert code == 0, err
    assert json.loads((tmp_path / "s.json").read_text())["c"] == 1.53


def test_scan_default_p0_covers_p_lo_above_2_53(capsys, tmp_path):
    # p0 defaulted to float(p_lo), which rounds up to 10^17 + 16 here, and
    # the scan refused its own p_lo as below p0
    summary_path = tmp_path / "s.json"
    code, _, err = run_cli(["scan", "--p-lo", "100000000000000013", "--p-hi",
                            "100000000000000200", "--summary", str(summary_path)], capsys)
    assert code == 0, err
    summary = json.loads(summary_path.read_text())
    assert summary["records"] > 0 and summary["violations"] == 0


def test_scan_no_bound_check_needs_no_constant(capsys, tmp_path):
    summary_path = tmp_path / "s.json"
    code, _, err = run_cli(
        ["scan", "--p-lo", "1e7", "--p-hi", "1.0001e7", "--n-max", "3",
         "--no-bound-check", "--summary", str(summary_path)],
        capsys,
    )
    assert code == 0, err
    summary = json.loads(summary_path.read_text())
    jsonschema.validate(summary, load_schema("scan_summary"))
    assert summary["c"] is None and summary["records"] > 0


def test_scan_refuses_overflowing_power_before_any_record(capsys, tmp_path):
    # n_max=600 overflows (log p_hi)^((n_max+1)/2): refused when the task is
    # built, so no record file is opened
    out = tmp_path / "r.jsonl"
    code, _, err = run_cli(
        ["scan", "--p-lo", "1e7", "--p-hi", "1.00001e7", "--n-max", "600",
         "--no-bound-check", "--out", str(out)],
        capsys,
    )
    assert code == 2 and "error:" in err and "overflows" in err
    assert "Traceback" not in err and not out.exists()


def test_scan_resume_without_records_exit_2(capsys, tmp_path):
    out, ck = tmp_path / "r.jsonl", tmp_path / "ck.json"
    args = ["scan", "--p-lo", "1e7", "--p-hi", "1.0005e7", "--c", "1.530",
            "--n0", "1", "--p0", "1e7", "--shard-width", "2000",
            "--out", str(out), "--summary", str(tmp_path / "s.json"),
            "--checkpoint", str(ck)]
    code, _, _ = run_cli(args + ["--stop-after-shards", "1"], capsys)
    assert code == 0
    out.unlink()
    code, _, err = run_cli(args, capsys)
    assert code == 2 and "refusing to resume" in err
    assert not out.exists()


def _drop(key):
    return lambda ck: ck.pop(key)


def _set(key, value, inside=None):
    return lambda ck: (ck[inside] if inside else ck).update({key: value})


def _set_per_n(key, value):
    return lambda ck: ck["aggregate"]["per_n"][0].update({key: value})


@pytest.mark.parametrize("edit", [
    _drop("next_shard"),  # was a KeyError traceback, exit 1
    _set("per_n", "per_n", inside="aggregate"),  # was an AttributeError
    _set("next_shard", 4), _set("next_shard", -1), _set("next_shard", "1"),
    _set("next_shard", True), _drop("byte_offset"), _set("byte_offset", "0"),
    _set("byte_offset", -1), _drop("aggregate"), _set("aggregate", []),
    _set("per_n", [1], inside="aggregate"),
    _set("per_n", [], inside="aggregate"),  # was a summary without per-n stats
    _set_per_n("n", 2),  # was a summary whose n = 1 stats counted q_2
    _set_per_n("max_q", "x"),  # was a TypeError traceback in _beats, exit 1
    _set_per_n("count", "3"), _set_per_n("max_ratio_witness", [1]),
    _set("violations", True, inside="aggregate"),
], ids=["no-next_shard", "string-per_n", "next_shard-past-total", "negative-next_shard",
        "string-next_shard", "bool-next_shard", "no-byte_offset", "string-byte_offset",
        "negative-byte_offset", "no-aggregate", "list-aggregate", "per_n-of-ints",
        "empty-per_n", "per_n-for-n-2", "string-max_q", "string-count",
        "short-max_ratio_witness", "bool-violations"])
def test_scan_resume_refuses_malformed_checkpoint_exit_2(capsys, tmp_path, edit):
    out, ck = tmp_path / "r.jsonl", tmp_path / "ck.json"
    args = ["scan", "--p-lo", "1e7", "--p-hi", "1.0005e7", "--c", "1.530",
            "--n0", "1", "--p0", "1e7", "--shard-width", "2000",
            "--out", str(out), "--summary", str(tmp_path / "s.json"),
            "--checkpoint", str(ck)]
    code, _, _ = run_cli(args + ["--stop-after-shards", "1"], capsys)
    assert code == 0
    saved = json.loads(ck.read_text())
    assert saved["shards_total"] == 3
    edit(saved)
    ck.write_text(json.dumps(saved))
    records = out.read_bytes()
    code, _, err = run_cli(args, capsys)
    assert code == 2 and "refusing to resume" in err and "Traceback" not in err
    assert out.read_bytes() == records


@pytest.mark.parametrize("n_max", [1, 2], ids=["as-written-before", "stray"])
def test_scan_resume_ignores_an_aggregate_n_max(capsys, tmp_path, n_max):
    # checkpoints once held the aggregate's own copy of n_max, which the
    # summary took over the task's: the key is now ignored
    out, ck, whole = tmp_path / "r.jsonl", tmp_path / "ck.json", tmp_path / "w.jsonl"
    args = ["scan", "--p-lo", "1e7", "--p-hi", "1.0005e7", "--c", "1.530",
            "--n0", "1", "--p0", "1e7", "--shard-width", "2000"]
    resumed = [*args, "--out", str(out), "--summary", str(tmp_path / "s.json"),
               "--checkpoint", str(ck)]
    assert run_cli(resumed + ["--stop-after-shards", "1"], capsys)[0] == 0
    saved = json.loads(ck.read_text())
    saved["aggregate"]["n_max"] = n_max
    ck.write_text(json.dumps(saved))
    assert run_cli(resumed, capsys)[0] == 0
    uninterrupted = [*args, "--out", str(whole), "--summary", str(tmp_path / "w.json")]
    assert run_cli(uninterrupted, capsys)[0] == 0
    assert out.read_bytes() == whole.read_bytes()
    assert (tmp_path / "s.json").read_bytes() == (tmp_path / "w.json").read_bytes()


def test_scan_resume_refuses_unreadable_checkpoint_exit_2(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    for text in ("{", "[]"):
        ck.write_text(text)
        code, _, err = run_cli(
            ["scan", "--p-lo", "1e7", "--p-hi", "1.0005e7", "--c", "1.530",
             "--n0", "1", "--p0", "1e7", "--checkpoint", str(ck)], capsys)
        assert code == 2 and "refusing to resume" in err


def test_scan_bounds_parsed_exactly(capsys):
    assert cli._parse_exact_int(str(2**53 + 1)) == 2**53 + 1
    assert cli._parse_exact_int("1.0001e7") == 10001000
    # as floats both bounds round to 2^53, and the reversed range would scan
    code, _, err = run_cli(
        ["scan", "--p-lo", str(2**53 + 1), "--p-hi", str(2**53), "--no-bound-check"],
        capsys,
    )
    assert code == 2 and str(2**53 + 1) in err
    for bad in ("10000000.5", "1e-3", "nan", "inf", "ten", "1e999999999", str(2**63)):
        code, _, err = run_cli(
            ["scan", "--p-lo", "1e7", "--p-hi", bad, "--no-bound-check"], capsys
        )
        assert code == 2 and "error:" in err


# -- scan values that were once answered silently: refused before any scan ----

SCAN_ARGS = ["scan", "--p-lo", "1e7", "--p-hi", "1.0001e7", "--no-bound-check"]


@pytest.fixture
def no_scan(monkeypatch):
    monkeypatch.setattr(cli.sc, "run_scan", lambda *a, **k: pytest.fail("ran a scan"))


@pytest.mark.parametrize("extra", [
    ["--orders", "set:1"],  # scanned no order, exit 0
    ["--orders", "set:0,-4"],
    ["--workers", "-3"],  # ran serially
    ["--stop-after-shards", "0"],  # processed one shard
    ["--stop-after-shards", "-2"],
    ["--cap", "-5"],  # reported cap exhaustion, exit 3
], ids=" ".join)
def test_scan_bad_value_exits_2(extra, no_scan):
    assert_refused([*SCAN_ARGS, *extra])


@settings(deadline=None, max_examples=40)
@given(st.one_of(
    st.tuples(st.sampled_from(["--workers", "--stop-after-shards", "--cap"]),
              st.integers(-(10**6), 0).map(str)),
    st.tuples(st.just("--orders"), with_one_bad(
        st.integers(2, 60).map(str), st.integers(-(10**6), 1).map(str)).map("set:".__add__)),
))
def test_scan_value_below_its_minimum_exits_2(case):
    opt, value = case
    code, err = main_in_process([*SCAN_ARGS, opt, value])
    assert code == 2 and "Traceback" not in err and "error" in err, (case, err)


@pytest.mark.parametrize("value", ["abc", "1.5", "", "0", "-2"])
def test_nonres_workers_is_read_only_by_scan(value, monkeypatch, capsys, no_scan):
    monkeypatch.setenv("NONRES_WORKERS", value)
    code, out, _ = run_cli(["table", "--n0", "1", "--p0", "1e7"], capsys)
    assert code == 0 and "1.530" in out
    code, _, err = run_cli(SCAN_ARGS, capsys)
    assert code == 2 and "error: NONRES_WORKERS" in err


class _Ran(Exception):
    pass


def test_scan_workers_from_flag_then_environment(monkeypatch):
    seen = []

    def run_scan(task, **kw):
        seen.append(kw["workers"])
        raise _Ran

    monkeypatch.setattr(cli.sc, "run_scan", run_scan)
    monkeypatch.delenv("NONRES_WORKERS", raising=False)
    for env, argv in ((None, []), ("3", []), ("abc", ["--workers", "2"])):
        if env is not None:
            monkeypatch.setenv("NONRES_WORKERS", env)
        with pytest.raises(_Ran):
            cli.main([*SCAN_ARGS, *argv])
    assert seen == [1, 3, 2]


def run_module(*args):
    """`python -m nonresidues.cli` in a child process that imports the
    package under test, whether or not PYTHONPATH names it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "nonresidues.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


def test_unknown_flag_rejected():
    proc = run_module("table", "--frobnicate")
    assert proc.returncode == 2


def test_console_entry_point():
    proc = run_module("nonresidues", "--p", "7", "--d", "2", "--n", "3")
    assert proc.returncode == 0
    assert proc.stdout.split() == ["3", "5", "13"]
