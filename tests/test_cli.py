"""Command-line interface: subcommands, reports, exit codes."""

import contextlib
import dataclasses
import io
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import EXAMPLE_GENERATORS, SEGRE_GENERATORS
from helpers import bench_jobs, spy_peel, spy_vanishes_at, with_transition
from tensurf import cli, oracle
from tensurf.bipoly import (DEFAULT_PRIME, FieldConfig, parse_poly,
                            poly_to_str)
from tensurf.cli import main
from tensurf.syzygy import SurfaceInput

P = DEFAULT_PRIME
GOLDEN = Path(__file__).parent / "golden"
# A generated odd-a (3, 2) surface: d = 1, one strand block of size 12.
GENERIC_JOB = str(GOLDEN / "generic_3x2_job.json")


@pytest.fixture()
def example_job(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(
        {"a": 2, "b": 5, "generators": EXAMPLE_GENERATORS}))
    return str(path)


@pytest.fixture()
def basepoint_job(tmp_path):
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(
        {"a": 2, "b": 2,
         "generators": ["s^2*u^2", "s*t*u^2", "t^2*u^2",
                        "s^2*u*v + t^2*u*v"]}))
    return str(path)


@pytest.fixture()
def undetermined_job(tmp_path):
    gens = []
    for B, C in zip(["u^2", "u*v", "v^2", "u^2 + u*v"],
                    ["s^2", "s*t", "t^2", "t^2 + s*t"]):
        f = (parse_poly(B, P) * parse_poly("s^2 - 3*t^2", P)
             + parse_poly(C, P) * parse_poly("u^2 - 3*v^2", P))
        gens.append(poly_to_str(f))
    path = tmp_path / "und.json"
    path.write_text(json.dumps({"a": 2, "b": 2, "generators": gens}))
    return str(path)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_text(example_job, capsys):
    assert main(["analyze", example_job]) == 0
    out = capsys.readouterr().out
    assert "a = 2, b = 5, prime = 2147483647" in out
    assert "n = 3, dim V = 4, case dim4" in out
    assert "column degrees: 1, 1, 1" in out
    assert "strand size = 20" in out


def test_analyze_json(example_job, capsys):
    assert main(["analyze", example_job, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3
    assert payload["kernel_dim"] == 1
    assert payload["dim_v"] == 4
    assert payload["case"] == "dim4"
    assert payload["mus"] == [1, 1, 1]
    assert payload["strand_size"] == 20
    assert [s["label"] for s in payload["syzygies"]] == ["S", "S1", "S2", "S3"]
    assert [s["columns"] for s in payload["syzygies"]] == [8, 4, 4, 4]


def test_analyze_exits_3_when_a_construction_identity_fails(
        example_job, capsys, monkeypatch):
    monkeypatch.setattr("tensurf.membership.bihomog_coprime",
                        lambda f, g: False)
    assert main(["analyze", example_job]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("certificate failure: dim4 verification failed: "
                            "alpha12_coprime\n")


def test_analyze_exits_2_on_a_basepoint_that_fails_a_case_check(
        tmp_path, capsys):
    # a common zero at ((0:1), (1:0)): the dim-3 construction's alphas
    # share a factor, which only a basepoint allows
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(
        {"a": 2, "b": 3,
         "generators": ["s^2*u^3+t^2*v^3", "s*t*u^2*v", "s^2*u*v^2",
                        "t^2*v^3+s*t*u^3"]}))
    assert main(["implicitize", str(path), "--json"]) == 2
    reason = capsys.readouterr().err
    assert reason.startswith("hypothesis violation: basepoint: ")
    assert main(["analyze", str(path), "--json"]) == 2
    assert capsys.readouterr() == ("", reason)


# ---------------------------------------------------------------------------
# implicitize


def test_implicitize_json_frozen(example_job, capsys):
    assert main(["implicitize", example_job, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["deg_f"] == 10
    assert payload["deg_phi"] == 2
    assert payload["c"] == P - 1
    assert payload["strand_size"] == 20
    assert payload["column_counts"] == {"S": 8, "S1": 4, "S2": 4, "S3": 4}
    assert payload["basepoints"]["status"] == "free"
    assert payload["certificate"]["passed"] is True
    assert payload["oracle"]["kernel_dims"][-1] == [10, 1]
    assert len(payload["f_coefficients"]) == 143
    assert payload["f"].startswith("x0^9*x3")


def test_implicitize_stdout_is_deterministic(example_job, capsys):
    assert main(["implicitize", example_job, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["implicitize", example_job, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_implicitize_text(example_job, capsys):
    assert main(["implicitize", example_job]) == 0
    out = capsys.readouterr().out
    assert "deg F = 10, deg phi = 2, c = 2147483646" in out
    assert "strand: 20 x 20 (columns: S=8, S1=4, S2=4, S3=4)" in out
    assert ("certificate: det = c * F^2 verified at 40 random points "
            "(mode interpolate)") in out
    assert "basepoints: free" in out


def test_implicitize_timings_go_to_stderr(example_job, capsys):
    assert main(["implicitize", example_job, "--json"]) == 0
    captured = capsys.readouterr()
    assert "[time]" not in captured.out
    assert "[time] oracle:" in captured.err
    assert "[certificate] blocks 10+10\n" in captured.err
    assert "[certificate]" not in captured.out
    # the kernel dimensions are in the report, and only there
    assert json.loads(captured.out)["oracle"]["kernel_dims"][-1] == [10, 1]
    assert main(["implicitize", example_job, "--oracle"]) == 1


@pytest.mark.parametrize("fault", ["zero row", "changed entry",
                                   "wrong transform"])
def test_implicitize_exits_3_when_the_certificate_fails(
        fault, example_job, capsys, monkeypatch):
    build = oracle.build_strand

    def broken_strand(case):
        if fault == "wrong transform":  # built in the wrong coordinates
            return build(with_transition(
                case, np.triu(np.arange(1, 17).reshape(4, 4))))
        strand = build(case)
        tensor = strand.tensor % P
        if fault == "zero row":        # det = 0
            tensor[3] = 0
        else:                          # one block no longer c_i F
            r, c, k = np.argwhere((tensor != 0) & (tensor != P - 1))[-1]
            tensor[r, c, k] += 1
        return dataclasses.replace(strand, tensor=tensor)

    monkeypatch.setattr(oracle, "build_strand", broken_strand)
    assert main(["implicitize", example_job]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "certificate failure" in captured.err


def test_implicitize_exits_3_when_a_single_block_strand_changes(
        capsys, monkeypatch):
    # d = 1: F is read off the strand's one block, so a changed entry
    # reaches the oracle.  The row identity rejects the block, the peel
    # finds the true F and the certificate fails
    build = oracle.build_strand

    def changed_entry(case):
        strand = build(case)
        tensor = strand.tensor % P
        r, c, k = np.argwhere((tensor != 0) & (tensor != P - 1))[-1]
        tensor[r, c, k] += 1
        return dataclasses.replace(strand, tensor=tensor)

    monkeypatch.setattr(oracle, "build_strand", changed_entry)
    peels = spy_peel(monkeypatch)
    assert main(["implicitize", GENERIC_JOB]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "certificate failure: block 0" in captured.err
    assert peels == [12]


@pytest.mark.parametrize("workload", ["generic-d1", "exact-d2"])
def test_bench_jobs_peel_no_level_beyond_0(workload, tmp_path, capsys,
                                           monkeypatch):
    # F is read off a strand block and proved by the strand's row identity:
    # no product grid is evaluated
    peels = spy_peel(monkeypatch)
    grid_proofs = spy_vanishes_at(monkeypatch)
    jobs = bench_jobs(workload, tmp_path)
    for job in jobs:
        assert main(["implicitize", str(job.path), "--json",
                     "--seed", "1"]) == 0
    assert len(jobs) == 4
    assert peels == [] and grid_proofs == []


def test_basepoint_screen_of_the_bench_jobs_is_golden(tmp_path):
    # the golden file was made with one resultant call per generator pair
    want = json.loads((GOLDEN / "screen_basepoints.json").read_text())
    got = {}
    for workload in ("generic-d1", "exact-d2", "screen"):
        for job in bench_jobs(workload, tmp_path / workload):
            data = job.load()
            report = oracle.basepoint_check(SurfaceInput.from_strings(
                data["a"], data["b"], data["generators"],
                FieldConfig(data["prime"])))
            got[f"{workload}/{job.name}"] = {
                "status": report.status, "detail": report.detail,
                "g_uv": poly_to_str(report.g_uv),
                "g_st": poly_to_str(report.g_st)}
    assert len(got) == 16
    assert got == want


def test_implicitize_side_st_rejected_for_asymmetric_input(example_job,
                                                           capsys):
    assert main(["implicitize", example_job, "--side", "st"]) == 2
    assert "hypothesis violation" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_text(example_job, capsys):
    assert main(["verify", example_job]) == 0
    out = capsys.readouterr().out
    assert "deg F = 10, deg phi = 2, c = 2147483646" in out
    assert "PASS det = c * F^2 at 40 random points (mode interpolate)" in out


def test_verify_json_omits_coefficients(example_job, capsys):
    assert main(["verify", example_job, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "f_coefficients" not in payload
    assert payload["deg_f"] == 10


def test_verify_interpolate_mode(example_job, capsys):
    assert main(["verify", example_job, "--det-mode", "interpolate",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["mode"] == "interpolate"


def test_implicitize_interpolate_text_is_golden(example_job, capsys):
    assert main(["implicitize", example_job, "--det-mode",
                 "interpolate"]) == 0
    want = (GOLDEN / "implicitize_worked_interpolate.txt").read_text()
    assert capsys.readouterr().out == want


def test_implicitize_generic_d1_json_is_golden(capsys):
    # F is read off the strand's one block; the golden output was made
    # with F peeled off plane sections
    assert main(["implicitize", GENERIC_JOB, "--json"]) == 0
    want = (GOLDEN / "implicitize_generic_3x2.json").read_text()
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv, name", [
    (["implicitize", "--json"], "implicitize_worked.json"),
    (["verify", "--json"], "verify_worked.json"),
    (["analyze", "--json"], "analyze_worked.json"),
], ids=lambda x: x if isinstance(x, str) else x[0])
def test_json_reports_of_the_worked_job_are_golden(argv, name, example_job,
                                                   capsys):
    # the golden files were made with json.dump streaming the report
    assert main([argv[0], example_job, *argv[1:]]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_selftest_json_is_golden(capsys):
    assert main(["selftest", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "selftest.json").read_text()


_JSON_SCALARS = (st.none() | st.booleans()
                 | st.integers(-2**70, 2**70) | st.sampled_from([2**63, -1])
                 | st.text(st.characters(codec="utf-8"), max_size=8)
                 | st.sampled_from(['"', "\\", '\\"\n', "\x00\x1f", "é€😀",
                                    '\n  "f_coefficients": []']))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12)
_ROWS = st.lists(st.fixed_dictionaries({
    "exponents": st.lists(st.integers(-2**64, 2**64), min_size=4,
                          max_size=4),
    "coeff": st.integers(-2**70, 2**70)}), max_size=30)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(payload=st.dictionaries(st.text(max_size=20), _JSON_VALUES,
                               max_size=6),
       rows=st.one_of(st.none(), _ROWS, st.sampled_from([[], "absent"])))
@example(payload={"a": {"f_coefficients": []},
                  "z": ['\n  "f_coefficients": []']},
         rows=[{"exponents": [0, 0, 0, 0], "coeff": -(2**64) - 1}])
@example(payload={}, rows="absent")
def test_print_json_writes_json_dumps(payload, rows):
    # 0, 1 and many f_coefficients rows beside any other JSON data, keys
    # that sort before and after it and nested keys of the same name
    if rows != "absent":
        payload["f_coefficients"] = rows
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_json(payload)
    assert out.getvalue() == json.dumps(payload, sort_keys=True,
                                        indent=2) + "\n"


class _WriteSpy(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_a_json_report_is_one_write(example_job, monkeypatch):
    # a streaming json.dump writes every token on its own
    for argv in (["implicitize", example_job, "--json"],
                 ["implicitize", GENERIC_JOB, "--json"],
                 ["verify", example_job, "--json"],
                 ["analyze", example_job, "--json"],
                 ["selftest", "--json"]):
        spy = _WriteSpy()
        monkeypatch.setattr(sys, "stdout", spy)
        assert main(argv) == 0
        assert spy.writes == 1
        json.loads(spy.getvalue())


def test_implicitize_default_text_is_golden(example_job, capsys):
    # the exact certificate is the default, so --det-mode changes nothing
    assert main(["implicitize", example_job]) == 0
    want = (GOLDEN / "implicitize_worked_interpolate.txt").read_text()
    assert capsys.readouterr().out == want


def test_interpolate_certifies_strands_of_any_size(tmp_path, capsys):
    # strand size 28
    path = tmp_path / "a2b7.json"
    assert main(["generate", "--a", "2", "--b", "7", "--n", "4",
                 "--dimv", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--det-mode", "interpolate"]) == 0
    out = capsys.readouterr().out
    assert "deg F = 14, deg phi = 2" in out
    assert "PASS det = c * F^2 at 40 random points (mode interpolate)" in out


def test_interpolation_cap_flag_is_gone(example_job, capsys):
    assert main(["verify", example_job, "--interpolation-cap", "30"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--points", "12"],
                                   ["--oracle-scan", "divisors"],
                                   ["--det-mode", "eval"],
                                   ["--force"]], ids=" ".join)
def test_retired_flags_are_usage_errors(flags, example_job, capsys):
    for command in ("implicitize", "verify"):
        assert main([command, example_job, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


def test_job_options_supply_defaults(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(
        {"a": 1, "b": 1, "generators": SEGRE_GENERATORS,
         "options": {"side": "st"}}))
    assert main(["verify", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["side"] == "st"
    # command-line flags override file options
    assert main(["verify", str(path), "--side", "uv", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["side"] == "uv"


def test_retired_option_keys_are_ignored(tmp_path, capsys):
    outputs = []
    for options in ({}, {"det_mode": "eval", "n_points": 12,
                         "scan": "divisors"}):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(
            {"a": 2, "b": 5, "generators": EXAMPLE_GENERATORS,
             "options": options}))
        for extra in ([], ["--json"]):
            assert main(["implicitize", str(path), *extra]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    assert json.loads(outputs[1])["oracle"]["scan"] == "full"


# ---------------------------------------------------------------------------
# generate


def test_generate_then_implicitize(tmp_path, capsys):
    out_path = tmp_path / "generated.json"
    assert main(["generate", "--a", "2", "--b", "3", "--n", "2",
                 "--dimv", "2", "--out", str(out_path)]) == 0
    capsys.readouterr()
    job = json.loads(out_path.read_text())
    assert job["a"] == 2 and job["b"] == 3
    assert len(job["generators"]) == 4
    assert main(["implicitize", str(out_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_v"] == 2
    assert payload["deg_phi"] * payload["deg_f"] == 12


def test_generate_is_deterministic(tmp_path, capsys):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["generate", "--a", "2", "--b", "5", "--n", "3",
            "--dimv", "3", "--mu", "1", "--seed", "4", "--index", "9"]
    assert main(argv + ["--out", str(a_path)]) == 0
    assert main(argv + ["--out", str(b_path)]) == 0
    assert a_path.read_text() == b_path.read_text()


# ---------------------------------------------------------------------------
# exit codes and error handling


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1       # unknown subcommand
    assert main([]) == 1                   # missing subcommand
    assert main(["analyze"]) == 1          # missing job argument
    assert "error:" in capsys.readouterr().err


def test_the_parser_is_built_once_per_process(example_job, capsys,
                                             monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "tensurf":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli._build_parser.cache_clear()
    assert main(["analyze", example_job]) == 0
    assert main(["analyze", example_job, "--json"]) == 0
    assert len(built) == 1 and cli._build_parser() is built[0]
    capsys.readouterr()
    # a usage error on the shared parser still exits 1 with its usage line
    assert main(["analyze"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: tensurf analyze ")
    assert "error: the following arguments are required: job" in captured.err
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("usage: tensurf ")
    assert len(built) == 1


def test_missing_job_file_returns_1(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_job_returns_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"a\": 2}")
    assert main(["analyze", str(path)]) == 1
    path.write_text("not json at all")
    assert main(["analyze", str(path)]) == 1


@pytest.mark.parametrize("key, value", [
    ("a", 1.9), ("b", True), ("prime", 65521.7), ("prime", "65521"),
    ("a", 2.0), ("prime", None)])
def test_non_integer_job_parameters_exit_1(key, value, tmp_path, capsys):
    job = {"a": 1, "b": 1, "prime": 65521,
           "generators": ["s*u", "s*v", "t*u", "t*v"], key: value}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    for command in ("analyze", "implicitize", "verify"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {key!r} must be an integer, "
                                f"not {value!r}\n")


@pytest.mark.parametrize("options", [[], 0, False, "", [1], None],
                         ids=repr)
def test_non_object_options_exit_1(options, tmp_path, capsys):
    # a falsy non-object is not "no options"; only null means absent
    path = tmp_path / "job.json"
    path.write_text(json.dumps(
        {"a": 1, "b": 1, "prime": 65521,
         "generators": ["s*u", "s*v", "t*u", "t*v"], "options": options}))
    for command in ("analyze", "implicitize", "verify"):
        captured = main([command, str(path)]), capsys.readouterr()
        if options is None:
            assert captured[0] == 0
        else:
            assert captured[0] == 1
            assert captured[1].out == ""
            assert captured[1].err == "error: 'options' must be an object\n"


def test_malformed_expression_exits_1_with_its_position(tmp_path, capsys):
    # '²' is a digit to str.isdigit but no decimal digit, so no integer
    path = tmp_path / "job.json"
    path.write_text(json.dumps(
        {"a": 1, "b": 1, "prime": 65521,
         "generators": ["s^²", "s*v", "t*u", "t*v"]}))
    for command in ("analyze", "implicitize", "verify"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected an integer at position 2\n"

def test_a_power_above_the_bidegree_exits_1_before_it_expands(tmp_path,
                                                               capsys):
    # expanded, (s+t+u+v)^80 would take minutes; the job's total degree
    # a + b = 3 bounds every power before it is expanded
    path = tmp_path / "job.json"
    path.write_text(json.dumps(
        {"a": 1, "b": 2, "prime": 65521,
         "generators": ["(s+t+u+v)^80", "s*v^2", "t*u^2", "t*v^2"]}))
    for command in ("analyze", "implicitize", "verify"):
        start = time.perf_counter()
        assert main([command, str(path)]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: a power of total degree 80 exceeds 3 "
                                "at position 10\n")


def test_a_product_above_the_bidegree_exits_1_before_it_expands(tmp_path,
                                                                 capsys):
    # multiplied out, the product would be 9,139 terms of degree 36; the
    # job's a + b = 12 refuses it before it multiplies
    path = tmp_path / "job.json"
    path.write_text(json.dumps(
        {"a": 6, "b": 6, "prime": 65521,
         "generators": ["(s+t+u+v)^12*(s+t+u+v)^12*(s+t+u+v)^12",
                        "s^6*v^6", "t^6*u^6", "t^6*v^6"]}))
    for command in ("analyze", "implicitize", "verify"):
        start = time.perf_counter()
        assert main([command, str(path)]) == 1
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: a product of total degree 36 exceeds "
                                "12 at position 0\n")


_FLOOR_37 = ("error: prime {p} is below the floor 37 = 2ab*max(a, b) + 1 "
             "for bidegree (2, 3)\n")


def test_prime_below_floor_exits_1(tmp_path, capsys):
    # (2, 3) needs p >= 2ab*max(a, b) + 1 = 37: the oracle draws that many
    # distinct grid nodes from F_p
    path = tmp_path / "small.json"
    path.write_text(json.dumps(
        {"a": 2, "b": 3, "prime": 31,
         "generators": ["s^2*u^3", "s*t*u^2*v", "t^2*u*v^2",
                        "s^2*v^3 + t^2*u^3"]}))
    for command in (["implicitize"], ["verify", "--det-mode", "interpolate"]):
        assert main(command + [str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == _FLOOR_37.format(p=31)


@pytest.mark.parametrize("prime", [11, 31])
def test_generate_refuses_primes_below_the_floor(prime, tmp_path, capsys):
    argv = ["generate", "--a", "2", "--b", "3", "--n", "2", "--dimv", "2",
            "--prime", str(prime)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _FLOOR_37.format(p=prime)
    path = tmp_path / "job.json"
    assert main(argv + ["--out", str(path)]) == 1
    assert not path.exists()


def test_basepoint_job_exits_2(basepoint_job, capsys):
    assert main(["implicitize", basepoint_job]) == 2
    err = capsys.readouterr().err
    assert "hypothesis violation" in err
    assert "basepoint" in err


def test_undetermined_screen_requires_force(undetermined_job, capsys):
    # the basepoints of this job lie over F_p(sqrt 3); the screen proves
    # they exist, so the run stops there and --force no longer parses
    assert main(["implicitize", undetermined_job]) == 2
    err = capsys.readouterr().err
    assert "hypothesis violation: basepoint:" in err
    assert "do not span bidegree (5, 3)" in err


def test_internal_key_errors_are_not_input_errors(example_job, capsys,
                                                  monkeypatch):
    # only documented input errors exit 1; a KeyError inside a stage is a
    # fault of the program and propagates with its traceback
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("tensurf.cli.implicitize", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["implicitize", example_job])
    assert "error:" not in capsys.readouterr().err


def test_job_from_stdin(example_job, capsys, monkeypatch):
    import io
    payload = open(example_job).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(["analyze", "-", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
