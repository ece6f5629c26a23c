"""Command-line interface: subcommands, reports, exit codes."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import EXAMPLE_GENERATORS, SEGRE_GENERATORS
from tensurf import oracle
from tensurf.bipoly import DEFAULT_PRIME, parse_poly, poly_to_str
from tensurf.cli import main

P = DEFAULT_PRIME
GOLDEN = Path(__file__).parent / "golden"


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
    assert main(["implicitize", example_job, "--json", "--oracle"]) == 0
    captured = capsys.readouterr()
    assert "[time]" not in captured.out
    assert "[time] oracle:" in captured.err
    assert "[oracle] degree 10: kernel dimension 1" in captured.err
    assert "[certificate] blocks 10+10, 572 lattice points" in captured.err
    assert "[certificate]" not in captured.out


@pytest.mark.parametrize("fault", ["zero row", "changed entry",
                                   "wrong transform"])
def test_implicitize_exits_3_when_the_certificate_fails(
        fault, example_job, capsys, monkeypatch):
    build, verify = oracle.build_strand, oracle.verify_implicitization

    def broken_strand(case):
        strand = build(case)
        tensor = strand.tensor % P
        if fault == "zero row":        # det = 0
            tensor[3] = 0
        elif fault == "changed entry":  # one block no longer c_i F
            r, c, k = np.argwhere((tensor != 0) & (tensor != P - 1))[-1]
            tensor[r, c, k] += 1
        return dataclasses.replace(strand, tensor=tensor)

    def wrong_transform(strand, orc, transform, field):
        if fault == "wrong transform":
            transform = np.triu(np.arange(1, 17).reshape(4, 4))
        return verify(strand, orc, transform, field)

    monkeypatch.setattr(oracle, "build_strand", broken_strand)
    monkeypatch.setattr(oracle, "verify_implicitization", wrong_transform)
    assert main(["implicitize", example_job]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "certificate failure" in captured.err


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
