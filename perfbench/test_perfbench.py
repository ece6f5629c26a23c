"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import run
import spans

HERE = Path(__file__).resolve().parent


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=170,
                          cwd=cwd)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    names = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(names)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "screen", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_inputs_depend_only_on_the_seed(tmp_path):
    def digest(seed, where):
        return jobs.digest(jobs.make_jobs("screen", seed, "full",
                                          tmp_path / where))
    assert digest(7, "a") == digest(7, "b")
    assert digest(7, "a") != digest(8, "c")


def test_corrupted_coefficient_is_counted_as_failed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import tensurf.cli

    real_main = tensurf.cli.main

    def corrupting_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real_main(argv)
        payload = json.loads(buf.getvalue())
        if "dim3" in argv[1]:
            row = payload["f_coefficients"][0]
            row["coeff"] = (row["coeff"] + 1) % jobs.P
        print(json.dumps(payload))
        return code

    monkeypatch.setattr(tensurf.cli, "main", corrupting_main)
    job_list = jobs.make_jobs("generic-d1", 5, "tiny", tmp_path)
    session = run.Session(*run.make_runner("generic-d1", 5, job_list), seed=5)
    metrics, _, _ = run.measure(session, job_list, run.ReferenceLoop(), 0.1,
                                trace=False)
    assert session.wrong
    assert 1 <= session.failed < session.attempted
    assert {item["job"] for item in session.problems} == {job_list[1].name}
    assert all("does not vanish" in " ".join(item["problems"])
               for item in session.problems)
    assert metrics["wall_s"][0] > 0


def test_self_time_subtracts_children_of_the_same_layer():
    def span(i, name, layer, parent, start, end):
        return {"id": i, "name": name, "layer": layer, "parent": parent,
                "job": "0", "start": start, "end": end, "attrs": {}}

    tree = [span(0, "job", "job", None, 0.0, 10.0),
            span(1, "oracle", "stage", 0, 1.0, 9.0),
            span(2, "linalg.kernel_basis", "kernel", 1, 2.0, 8.0),
            span(3, "linalg.rank", "kernel", 2, 3.0, 4.0)]
    got = dict(spans.self_times(tree))
    assert got == pytest.approx({("0", "job"): 10.0, ("0", "oracle"): 8.0,
                                 ("0", "linalg.kernel_basis"): 5.0,
                                 ("0", "linalg.rank"): 1.0})
