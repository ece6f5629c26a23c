"""Benchmark for tensurf: end-to-end job times and per-layer self times.

Run from the root of a checkout:

    python3 perfbench/run.py --workload generic-d1 --seed 1 --seconds 30 --trace 0

Each run is one process.  It writes the workload's job files for the seed,
times set-up in fresh child interpreters, runs one untimed warm-up job, then
repeats passes over the job set for about ``--seconds`` seconds, checking
every output.  Times are reported at nominal host speed (see REF_LOOP_S).
The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics.  Job files, the run record (with
machine info and the job-set digest) and the span tree go to
``.perfbench/<workload>-seed<seed>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as jobs_mod
import spans as spans_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_PROBES = 11
JOB_BUDGET_S = 15.0

# The speed of a shared host drifts by up to +-25% in phases of seconds to
# minutes, alike for Python and numpy code; that drift swamps any bound a
# benchmark could usefully set.  So a fixed reference loop outside tensurf
# runs before and after each measured job, and every time is reported at
# nominal host speed: raw time * REF_LOOP_S / mean reference loop time.
# REF_LOOP_S is the loop's median on a 2-vCPU x86-64 host (Python 3.11,
# numpy 2.4).  Raw times are kept in result.json.
REF_LOOP_S = 0.0048

# Times one set-up in a fresh interpreter, then the reference loop in the
# same busy process.  Arguments: src directory, this directory, job files.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
import tensurf
from tensurf.bipoly import FieldConfig
from tensurf.syzygy import SurfaceInput
for path in sys.argv[3:]:
    with open(path, encoding="utf-8") as fh:
        job = json.load(fh)
    SurfaceInput.from_strings(job["a"], job["b"], job["generators"],
                              FieldConfig(job["prime"]))
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import statistics
from run import ReferenceLoop
ref = ReferenceLoop()
print(setup, statistics.median(ref.time() for _ in range(5)))
"""

END_TO_END = ("setup_s", "wall_s", "job_max_s", "peak_rss_mb")
PER_LAYER = (tuple(f"{name}.s" for name in spans_mod.STAGES)
             + tuple(f"{name}.{kind}" for name in spans_mod.KERNELS
                     for kind in ("s", "calls"))
             + ("linalg.batch_det.dets", "oracle.degrees_scanned",
                "oracle.useful_frac", "oracle.final_cells", "fail_frac",
                "trace.wall_s", "trace_overhead_frac"))


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded its {JOB_BUDGET_S:.0f} s budget")


def machine_info() -> dict:
    import ctypes
    import glob

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "machine": platform.machine()}


class ReferenceLoop:
    """Fixed mod-p work in pure Python and in int64 numpy, like tensurf's.

    Arrays stay small, so the time does not depend on the allocator state
    that earlier work left behind."""

    def __init__(self) -> None:
        import numpy

        self.matrix = numpy.random.default_rng(0).integers(
            0, jobs_mod.P, size=(64, 64), dtype=numpy.int64)

    def time(self) -> float:
        start = time.perf_counter()
        acc, p = 1, jobs_mod.P
        for i in range(10_000):
            acc = (acc * 48271 + i) % p
        m = self.matrix.copy()
        for _ in range(3):
            for r in range(63):
                m[r + 1:] = (m[r + 1:] - m[r + 1:, r, None] * m[r]) % p
        return time.perf_counter() - start

    def around(self, fn):
        """Run fn between two reference loops; return its result and the
        factor that takes times measured meanwhile to nominal host speed."""
        before = self.time()
        result = fn()
        return result, 2 * REF_LOOP_S / (before + self.time())


def measure_setup(job_paths: list[Path]) -> list[tuple[float, float]]:
    """(raw, nominal) times of importing tensurf and parsing every job file,
    each sample in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE),
             *map(str, job_paths)],
            capture_output=True, text=True, timeout=120, check=True)
        raw, ref = map(float, out.stdout.split())
        samples.append((raw, raw * REF_LOOP_S / ref))
    return samples


# ---------------------------------------------------------------------------
# one job: run it timed (inside a job span when tracing), then check it


def _run_cli(job, seed: int, extra: list[str]):
    import tensurf.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["implicitize", str(job.path), "--json",
                         "--seed", str(seed), *extra])
    return code, out.getvalue(), err.getvalue()


def _check_cli(job, outcome, rng) -> list[str]:
    code, out, err = outcome
    if code != 0:
        last = err.strip().splitlines()[-1:] or [""]
        return [f"exit code {code}: {last[0]}"]
    return jobs_mod.check_implicitize(job, json.loads(out), rng)


def _run_screen(job, inputs: dict):
    from tensurf import cases, oracle, strand, syzygy

    inp = inputs[job.name]
    report = oracle.basepoint_check(inp)
    va = syzygy.analyze(inp)
    case = cases.run_case(va, check_level="full")
    return report, va, case, strand.build_strand(case)


def make_runner(workload: str, seed: int, job_list: list):
    """Return (run, check): run(job) does the timed work, check judges it."""
    if workload == "screen":
        from tensurf.bipoly import FieldConfig
        from tensurf.syzygy import SurfaceInput

        inputs = {}
        for job in job_list:
            body = job.load()
            inputs[job.name] = SurfaceInput.from_strings(
                body["a"], body["b"], body["generators"],
                FieldConfig(body["prime"], seed=seed))
        return (lambda job: _run_screen(job, inputs),
                lambda job, res, rng: jobs_mod.check_screen(job, *res, rng))
    extra = ["--det-mode", "interpolate"] if workload == "exact-d2" else []
    return (lambda job: _run_cli(job, seed, extra), _check_cli)


class Session:
    """Runs jobs, counting every attempt and failure."""

    def __init__(self, run, check, seed: int) -> None:
        self.run, self.check = run, check
        self.rng = random.Random(f"perfbench-check:{seed}")
        self.attempted = self.failed = 0
        self.problems: list[dict] = []
        self.wrong = False
        signal.signal(signal.SIGALRM, _on_alarm)

    def job(self, job, tracer=None) -> float:
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.run(job)
            else:
                with tracer.span("job", "job", job.name):
                    result = self.run(job)
            elapsed = time.perf_counter() - start
        except JobTimeout as exc:
            return self._fail(job, [str(exc)], time.perf_counter() - start)
        except Exception as exc:  # a job that raises is a failed job
            self.wrong = True
            return self._fail(job, [f"raised {type(exc).__name__}: {exc}"],
                              time.perf_counter() - start)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        problems = self.check(job, result, self.rng)
        if problems:
            self.wrong = True
            return self._fail(job, problems, elapsed)
        return elapsed

    def _fail(self, job, problems: list[str], elapsed: float) -> float:
        self.failed += 1
        self.problems.append({"job": job.name, "problems": problems})
        return elapsed


# ---------------------------------------------------------------------------
# passes and metrics


def _pass_summary(times: list[dict]) -> tuple[float, float]:
    """wall_s and job_max_s: medians over passes of the pass's summed and
    slowest job time."""
    return (statistics.median(sum(t.values()) for t in times),
            statistics.median(max(t.values()) for t in times))


def _layer_metrics(tracer, speed: dict[str, float]) -> dict[str, float]:
    """Per-layer totals of one traced pass, times at nominal host speed."""
    out = {f"{name}.s": 0.0
           for name in (*spans_mod.STAGES, *spans_mod.KERNELS)}
    for (job, name), secs in spans_mod.self_times(tracer.spans).items():
        if f"{name}.s" in out:
            out[f"{name}.s"] += secs * speed[job]
    calls = {name: 0 for name in spans_mod.KERNELS}
    dets = degrees = cells = oracle_calls = 0
    for s in tracer.spans:
        if s["name"] in calls:
            calls[s["name"]] += 1
        dets += s["attrs"].get("dets", 0)
        if s["name"] == "oracle":
            oracle_calls += 1
            degrees += s["attrs"]["degrees_scanned"]
            cells += s["attrs"]["final_cells"]
    for name in spans_mod.KERNELS:
        out[f"{name}.calls"] = calls[name]
    out["linalg.batch_det.dets"] = dets
    out["oracle.degrees_scanned"] = degrees
    out["oracle.useful_frac"] = oracle_calls / degrees if degrees else 0.0
    out["oracle.final_cells"] = cells
    return out


def _run_pass(session: Session, job_list: list, ref: ReferenceLoop,
              tracer=None) -> tuple[dict, dict]:
    """One pass over the jobs; returns raw times and speed factors per job."""
    raw, speed = {}, {}
    for job in job_list:
        raw[job.name], speed[job.name] = ref.around(
            lambda: session.job(job, tracer))
    return raw, speed


def measure(session: Session, job_list: list, ref: ReferenceLoop,
            seconds: float, trace: bool):
    """Warm up, then run passes for about ``seconds``; return metrics, the
    raw and nominal pass times and the span trees of the traced passes."""
    session.job(job_list[0])
    passes = {"plain": [], "traced": []}
    layers, trees, durations = [], [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(passes["plain"]) > len(passes["traced"])
        t = time.perf_counter()
        if use_trace:
            tracer = spans_mod.Tracer()
            with tracer.patched():
                raw, speed = _run_pass(session, job_list, ref, tracer)
            layers.append(_layer_metrics(tracer, speed))
            trees.append(tracer.spans)
        else:
            raw, speed = _run_pass(session, job_list, ref)
        passes["traced" if use_trace else "plain"].append(
            {"speed": speed, "raw": raw,
             "nominal": {k: v * speed[k] for k, v in raw.items()}})
        durations.append(time.perf_counter() - t)
        done = passes["plain"] and (passes["traced"] or not trace)
        elapsed = time.perf_counter() - start
        if done and elapsed + statistics.median(durations) > seconds:
            break
    wall_s, job_max_s = _pass_summary([p["nominal"] for p in passes["plain"]])
    metrics = {"wall_s": (wall_s, "s"), "job_max_s": (job_max_s, "s")}
    if trace:
        for name in layers[0]:
            if name.endswith(".s"):
                value, unit = statistics.median(m[name] for m in layers), "s"
            else:  # counts repeat exactly from pass to pass
                value = statistics.median_low(m[name] for m in layers)
                unit = "frac" if name.endswith("_frac") else "count"
            metrics[name] = (value, unit)
        traced_wall, _ = _pass_summary(
            [p["nominal"] for p in passes["traced"]])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace_overhead_frac"] = (traced_wall / wall_s - 1.0, "frac")
    return metrics, passes, trees


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny job sets for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "tensurf" / "__init__.py").is_file():
        print(f"perfbench: no tensurf sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tensurf  # noqa: F401  (compiles bytecode before set-up is timed)

    workdir = (ROOT / ".perfbench"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    job_list = jobs_mod.make_jobs(args.workload, args.seed, args.size,
                                  workdir / "jobs")
    ref = ReferenceLoop()
    setup_samples = measure_setup([job.path for job in job_list])
    run, check = make_runner(args.workload, args.seed, job_list)
    session = Session(run, check, args.seed)
    metrics, passes, trees = measure(session, job_list, ref, args.seconds,
                                     bool(args.trace))
    metrics["setup_s"] = (statistics.median(s for _, s in setup_samples), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["fail_frac"] = (session.failed / session.attempted, "frac")

    names = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "jobs_digest": jobs_mod.digest(job_list),
        "jobs": [job.path.name for job in job_list],
        "machine": machine_info(),
        "attempted": session.attempted, "failed": session.failed,
        "problems": session.problems, "setup_samples": setup_samples,
        "passes": passes,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if trees:
        (workdir / "trace.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "jobs_digest": record["jobs_digest"],
             "passes": trees}) + "\n")
    for item in session.problems:
        print(f"FAILED {item['job']}: {'; '.join(item['problems'])}",
              file=sys.stderr)
    print(json.dumps({"jobs_digest": record["jobs_digest"],
                      "machine": record["machine"]}))
    print(json.dumps({
        "correct": not session.wrong,
        "attempted": session.attempted, "failed": session.failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
