"""Span tracing from outside the program, by wrapping its functions.

Each entry of ``TARGETS`` wraps one function where its caller looks it up,
so a name imported with ``from x import f`` is patched in the importing
module.  Spans form a tree through the innermost open span.  Self time is
computed per layer: a span's duration minus the time covered by its direct
children of the same layer.  So a stage's time includes the kernels it
calls (stage times partition a job), and a kernel's time excludes the
kernels nested in it (kernel times partition the kernel work).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import defaultdict


def _batch_det_counts(result) -> dict:
    return {"dets": len(result)}


def _oracle_counts(result) -> dict:
    nt, nv = result.grid_shape
    return {"degrees_scanned": len(result.kernel_dims),
            "final_cells": nt * nv * math.comb(result.degree + 3, 3)}


# (module, attribute, span name, layer, counts taken from the result)
TARGETS = [
    ("tensurf.cli", "basepoint_check", "basepoints", "stage", None),
    ("tensurf.oracle", "basepoint_check", "basepoints", "stage", None),
    ("tensurf.oracle", "analyze", "syzygy", "stage", None),
    ("tensurf.syzygy", "analyze", "syzygy", "stage", None),
    ("tensurf.oracle", "run_case", "cases", "stage", None),
    ("tensurf.cases", "run_case", "cases", "stage", None),
    ("tensurf.oracle", "build_strand", "strand", "stage", None),
    ("tensurf.strand", "build_strand", "strand", "stage", None),
    ("tensurf.oracle", "implicit_by_elimination", "oracle", "stage",
     _oracle_counts),
    ("tensurf.oracle", "verify_implicitization", "certificate", "stage", None),
    ("tensurf.linalg", "kernel_basis", "linalg.kernel_basis", "kernel", None),
    ("tensurf.linalg", "det_field", "linalg.det_field", "kernel", None),
    ("tensurf.linalg", "solve_particular", "linalg.solve_particular",
     "kernel", None),
    ("tensurf.linalg", "rank", "linalg.rank", "kernel", None),
    ("tensurf.linalg", "matmul_mod", "linalg.matmul_mod", "kernel", None),
    ("tensurf.linalg", "batch_det", "linalg.batch_det", "kernel",
     _batch_det_counts),
    ("tensurf.oracle", "resultant_uv", "membership.resultant_uv", "kernel",
     None),
    ("tensurf.membership", "resultant_uv", "membership.resultant_uv",
     "kernel", None),
    ("tensurf.membership", "two_gen_solve", "membership.two_gen_solve",
     "kernel", None),
    ("tensurf.membership", "psi_solve", "membership.psi_solve", "kernel",
     None),
    ("tensurf.hburch", "hilbert_burch_psi", "hburch.hilbert_burch_psi",
     "kernel", None),
    ("tensurf.oracle", "eval_matrix", "xpoly.eval_matrix", "kernel", None),
    ("tensurf.oracle", "divide_with_remainder", "xpoly.divide_with_remainder",
     "kernel", None),
    ("tensurf.oracle", "linear_substitute", "xpoly.linear_substitute",
     "kernel", None),
    ("tensurf.strand", "Strand.det_at_many", "strand.det_at_many", "kernel",
     None),
    ("tensurf.oracle", "reconstruct_det", "strand.reconstruct_det", "kernel",
     None),
]

STAGES = sorted({name for _, _, name, layer, _ in TARGETS if layer == "stage"})
KERNELS = sorted({name for _, _, name, layer, _ in TARGETS
                  if layer == "kernel"})


class Tracer:
    """Collects spans in memory; ``patched()`` routes the targets through it."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str, job: str, **attrs):
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._open[-1] if self._open else None,
                  "job": job, "start": time.perf_counter() - self.t0,
                  "end": None, "attrs": attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self.t0

    def _wrap(self, fn, name: str, layer: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = self.spans[self._open[0]]["job"] if self._open else None
            with self.span(name, layer, job) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record["attrs"].update(counts(result))
                return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for module, attr, name, layer, counts in TARGETS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, layer, counts))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def self_times(spans: list[dict]) -> dict[tuple[str, str], float]:
    """Self time per (job, span name), children of the same layer subtracted."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = s["parent"]
        if parent is not None and spans[parent]["layer"] == s["layer"]:
            covered[parent] += s["end"] - s["start"]
    out: dict[tuple[str, str], float] = defaultdict(float)
    for s in spans:
        out[s["job"], s["name"]] += s["end"] - s["start"] - covered[s["id"]]
    return out
