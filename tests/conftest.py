"""Shared fixtures: the worked quintic surface and the generated corpus."""

import pytest

from planes_ref import implicit_by_elimination
from tensurf.bipoly import FieldConfig
from tensurf.cases import run_case
from tensurf.gen import GenSpec, generate
from tensurf.strand import build_strand
from tensurf.syzygy import SurfaceInput, analyze

EXAMPLE_GENERATORS = [
    "-t^2*u^4*v - s^2*v^5",
    "t^2*u^5 + s^2*u*v^4 - 2*t^2*v^5",
    "-s^2*u^4*v + 2*t^2*u*v^4 - t^2*v^5",
    "s^2*u^5 + t^2*u*v^4",
]

SEGRE_GENERATORS = ["s*u", "s*v", "t*u", "t*v"]

CORPUS_SPECS = [
    GenSpec("dim2", 2, 3, 2, None),
    GenSpec("dim2", 1, 1, 1, None),
    GenSpec("dim2", 2, 5, 3, None),
    GenSpec("dim3", 2, 5, 3, (1,)),
    GenSpec("dim4", 2, 5, 3, (1, 1)),
    GenSpec("dim2", 3, 2, 1, None),
    GenSpec("dim3", 1, 5, 3, (1,)),
]

CORPUS_SIZE_PER_SPEC = 20


@pytest.fixture(scope="session")
def field():
    return FieldConfig(seed=0)


@pytest.fixture(scope="session")
def example_input(field):
    return SurfaceInput.from_strings(2, 5, EXAMPLE_GENERATORS, field)


@pytest.fixture(scope="session")
def example_analysis(example_input):
    return analyze(example_input)


@pytest.fixture(scope="session")
def example_case(example_analysis):
    return run_case(example_analysis)


@pytest.fixture(scope="session")
def example_strand(example_case):
    return build_strand(example_case)


@pytest.fixture(scope="session")
def example_oracle(example_input):
    """The worked surface's F from the strandless reference oracle."""
    return implicit_by_elimination(example_input)


@pytest.fixture(scope="session")
def segre_input(field):
    return SurfaceInput.from_strings(1, 1, SEGRE_GENERATORS, field)


@pytest.fixture(scope="session")
def corpus():
    """140 generated instances: 20 per configuration, all fully checked."""
    out = []
    for spec in CORPUS_SPECS:
        for index in range(CORPUS_SIZE_PER_SPEC):
            out.append(generate(spec, index=index, seed=0))
    return out
