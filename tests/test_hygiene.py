"""Source hygiene: every name a module of the package imports is used,
every function, class and method is referenced from the package's own code,
every dataclass field is read by the package, the benchmark or the demos,
products of int64 arrays go through the exact modular product, one class
defines polynomial arithmetic, every cache is bounded, the documented flags
of ``implicitize``/``verify`` are the parser's, every function the
benchmark's tracer wraps still exists, each module imports first on its
own, bringing in only what it needs, and every cross-reference in a
docstring names something that exists."""

import argparse
import ast
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from tensurf.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tensurf"
FLAGS_HEADING = "### Flags of `implicitize` and `verify`"


def _imported(tree, lines):
    """(name, line) for each name bound by an import, minus ``noqa: F401``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            out.append((name, node.lineno))
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    """Names read anywhere, in string annotations, or listed in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr)
                            if isinstance(n, ast.Name))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    used = _used(tree)
    unused = [f"{name} (line {line})"
              for name, line in _imported(tree, text.splitlines())
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


# Definitions that no code under src/ calls, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "strand.reconstruct_det":
        "Strand.det_cube as an XPoly; its det_at spot check keeps "
        "Strand.det_at and linalg.det_field in use.  perfbench/spans.py "
        "wraps it in oracle's namespace and gate 2 calls it; it moves to a "
        "test-side reference with the benchmark change",
    "xpoly.divide_with_remainder":
        "perfbench/spans.py wraps it in oracle's namespace and gate 2 calls "
        "it; it moves to a test-side reference with the benchmark change",
    "xpoly.linear_substitute":
        "perfbench/spans.py wraps it in oracle's namespace and gate 2 calls "
        "it; it moves to a test-side reference with the benchmark change",
    "cli._Parser.error": "argparse calls it on a usage error",
}


def _definitions(node, prefix):
    """(qualified name, node) for every function, class and method below."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from _definitions(child, name)
        else:
            yield from _definitions(child, prefix)


def _references(tree) -> Counter:
    """How often each name is read, bare, as an attribute or in a string
    annotation."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                refs.update(n.id for n in ast.walk(expr)
                            if isinstance(n, ast.Name))
    return refs


def test_every_definition_is_referenced_from_the_package():
    # a name counts as used when code outside its own body reads it;
    # imports and __all__ entries do not count, dunder methods are hooks
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()),
                     Counter())
    unreferenced = [
        name for module, tree in trees.items()
        for name, node in _definitions(tree, module)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[node.name] == _references(node)[node.name]]
    assert sorted(set(unreferenced) - set(UNREFERENCED_ALLOWED)) == [], \
        "only tests reach these"
    assert sorted(set(UNREFERENCED_ALLOWED) - set(unreferenced)) == [], \
        "allowlisted names that are now referenced or gone"


# Dataclass fields that no code in src/, perfbench/ or demos/ reads, each
# with the reason it stays.
UNREAD_FIELDS_ALLOWED = {
    "cases.CaseResult.checks":
        "the names of the construction checks that ran, all passed; the "
        "tests assert which checks each case runs",
    "gen.GeneratedInstance.spec":
        "the spec an instance was drawn for; the corpus tests read its "
        "bidegree from it",
}
READERS = [SRC, ROOT / "perfbench", ROOT / "demos"]


def _dataclass_fields(tree, module):
    """Qualified name of every annotated field of a ``@dataclass`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            yield from (f"{module}.{node.name}.{item.target.id}"
                        for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name))


def _attribute_loads(tree) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _unread(fields, loads) -> list[str]:
    return [field for field in fields if field.rsplit(".", 1)[1] not in loads]


@pytest.mark.parametrize("source, fields, unread", [
    ("@dataclass(frozen=True)\nclass C:\n x: int\n y: int = 0\n"
     "def f(c):\n return c.x", ["m.C.x", "m.C.y"], ["m.C.y"]),
    ("@dataclasses.dataclass\nclass C:\n x: int\n K = 1\n"
     "def f(c):\n c.x = 2", ["m.C.x"], ["m.C.x"]),
    ("class C:\n x: int", [], []),
])
def test_unread_field_check_finds_every_form(source, fields, unread):
    tree = ast.parse(source)
    assert list(_dataclass_fields(tree, "m")) == fields
    assert _unread(fields, _attribute_loads(tree)) == unread


def test_every_dataclass_field_is_read():
    # a field is read when some attribute load in the package, the
    # benchmark or the demos names it; a field only tests read is payload
    fields = [field for path in sorted(SRC.glob("*.py"))
              for field in _dataclass_fields(
                  ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    loads = set().union(*(
        _attribute_loads(ast.parse(path.read_text(encoding="utf-8")))
        for directory in READERS for path in sorted(directory.glob("*.py"))))
    unread = set(_unread(fields, loads))
    assert sorted(unread - set(UNREAD_FIELDS_ALLOWED)) == [], \
        "only tests read these fields"
    assert sorted(set(UNREAD_FIELDS_ALLOWED) - unread) == [], \
        "allowlisted fields that are now read or gone"


# numpy products that sum int64 terms with no reduction: a sum of four
# products of residues near 2**31 overflows.  ``linalg.matmul_mod`` is exact.
UNREDUCED_PRODUCTS = {"tensordot", "dot", "einsum", "matmul"}
# the functions that may use ``@``, each with the bound that keeps it exact
MATMUL_ALLOWED = {
    "linalg._limb_products": "float64 products of 16-bit limbs, exact up "
                             "to MAX_INNER terms",
    "strand.Strand.det_at_many": "four terms of balanced residues, each at "
                                 "most h**2, sum below 2**62",
}


def _product_sites(tree, module):
    """(site, what) for every unreduced numpy product and every ``@``; the
    site of an ``@`` is its innermost enclosing definition."""
    owner = {}
    for name, node in [(module, tree), *_definitions(tree, module)]:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(sub.op, ast.MatMult):
                owner[id(sub)] = (name, "@")
    sites = list(owner.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in UNREDUCED_PRODUCTS \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            sites.append((module, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            sites += [(module, f"np.{alias.name}") for alias in node.names
                      if alias.name in UNREDUCED_PRODUCTS]
    return sites


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_products_are_reduced(path):
    sites = _product_sites(ast.parse(path.read_text(encoding="utf-8")),
                           path.stem)
    bad = [f"{what} in {site}" for site, what in sites
           if not (what == "@" and site in MATMUL_ALLOWED)]
    assert not bad, "use linalg.matmul_mod"


# the one polynomial arithmetic: a second class with these operators is a
# second polynomial type
ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__", "__pow__"}
ARITHMETIC_OWNER = "SparsePoly"


def _arithmetic_classes(tree) -> list[str]:
    """Every class other than ``SparsePoly`` that defines or assigns one of
    the arithmetic operators, nested classes included."""
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name == ARITHMETIC_OWNER:
            continue
        names = set()
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = (item.targets if isinstance(item, ast.Assign)
                           else [item.target])
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        if names & ARITHMETIC:
            bad.append(node.name)
    return bad


@pytest.mark.parametrize("source, bad", [
    ("class SparsePoly:\n def __add__(self, o): pass\n"
     " def __pow__(self, n): pass", []),
    ("class UniHomPoly:\n def __mul__(self, o): pass", ["UniHomPoly"]),
    ("class F:\n __neg__ = lambda self: self", ["F"]),
    ("class F:\n __sub__: object = None", ["F"]),
    ("class F:\n async def __add__(self, o): pass", ["F"]),
    ("class Outer:\n class Inner:\n  def __pow__(self, n): pass",
     ["Inner"]),
    ("class F:\n def scale(self, c): pass\n def __eq__(self, o): pass", []),
    ("def __add__(a, b): pass", []),
])
def test_arithmetic_check_finds_every_form(source, bad):
    assert _arithmetic_classes(ast.parse(source)) == bad


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_one_polynomial_arithmetic(path):
    classes = _arithmetic_classes(ast.parse(path.read_text(encoding="utf-8")))
    assert not classes, f"only {ARITHMETIC_OWNER} defines +, -, * and **"


CACHES = {"lru_cache", "cache"}


def _unbounded_caches(tree) -> list[int]:
    """Lines of every ``functools.lru_cache``/``functools.cache`` without an
    explicit integer ``maxsize``."""
    names = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in CACHES}
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in CACHES \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "functools":
            name = node.attr
        elif isinstance(node, ast.Name) and node.id in names:
            name = names[node.id]
        else:
            continue
        call = calls.get(id(node))
        sizes = [] if call is None else (
            [kw.value for kw in call.keywords if kw.arg == "maxsize"]
            or call.args[:1])
        if not (name == "lru_cache" and len(sizes) == 1
                and isinstance(sizes[0], ast.Constant)
                and type(sizes[0].value) is int):
            bad.append(node.lineno)
    return bad


@pytest.mark.parametrize("source, bad", [
    ("import functools\n@functools.lru_cache(maxsize=64)\ndef f(): pass", 0),
    ("from functools import lru_cache\n@lru_cache(16)\ndef f(): pass", 0),
    ("import functools\n@functools.lru_cache\ndef f(): pass", 1),
    ("import functools\n@functools.lru_cache()\ndef f(): pass", 1),
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(): pass", 1),
    ("import functools\n@functools.cache\ndef f(): pass", 1),
    ("from functools import cache as c\n@c\ndef f(): pass", 1),
    ("from functools import lru_cache\ng = lru_cache()(len)", 1),
])
def test_unbounded_cache_check_finds_every_form(source, bad):
    assert len(_unbounded_caches(ast.parse(source))) == bad


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_caches_are_bounded(path):
    # an unbounded cache grows with every distinct argument it sees
    lines = _unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"give these caches an integer maxsize: {lines}"


def _documented_flags() -> set[str]:
    """Flags in the first column of the flag table in docs/formats.md."""
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    section = text.split(FLAGS_HEADING, 1)[1].split("\n#", 1)[0]
    return {flag for line in section.splitlines() if line.startswith("|")
            for flag in re.findall(r"`(--[a-z][a-z-]*)", line.split("|")[1])}


@pytest.mark.parametrize("command", ["implicitize", "verify"])
def test_documented_flags_match_the_parser(command):
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parser_flags = {flag for action in sub.choices[command]._actions
                    for flag in action.option_strings
                    if flag.startswith("--") and flag != "--help"}
    documented = _documented_flags()
    assert parser_flags - documented == set(), "flags missing from the docs"
    assert documented - parser_flags == set(), "documented flags not parsed"


def _perfbench_targets():
    """``TARGETS`` of perfbench/spans.py, loaded without importing the
    perfbench package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("target", _perfbench_targets(),
                         ids=lambda t: f"{t[0]}.{t[1]}")
def test_perfbench_span_targets_resolve(target):
    module, attr = target[:2]
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in owner.__dict__, f"{module}.{attr} is gone"


# Imports each name given after the source directory into an interpreter
# with no tensurf module loaded, and prints the tensurf submodules each
# brought in, or the error it raised.
IMPORT_PROBE = """\
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
loaded = {}
for name in sys.argv[2:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "tensurf"]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as exc:
        loaded[name] = repr(exc)
    else:
        loaded[name] = sorted(k for k in sys.modules
                              if k.startswith("tensurf."))
print(json.dumps(loaded))
"""
MODULES = [f"tensurf.{path.stem}" for path in sorted(SRC.glob("*.py"))
           if path.stem != "__init__"]
# what the set-up of a job (parse the generators, build the input) must not
# load: the stages after it
SETUP_EXCLUDES = ["cases", "hburch", "membership", "strand", "xpoly",
                  "planes", "oracle", "gen", "cli"]


@pytest.fixture(scope="module")
def import_sets():
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC.parent), "tensurf",
         *MODULES], capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def test_every_module_imports_first(import_sets):
    assert MODULES and set(import_sets) == {"tensurf", *MODULES}
    failed = {name: got for name, got in import_sets.items()
              if isinstance(got, str)}
    assert failed == {}


def test_the_package_imports_no_module(import_sets):
    assert import_sets["tensurf"] == []


def test_setup_path_imports_no_later_stage(import_sets):
    later = {f"tensurf.{name}" for name in SETUP_EXCLUDES}
    assert sorted(later & set(import_sets["tensurf.syzygy"])) == []


# Sphinx cross-reference roles, with the kind of object each must name
ROLES = {"func": callable, "meth": callable, "class": inspect.isclass,
         "attr": lambda obj: True, "mod": inspect.ismodule}
ROLE_REF = re.compile(r":(%s):`~?([\w.]+)`" % "|".join(ROLES))


def _resolves(module, target: str, kind) -> bool:
    """Whether ``target`` names an object of the role's kind, looked up in
    ``module``'s namespace, or from the package down when it starts with
    the package's name."""
    parts = target.split(".")
    owner = module
    if parts[0] == "tensurf":
        owner, parts = importlib.import_module("tensurf"), parts[1:]
    try:
        for part in parts:
            if inspect.ismodule(owner) and not hasattr(owner, part):
                importlib.import_module(f"{owner.__name__}.{part}")
            owner = getattr(owner, part)
    except (AttributeError, ImportError):
        return False
    return kind(owner)


def _stale_references(module, tree) -> list[str]:
    """Every role reference in a docstring of ``tree`` that does not
    resolve against ``module``."""
    docs = [ast.get_docstring(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]
    return [f":{role}:`{target}`" for doc in docs if doc
            for role, target in ROLE_REF.findall(doc)
            if not _resolves(module, target, ROLES[role])]


@pytest.mark.parametrize("source, stale", [
    ('"""See :func:`batch_det` and :func:`~tensurf.linalg.rank`."""', []),
    ('"""See :func:`matrix_inverse`."""', [":func:`matrix_inverse`"]),
    ('def f():\n    """Uses :mod:`tensurf.xpoly` and :mod:`tensurf.nope`."""',
     [":mod:`tensurf.nope`"]),
    ('class C:\n    """A :class:`batch_det` is no class."""',
     [":class:`batch_det`"]),
    ('"""Reads :attr:`tensurf.strand.Strand.det_box` and '
     ':meth:`tensurf.strand.Strand.gone`."""',
     [":meth:`tensurf.strand.Strand.gone`"]),
])
def test_stale_reference_check_finds_every_form(source, stale):
    linalg = importlib.import_module("tensurf.linalg")
    assert _stale_references(linalg, ast.parse(source)) == stale


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_docstring_references_resolve(path):
    module = importlib.import_module(
        "tensurf" if path.stem == "__init__" else f"tensurf.{path.stem}")
    stale = _stale_references(
        module, ast.parse(path.read_text(encoding="utf-8")))
    assert not stale, f"{path.name} docstrings name what is gone: {stale}"
