"""Source hygiene: every name a module of the package imports is used,
every function, class and method is referenced from the package's own code,
the documented flags of ``implicitize``/``verify`` are the parser's, and
every function the benchmark's tracer wraps still exists."""

import argparse
import ast
import importlib.util
import re
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
        "perfbench/spans.py wraps it in oracle's namespace and gate 2 calls "
        "it; it moves to a test-side reference with the benchmark change",
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
