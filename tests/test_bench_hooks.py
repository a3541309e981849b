"""The benchmark reaches into skpk by name.

bench/spans.py wraps named callables of the skpk modules, and the bench
scripts call skpk names directly. A rename in src/ that the bench does not
follow breaks the benchmark, not the library, so these checks make it fail
here first. bench/ is only read.
"""

import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import skpk

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    spans = _load_spans()
    assert spans.LAYERS
    for name, targets in spans.LAYERS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr}"


def _attribute_chain(node):
    """['skpk', 'a', 'b'] for the expression skpk.a.b, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "skpk":
        return ["skpk", *reversed(parts)]
    return None


def _skpk_names(path):
    """Every dotted skpk name a bench script uses: attribute chains rooted at
    the skpk package and the names it imports from skpk modules.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            chain = _attribute_chain(node)
            if chain:
                names.add(".".join(chain))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("skpk"):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.startswith("skpk"))
    return names


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_uses_only_existing_skpk_names(script):
    for dotted in sorted(_skpk_names(BENCH / script)):
        parts = dotted.split(".")
        obj = skpk
        for depth, part in enumerate(parts[1:], start=2):
            if inspect.ismodule(obj) and not hasattr(obj, part):
                # a submodule the package does not import eagerly
                with contextlib.suppress(ImportError):
                    importlib.import_module(".".join(parts[:depth]))
            assert hasattr(obj, part), f"{script} uses {dotted}, which does not exist"
            obj = getattr(obj, part)


_CONFIG_CLASSES = ("ExperimentConfig", "SchemeConfig")


def test_bench_config_keywords_are_fields():
    """Every keyword a bench script passes to skpk.ExperimentConfig(...) or
    skpk.SchemeConfig(...) names a field of that dataclass.
    """
    calls = 0
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if not chain or len(chain) != 2 or chain[1] not in _CONFIG_CLASSES:
                continue
            calls += 1
            fields = {f.name for f in dataclasses.fields(getattr(skpk, chain[1]))}
            for kw in node.keywords:
                assert kw.arg in fields, (
                    f"{path.name}:{node.lineno} passes {kw.arg}= to skpk.{chain[1]}, "
                    "which has no such field")
    assert calls, "no bench script builds a config; the walk found nothing to check"
