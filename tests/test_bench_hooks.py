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
import subprocess
import sys
from pathlib import Path

import pytest

import skpk
import skpk.binning
import skpk.exact
import skpk.harness

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    spans = _load_bench("spans")
    assert spans.LAYERS
    for name, targets in spans.LAYERS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr}"


def _traced_work():
    """One piece of each benchmark workload's work, called through module
    attributes as bench/run.py calls it.
    """
    exact_cfg = skpk.SchemeConfig(scheme="PointP", dist=skpk.xor_triple(), n=4, epsilon=0.25,
                                  delta=0.05, master_seed=1, codebook_mode=skpk.MODE_TABLE)
    skpk.ExactEvaluator(exact_cfg).evaluate(2)
    skpk.exact.oracle_secrecy(exact_cfg, skpk.oracle_codebooks(exact_cfg, 0))
    cfg = skpk.ExperimentConfig(
        scheme="PointP", dist=skpk.xor_triple(), n_values=(6,), trials=2, epsilon=0.5,
        delta=0.05, master_seed=1)
    skpk.RunContext(cfg.scheme_config(6))
    _load_bench("checks").TrialChecker(cfg.dist, skpk.TypicalityParams(cfg.epsilon, 6))
    skpk.harness.run_trials(cfg)


def test_every_traced_layer_records_a_span(monkeypatch, fresh_state):
    """A wrapped name that stays bound but is no longer called would read 0
    in its layer, which the resolve check above cannot see. From an empty
    holder, the work builds its arrangement tables and decode tables.
    """
    monkeypatch.delenv("SKPK_WORKERS", raising=False)   # spans stay in this process
    spans = _load_bench("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.span(spans.ROOT_SPAN, _traced_work)
    finally:
        tracer.close()
    recorded = {name for name, *_ in tracer.spans}
    assert sorted(set(spans.LAYERS) - recorded) == []


def test_codebook_builds_are_traced_on_the_exact_path(monkeypatch):
    """Every codebook an exact evaluation draws is one binning.build span:
    the draws go through the names the tracer wraps. Only the members' sets
    are drawn; the native set is drawn on first read, and evaluate reads none.
    """
    spans = _load_bench("spans")
    cfg = skpk.SchemeConfig(scheme="PointP", dist=skpk.xor_triple(), n=4, epsilon=0.25,
                            delta=0.05, master_seed=1, codebook_mode=skpk.MODE_TABLE)
    init, drawn = skpk.binning.BinningCodebook.__init__, []

    def record(cb, *args, **kwargs):
        drawn.append(cb)
        init(cb, *args, **kwargs)

    monkeypatch.setattr(skpk.binning.BinningCodebook, "__init__", record)
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.span(spans.ROOT_SPAN, lambda: skpk.ExactEvaluator(cfg).evaluate(2))
    finally:
        tracer.close()
    builds = [s for s in tracer.spans if s[0] == "binning.build"]
    # two codebooks per member
    assert len(builds) == len(drawn) == 4


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


@pytest.mark.parametrize("scheme,n", [("PointT", 12), ("PointP", 8)])
def test_bench_trial_checker_passes(scheme, n):
    """bench/checks.py reads fields of ProtocolRun and KeyOutcome (statuses,
    claims, recovered copies, codebooks), which the name checks above do not
    see; its trial checker must still run and find nothing on the workloads'
    schemes.
    """
    checks = _load_bench("checks")
    cfg = skpk.SchemeConfig(scheme=scheme, dist=skpk.xor_triple(), n=n, epsilon=0.5,
                            delta=0.05, master_seed=3)
    ctx = skpk.RunContext(cfg)
    checker = checks.TrialChecker(cfg.dist, cfg.params)
    problems = [(i, p) for i in range(20) for p in checker.check(ctx.run(i))]
    assert problems == []


@pytest.mark.parametrize("mode", [skpk.harness.MODE_MONTE_CARLO, skpk.harness.MODE_EXACT])
def test_bench_report_check_reads_records(mode):
    """bench/checks.py reads every record's decode_failures by name, in both
    evaluation modes; a record field renamed under it fails here first.
    """
    checks = _load_bench("checks")
    cfg = skpk.ExperimentConfig(
        scheme="PointP", dist=skpk.xor_triple(), n_values=(4, 6), trials=2, epsilon=0.5,
        delta=0.05, master_seed=1, codebook_mode=skpk.MODE_TABLE, evaluation_mode=mode)
    assert checks.check_report(skpk.run_trials(cfg)) == []


def test_bench_selftest_passes():
    """bench/selftest.py runs the benchmark's output checks on genuine runs,
    members and reports, then on corrupted copies; a change to ProtocolRun,
    to the exact members or to the report records that breaks those checks
    fails here first.
    """
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all checks behave"
