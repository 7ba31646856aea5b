"""The starsym names that the benchmark harness reads.

perfbench/tracing.py wraps library functions, verify checks and CLI
subcommands by name, and BENCHMARK.json names per-layer metrics after
them, so deleting or renaming one breaks the traced benchmark run.  Both
files are read, never imported or written: the tracer's name tables are
taken from its source as literals.
"""

import ast
import importlib
import json
import re
from pathlib import Path

import starsym.cli as cli
from starsym import check_names, symmetry_detector, verify

_ROOT = Path(__file__).resolve().parents[1]


def _tracer_tables():
    tree = ast.parse((_ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("_FUNCTIONS", "_CONSTRUCTORS", "_CACHED"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"_FUNCTIONS", "_CONSTRUCTORS", "_CACHED"}
    return tables


def test_traced_functions_exist():
    tables = _tracer_tables()
    for module, names in tables["_FUNCTIONS"].items():
        mod = importlib.import_module(f"starsym.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    star_body = importlib.import_module("starsym.star_body")
    for name in tables["_CONSTRUCTORS"]:
        assert callable(getattr(star_body, name, None)), f"star_body.{name}"
    for dotted in tables["_CACHED"]:
        module, name = dotted.split(".")
        fn = getattr(importlib.import_module(f"starsym.{module}"), name)
        assert hasattr(fn, "cache_info"), dotted


def test_rebound_names_exist():
    # the odd-part probe hooks, the check table, the subcommand table and
    # the body builder that the tracer rebinds in place
    assert callable(symmetry_detector.probe_directions)
    assert callable(symmetry_detector.odd_part)
    assert isinstance(verify._CHECKS, dict) and isinstance(cli._DISPATCH, dict)
    assert callable(cli.build_body)


def test_per_layer_metrics_name_existing_checks_and_subcommands():
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in bench["per_layer"]]
    checks = [m.group(1) for m in map(re.compile(r"verify\.(\w+)\.ms$").match, names) if m]
    subs = [m.group(1) for m in map(re.compile(r"cli\.(\w+)\.ms$").match, names) if m]
    assert checks and subs
    assert set(checks) <= set(check_names())
    assert set(subs) <= set(cli._DISPATCH)
