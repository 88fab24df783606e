"""Source-level rules that hold for every module of the package."""

import ast
import dataclasses
import importlib
import json
import pathlib

import sixgan
from sixgan import classify, cli
from sixgan.gan import NetConfig

SRC = pathlib.Path(sixgan.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; the package raises explicitly instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), f"no modules found under {SRC}"
    assert found == [], f"assert statements in the package: {found}"


def test_no_unused_imports_in_package():
    # a name imported and never read; __init__.py imports only to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used]
    assert found == [], f"unused imports in the package: {found}"


def test_package_exports_exactly_what_it_imports():
    # a name dropped from the imports must leave __all__ too, so a removed
    # class cannot linger as an export
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(sixgan.__all__) == sorted(imported | {"__version__"})
    missing = [name for name in sixgan.__all__ if not hasattr(sixgan, name)]
    assert missing == [], f"__all__ names that do not resolve: {missing}"


def test_json_files_read_and_written_only_in_fileio():
    # fileio.read_json names the file in its errors and fileio.write_json
    # fixes the layout; no other module reads or writes a JSON file itself
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("load", "dump") \
                    and getattr(node.value, "id", None) == "json":
                calls.setdefault(path.name, []).append(f"{node.lineno}: json.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                calls.setdefault(path.name, []).extend(
                    f"{node.lineno}: from json import {alias.name}" for alias in node.names
                    if alias.name in ("load", "dump"))
    assert sorted(c.split(": ")[1] for c in calls.pop("fileio.py", [])) == ["json.dump",
                                                                          "json.load"]
    assert calls == {}, f"JSON read or written outside fileio.py: {calls}"


def test_benchmark_layers_resolve_in_package():
    # the benchmark wraps each per-layer metric's function by name, the way
    # bench/tracing.py finds it; a refactor that drops or renames one fails
    # here, before any benchmark runs
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    paths = next(ast.literal_eval(node.value) for node in tracing.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "PATHS" for t in node.targets))
    missing = []
    for metric in bench["per_layer"]:
        layer = metric["name"].rpartition(".")[0]
        if layer == "trace":  # the tracer's own overhead, not a program layer
            continue
        module, _, path = paths.get(layer, layer).partition(".")
        try:
            owner = importlib.import_module(f"sixgan.{module}")
        except ImportError:
            owner = None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = vars(owner).get(attr) if owner is not None else None
        if not callable(fn):
            missing.append(metric["name"])
    assert bench["per_layer"], "BENCHMARK.json lists no per-layer metrics"
    assert missing == [], f"per-layer metrics naming no function in sixgan: {missing}"


def test_network_defaults_written_once():
    # NetConfig holds the widths' and learning rates' defaults; no function
    # parameter and no RmsProp(lr=...) call in the package writes one again
    names = {field.name for field in dataclasses.fields(NetConfig)}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.arguments):
                positional = node.posonlyargs + node.args
                pairs = list(zip(positional[len(positional) - len(node.defaults):], node.defaults))
                pairs += [(a, d) for a, d in zip(node.kwonlyargs, node.kw_defaults) if d]
                found += [f"{path.name}:{a.lineno}: {a.arg}" for a, _ in pairs if a.arg in names]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RmsProp":
                found += [f"{path.name}:{node.lineno}: RmsProp(lr=...)" for kw in node.keywords
                          if kw.arg == "lr" and isinstance(kw.value, ast.Constant)]
    assert found == [], f"network defaults written outside NetConfig: {found}"


def test_classify_defaults_written_once():
    # classify.FP_PREFIX_LEN, MIN_GROUP and DIM hold those defaults: no
    # parameter default and no dict entry in the package writes one as a
    # number, and cli's defaults are the same constants
    names = {"fp_prefix_len", "min_group", "dim"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            pairs = []
            if isinstance(node, ast.arguments):
                positional = node.posonlyargs + node.args
                pairs = [(a.arg, d) for a, d in zip(positional[len(positional) - len(node.defaults):],
                                                    node.defaults)]
                pairs += [(a.arg, d) for a, d in zip(node.kwonlyargs, node.kw_defaults) if d]
            elif isinstance(node, ast.Dict):
                pairs = [(k.value, v) for k, v in zip(node.keys, node.values)
                         if isinstance(k, ast.Constant)]
            found += [f"{path.name}:{d.lineno}: {name}" for name, d in pairs
                      if name in names and isinstance(d, ast.Constant)]
    assert found == [], f"classify defaults written outside classify's constants: {found}"
    assert (cli.DEFAULTS["fp_prefix_len"], cli.DEFAULTS["min_group"]) == (
        classify.FP_PREFIX_LEN, classify.MIN_GROUP)
