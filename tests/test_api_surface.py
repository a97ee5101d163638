"""The package's public option surface and its module imports.

Every keyword parameter with a default is a setting that the tests must
cover, so the set of them is pinned here: a new one is a deliberate edit of
this file.  The functions counted are the ones the bench tracer wraps, each
name in a module's ``__all__`` that is a function defined in that module.
"""

import ast
import importlib
import inspect
from pathlib import Path

import momentflow

SOURCES = sorted(p for p in Path(momentflow.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
MODULES = [p.stem for p in SOURCES if p.stem != "__main__"]


def test_public_keyword_parameters_are_exactly_the_live_settings():
    found = set()
    for layer in MODULES:
        mod = importlib.import_module(f"momentflow.{layer}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if (inspect.isclass(fn) or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__):
                continue
            found |= {f"{layer}.{name}.{p.name}"
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not p.empty}
    assert found == {
        "cartan.build_context.group",
        "flows.gradient_flow.params",
        "flows.coupled_group_flow.params",
        "flows.metric_flow.params",
        "flows.verify_flow_equivalence.params",
        "flows.verify_flow_equivalence.tol",
        "hesselink.enumerate_labels.max_weight_count",
        "bracket.critical_bracket_check.residual_tol",
    }


def test_every_top_level_import_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
