"""The package's public names, its option surface and its module imports.

Every public name and every keyword parameter with a default is surface
that the tests must cover, so both sets are pinned here: a new one is a
deliberate edit of this file.  The functions counted are the ones the bench
tracer wraps, each name in a module's ``__all__`` that is a function
defined in that module.
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


def test_public_names_are_exactly_the_used_ones():
    exported = {name for name, value in vars(momentflow).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {
        "ADJOINT", "BRACKETS", "DUAL", "LAMBDA2", "MINUS_INFINITY", "STANDARD",
        "TORUS_WEIGHTS",
        "CartanContext", "CoupledFlowResult", "CriticalBracketReport",
        "DerivationReport", "EquivalenceReport", "FlowError", "FlowParams",
        "FlowResult", "HesselinkLabel", "JordanLabelReport", "KnFlowReport",
        "LabelEnumeration", "MinNormCertificate", "MomentValue", "Partition",
        "RepSpec", "RepVector", "SpdMetric", "StratumReport",
        "adjoint", "adjoint_from_matrix", "apply_group", "apply_lie",
        "bracket_preset", "brackets", "brackets_from_tensor", "brackets_tensor",
        "build_context", "closed_form_moment", "coupled_group_flow",
        "critical_bracket_check", "criticality_residual", "derivation_report",
        "dominates", "dual", "energy", "enumerate_labels", "flow_trajectory_csv",
        "gradient_flow", "instability_measure", "jordan_label", "jordan_vector",
        "kn_label_via_flow", "label_from_json", "label_to_json", "lambda2",
        "lambda2_embed", "lambda2_to_matrix", "metric_flow", "min_norm_point",
        "min_norm_point_by_enumeration", "moment", "optimal_class",
        "parabolic_lie_algebra", "partitions", "project_to_sl", "rep_vector",
        "spd_sqrt", "standard", "state_of", "stratum_membership", "torus_weights",
        "vector_from_json", "verify_flow_equivalence", "weight_components",
        "weights_of", "weyl_normalize",
    }
    layered = set().union(*(importlib.import_module(f"momentflow.{layer}").__all__
                            for layer in MODULES))
    assert layered - exported == {"jacobi_ok", "jacobi_residual", "main", "rep_action",
                                  "run", "solve_exact", "to_rational_vector"}


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


_FAMILY_CONSTANTS = {"STANDARD", "DUAL", "ADJOINT", "LAMBDA2", "BRACKETS", "TORUS_WEIGHTS"}


def _family_comparisons(tree):
    """(top-level definition, line) of each comparison that reads a
    ``.family`` or a family constant."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                    (isinstance(x, ast.Attribute) and x.attr == "family")
                    or (isinstance(x, ast.Name) and x.id in _FAMILY_CONSTANTS)
                    for operand in (node.left, *node.comparators) for x in ast.walk(operand)):
                yield getattr(top, "name", None), node.lineno


def test_only_the_catalog_the_cli_and_the_closed_forms_branch_on_the_family():
    # the pi build, the moment map, the flows and the labels treat every
    # family alike through reps' moves and weights: a family branch anywhere
    # else would be a second build path
    found = [f"{path.name}:{line} in {where}" for path in SOURCES
             if path.name not in ("reps.py", "cli.py")
             for where, line in _family_comparisons(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, where) != ("momentmap.py", "closed_form_moment")]
    assert found == []
