"""Moment maps, flows, and exact stratum labels for GL_n(R) / SL_n(R).

The package computes moment maps of the classical representation families,
integrates the associated gradient, group, and metric flows, and produces
exact rational Kirwan-Ness / Hesselink stratum labels for the diagonal
torus, with certificates.  See the README for a tour and demos/ for
narrative walkthroughs of each capability.
"""

from .cartan import (CartanContext, build_context, parabolic_lie_algebra,
                     spd_sqrt, weyl_normalize)
from .reps import (ADJOINT, BRACKETS, DUAL, LAMBDA2, STANDARD, TORUS_WEIGHTS,
                   RepSpec, RepVector, adjoint, adjoint_from_matrix, apply_group,
                   apply_lie, brackets, brackets_from_tensor, brackets_tensor, dual,
                   lambda2, lambda2_embed, lambda2_to_matrix, rep_vector, standard,
                   torus_weights, vector_from_json, weight_components, weights_of)
from .momentmap import (MomentValue, closed_form_moment, criticality_residual, energy,
                        moment)
from .flows import (CoupledFlowResult, EquivalenceReport, FlowError,
                    FlowParams, FlowResult, SpdMetric, coupled_group_flow,
                    flow_trajectory_csv, gradient_flow, metric_flow,
                    verify_flow_equivalence)
from .minnorm import (MinNormCertificate, min_norm_point,
                      min_norm_point_by_enumeration)
from .hesselink import (MINUS_INFINITY, HesselinkLabel, KnFlowReport,
                        LabelEnumeration, StratumReport, enumerate_labels,
                        instability_measure, kn_label_via_flow,
                        label_from_json, label_to_json, optimal_class,
                        project_to_sl, state_of, stratum_membership)
from .jordan import (JordanLabelReport, Partition, dominates, jordan_label,
                     jordan_vector, partitions)
from .bracket import (CriticalBracketReport, DerivationReport, bracket_preset,
                       critical_bracket_check, derivation_report)

__version__ = "0.1.0"
