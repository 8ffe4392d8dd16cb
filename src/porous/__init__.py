"""Porous-set construction and audit toolkit.

A library for building stratified families of lifted holes over a window
ball, auditing their packing invariants, and numerically checking the
smoothing, area, and mass-budget estimates that make the family porous yet
unavoidable for nearly flat C1 graph surfaces.
"""
import types

from .analysis import (AreaCheck, CutoffField, FlattenCheck, Mollifier,
                       SmoothedGradientCheck, SobolevCheck,
                       area_lower_bound_check, blend, blend_disjoint,
                       boundary_cross_term, bump_field, flatten_residual,
                       make_cutoff, make_mollifier, mollifier_mass, mollify,
                       smoothed_gradient_check, sobolev_ratio)
from .bounds import alpha_relaxed, mode_map, strict_deficit_bound
from .config import LoadedConfig, load_config, parse_config
from .construction import (BuildConfig, HoleFamily, TruncatedP, assemble_H,
                           assemble_Pk, build_family, build_stage,
                           choose_level_radius, deserialize_family,
                           footprint_factor, pack_level, plane_for_index,
                           plane_schedule, sample_truncated_P,
                           serialize_family, truncated_P)
from .errors import (AuditFailure, BlendPreconditionError, ConfigError,
                     ConstructionFailure, NeedsMoreSamples, ParseError,
                     PorousError, PreconditionError)
from .geometry import (AffinePlane, Ball, BallIndex, MeasureEstimate,
                       PorosityWitness, ScalarField, pullback_porosity_witness,
                       unit_ball_volume)
from .sampling import SamplingBudget, substream
from .surfaces import (BumpSpec, CorpusEntry, GraphPatch, MembershipVerdict,
                       corpus_generate, generate_from_spec, graph_measure_in,
                       load_corpus_spec, sn_membership)
from .verification import (AuditReport, AuditRow, AuditSettings,
                           BudgetLedger, HoleClassification, analysis_suite,
                           budget, classify_holes, coverage_deficit,
                           disjointness_audit, family_invariant_audit,
                           hole_intersection_mass, ledger_rows, porosity_row,
                           porosity_witness)

__version__ = "0.1.0"

# the public names are the names imported above, written once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
