"""Symbolic surgery calculus on closed 4-manifold records.

The package tracks a closed smooth 4-manifold as an exact algebraic record
(fundamental group presentation, Euler characteristic, integral intersection
form with a labeled basis, a Seiberg-Witten element in the group ring of
H_2, marked submanifolds, and a replayable provenance trace) and implements
knot surgery, generalized fiber sum, loop surgery, and connected sum as
invariant-transforming rewrites.  A pipeline executes the exotic-2-link
construction recipe over a knot family and emits certificate reports whose
entries are partitioned into computed facts and cited rules with
machine-checked hypotheses.
"""
from .groupring import GroupRingElement, embed_knot_poly_at_class, equal_up_to_units
from .grouppres import GroupPresentation, recognize_free, recognize_surface
from .knots import BraidWord, KnotRecord, alexander_poly, parse_braid, twist_knot_family
from .lattice import IntSymMatrix, indefinite_unimodular_iso, invariants
from .manifold import (
    AdmissibilityError,
    ManifoldRecord,
    MarkedSubmanifold,
    admissible_from_spec,
    canonical_json,
    invariant_tuple,
    kodaira_thurston_block,
    product_T2_Sigma_g,
    record_from_json,
    record_to_json,
    standard_block,
)
from .surgery import (
    SurgeryError,
    build_from_trace,
    connected_sum,
    dissolve_knot_surgery_after_stabilization,
    fiber_sum,
    knot_surgery,
    loop_surgery,
    sphere_surgery,
)
from .pipeline import (
    CertificateError,
    ConfigError,
    RecipeConfig,
    report_records,
    run_recipe,
    validate_certificate_partition,
    verify_lemma_suite,
    verify_trace_report,
)

__all__ = [
    "AdmissibilityError",
    "BraidWord",
    "CertificateError",
    "ConfigError",
    "GroupPresentation",
    "GroupRingElement",
    "IntSymMatrix",
    "KnotRecord",
    "ManifoldRecord",
    "MarkedSubmanifold",
    "RecipeConfig",
    "SurgeryError",
    "admissible_from_spec",
    "alexander_poly",
    "build_from_trace",
    "canonical_json",
    "connected_sum",
    "dissolve_knot_surgery_after_stabilization",
    "embed_knot_poly_at_class",
    "equal_up_to_units",
    "fiber_sum",
    "indefinite_unimodular_iso",
    "invariant_tuple",
    "invariants",
    "knot_surgery",
    "kodaira_thurston_block",
    "loop_surgery",
    "parse_braid",
    "product_T2_Sigma_g",
    "recognize_free",
    "recognize_surface",
    "record_from_json",
    "record_to_json",
    "report_records",
    "run_recipe",
    "sphere_surgery",
    "standard_block",
    "twist_knot_family",
    "validate_certificate_partition",
    "verify_lemma_suite",
    "verify_trace_report",
]

__version__ = "0.1.0"
