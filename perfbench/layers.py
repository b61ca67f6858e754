"""Per-layer metrics of the traced run, and what each one should move.

A name is ``<module>.<function>.<stat>``, where ``<module>.<function>`` is a
span name from `tracer.TARGETS`.  Stats are per operation (per replay cycle
of two reports): ``calls``; ``self_s``, span time minus child-span time;
``total_s``, span time; ``distinct_ratio``, distinct argument values over
calls within the operation; and the counters a target collects (``moves``,
``exhausted``, ``steps``, ``bytes``).  ``trace.overhead_s`` is the traced
minus the untraced time to verdict of the same input.

The last field is the prediction made before any optimisation: which
end-to-end metric, on which workload, a change to that layer should move.
"""
from __future__ import annotations

_RECIPE_REPLAY = "time_to_verdict_s on recipe and replay; no change on knots"
_CONTROL = "no end-to-end metric (under 1% of self time)"

LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("lattice.congruence_diagonal.self_s", "s", "lower", _RECIPE_REPLAY),
    ("lattice.smith_normal_form.calls", "count", "lower", _RECIPE_REPLAY),
    ("lattice.smith_normal_form.self_s", "s", "lower", _RECIPE_REPLAY),
    ("lattice.smith_normal_form.distinct_ratio", "ratio", "higher", _RECIPE_REPLAY),
    ("lattice.smith_verify.self_s", "s", "lower", _RECIPE_REPLAY),
    ("lattice.invariants.calls", "count", "lower", _RECIPE_REPLAY),
    ("lattice.invariants.distinct_ratio", "ratio", "higher", _RECIPE_REPLAY),
    ("lattice.determinant.self_s", "s", "lower", _RECIPE_REPLAY),
    ("lattice.find_nonspin_witness.self_s", "s", "lower", _RECIPE_REPLAY),
    ("grouppres.abelianization.calls", "count", "lower", _RECIPE_REPLAY),
    ("grouppres.abelianization.distinct_ratio", "ratio", "higher", _RECIPE_REPLAY),
    ("grouppres.tietze_simplify.calls", "count", "lower", _CONTROL),
    ("grouppres.tietze_simplify.self_s", "s", "lower", _CONTROL),
    ("grouppres.tietze_simplify.moves", "count", "lower", _CONTROL),
    ("grouppres.tietze_simplify.exhausted", "count", "lower", _CONTROL),
    ("grouppres.recognize_free.calls", "count", "lower", _CONTROL),
    ("grouppres.recognize_surface.calls", "count", "lower", _CONTROL),
    ("surgery.build_from_trace.calls", "count", "lower", _RECIPE_REPLAY),
    ("surgery.build_from_trace.steps", "count", "lower", _RECIPE_REPLAY),
    ("surgery.build_from_trace.distinct_ratio", "ratio", "higher", _RECIPE_REPLAY),
    ("surgery.sphere_surgery.calls", "count", "lower", "time_to_verdict_s on recipe"),
    (
        "surgery.dissolve_knot_surgery_after_stabilization.calls",
        "count",
        "lower",
        "time_to_verdict_s on recipe",
    ),
    ("surgery.knot_surgery.self_s", "s", "lower", _RECIPE_REPLAY),
    ("surgery.fiber_sum.self_s", "s", "lower", _RECIPE_REPLAY),
    ("surgery.loop_surgery.self_s", "s", "lower", _RECIPE_REPLAY),
    ("surgery.connected_sum.self_s", "s", "lower", _RECIPE_REPLAY),
    (
        "knots.alexander_poly.calls",
        "count",
        "lower",
        "time_to_verdict_s strongly on knots; 8-15% of recipe and replay",
    ),
    (
        "knots.alexander_poly.self_s",
        "s",
        "lower",
        "time_to_verdict_s strongly on knots; 8-15% of recipe and replay",
    ),
    (
        "knots.alexander_poly.distinct_ratio",
        "ratio",
        "higher",
        "time_to_verdict_s on recipe and replay (replays of the same braid)",
    ),
    (
        "groupring.mul.calls",
        "count",
        "lower",
        "time_to_verdict_s on knots; 10-15% of recipe and replay",
    ),
    (
        "groupring.mul.self_s",
        "s",
        "lower",
        "time_to_verdict_s on knots; 10-15% of recipe and replay",
    ),
    ("groupring.equal_up_to_units.calls", "count", "lower", "time_to_verdict_s on recipe only"),
    ("groupring.equal_up_to_units.self_s", "s", "lower", "time_to_verdict_s on recipe only"),
    ("manifold.validate.calls", "count", "lower", _RECIPE_REPLAY),
    ("manifold.validate.self_s", "s", "lower", _RECIPE_REPLAY),
    ("manifold.admissible_from_spec.calls", "count", "lower", _RECIPE_REPLAY),
    ("manifold.admissible_from_spec.self_s", "s", "lower", _RECIPE_REPLAY),
    ("manifold.canonical_json.self_s", "s", "lower", _RECIPE_REPLAY),
    ("manifold.canonical_json.bytes", "bytes", "lower", "report_bytes on recipe"),
    ("manifold.record_to_json.self_s", "s", "lower", _RECIPE_REPLAY),
    ("pipeline.run_recipe.total_s", "s", "lower", "time_to_verdict_s on recipe"),
    ("pipeline.verify_trace_report.total_s", "s", "lower", "time_to_verdict_s on replay"),
    ("pipeline.parse_knots_arg.total_s", "s", "lower", "time_to_verdict_s on knots and recipe"),
    ("cli.main.self_s", "s", "lower", "time_to_verdict_s on recipe and replay"),
    ("trace.overhead_s", "s", "lower", "none: the cost of tracing itself"),
)
