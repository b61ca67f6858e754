"""Manifold records: constructors, validation, admissibility, serialization."""
import json

import pytest
from hypothesis import given, settings, strategies as st

from exolink.groupring import GroupRingElement, to_text
from exolink.grouppres import GroupPresentation
from exolink.knots import twist_knot_family
from exolink.lattice import IntSymMatrix, hyperbolic_pair
from exolink.manifold import (
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
    same_json,
    simplifies_trivial,
    standard_block,
    u_factor,
    unit_vector,
)
from exolink.surgery import fiber_sum, knot_surgery
from specs import spec_text


def test_u_factor():
    u = u_factor(2, (1, 0))
    assert to_text(u) == "t1^-1 - t1"
    assert u_factor(2, (0, 2)) == GroupRingElement.from_terms(
        2, [((0, -2), 1), ((0, 2), -1)]
    )


def test_standard_blocks_invariants():
    expected = {
        "S4": {"euler": 2, "b1": 0, "b2": 0, "signature": 0},
        "S2xS2": {"euler": 4, "b1": 0, "b2": 2, "signature": 0},
        "S2xS2_twisted": {"euler": 4, "b1": 0, "b2": 2, "signature": 0},
        "T2xS2": {"euler": 0, "b1": 2, "b2": 2, "signature": 0},
        "S1xS3": {"euler": 0, "b1": 1, "b2": 0, "signature": 0},
    }
    for name, want in expected.items():
        tup = invariant_tuple(standard_block(name))
        got = {k: tup[k] for k in want}
        assert got == want, name
    assert invariant_tuple(standard_block("S2xS2"))["parity"] == "even"
    assert invariant_tuple(standard_block("S2xS2_twisted"))["parity"] == "odd"


def test_standard_block_unknown_name():
    with pytest.raises(ValueError):
        standard_block("CP2")


def test_product_block_shape():
    for g in (1, 2, 3):
        block = product_T2_Sigma_g(g)
        tup = invariant_tuple(block)
        assert tup["euler"] == 0
        assert tup["b1"] == 2 + 2 * g
        assert tup["b2"] == 4 * g + 2
        assert tup["signature"] == 0
        assert tup["parity"] == "even"
    assert to_text(product_T2_Sigma_g(2).sw) == "t1^-2 - 2 + t1^2"


def test_kodaira_block_shape():
    for g in (1, 2, 3):
        block = kodaira_thurston_block(g)
        tup = invariant_tuple(block)
        assert tup["euler"] == 0
        assert tup["b1"] == g + 2
        assert tup["b2"] == 2 * g + 2
        assert tup["parity"] == "even"
        # relative factor on T is sw * u
        assert block.rel_factor("T") == block.sw * u_factor(
            block.form.n, unit_vector(block.form.n, 0)
        )
    assert to_text(kodaira_thurston_block(2).sw) == "t1^-2 - 2 + t1^2"


def test_record_validation_euler_mismatch():
    with pytest.raises(ValueError, match="chi"):
        ManifoldRecord(
            name="bad",
            pi1=GroupPresentation.parse("gens: ; rels: "),
            euler=5,
            form=hyperbolic_pair(),
            basis=("a", "b"),
            sw=None,
            sw_reason="untracked (test)",
            marks=(),
        )


def test_record_validation_rel_sw_consistency():
    sw = GroupRingElement.one(2)
    torus = MarkedSubmanifold(
        kind="torus",
        label="T",
        homology_class=(1, 0),
        pi1_words=(),
        flags=frozenset({"self_intersection_zero"}),
    )
    loop = MarkedSubmanifold(kind="loop", label="L", homology_class=None, pi1_words=("1",))
    sphere = MarkedSubmanifold(
        kind="sphere_link_component",
        label="P",
        homology_class=(0, 1),
        flags=frozenset({"trivial_normal_bundle"}),
    )

    def record(sw, sw_reason, rel_tori):
        return ManifoldRecord(
            name="r",
            pi1=GroupPresentation.parse("gens: ; rels: "),
            euler=4,
            form=hyperbolic_pair(),
            basis=("T", "S"),
            sw=sw,
            sw_reason=sw_reason,
            marks=(torus, loop, sphere),
            rel_tori=frozenset(rel_tori),
        )

    data = record_to_json(record(sw, "tracked", {"T"}))
    assert data["rel_tori"] == ["T"]
    assert record_from_json(data) == record(sw, "tracked", {"T"})
    # a label that names no tracked torus fails to load
    for label in ("L", "P", "X"):
        with pytest.raises(ValueError, match="relative factor"):
            record_from_json({**data, "rel_tori": [label]})
    # a document written before report v3 stores the factors as rel_sw
    # texts; one that is not sw * u(class) fails to load
    old = {key: value for key, value in data.items() if key != "rel_tori"}
    old["rel_sw"] = {"T": to_text(sw * u_factor(2, (1, 0)))}
    assert record_from_json(old) == record_from_json(data)
    old["rel_sw"]["T"] = to_text(sw)
    with pytest.raises(ValueError, match="relative factor"):
        record_from_json(old)
    # a factor on a loop or on a sphere with a class, and one without a tracked sw
    for label in ("L", "P"):
        with pytest.raises(ValueError, match="relative factor"):
            record(sw, "tracked", {label})
    with pytest.raises(ValueError, match="relative factor"):
        record(None, "untracked (test)", {"T"})


def test_record_serialization_round_trip():
    for build in (
        lambda: standard_block("S2xS2"),
        lambda: product_T2_Sigma_g(2),
        lambda: kodaira_thurston_block(3),
        lambda: admissible_from_spec(spec_text("even")),
        # a forward-built Z[k]: its relative factors derive from a product sw
        lambda: fiber_sum(
            knot_surgery(admissible_from_spec(spec_text("even")), "T1", twist_knot_family(2)[1]),
            "T2",
            kodaira_thurston_block(1),
            "T",
        ),
    ):
        record = build()
        data = record_to_json(record)
        assert record_from_json(data) == record
        # canonical form is stable under a JSON round trip
        assert canonical_json(json.loads(canonical_json(data))) == canonical_json(data)


def test_record_to_json_derives_no_relative_factor(monkeypatch):
    product = product_T2_Sigma_g(2)
    # a forward-built Z[k], built before the patch: the fiber sum derives factors
    z = fiber_sum(
        knot_surgery(admissible_from_spec(spec_text("even")), "T1", twist_knot_family(2)[1]),
        "T2",
        kodaira_thurston_block(1),
        "T",
    )

    def refuse(record, label):
        raise AssertionError(f"record_to_json derived the factor of {label!r}")

    monkeypatch.setattr(ManifoldRecord, "rel_factor", refuse)
    for record in (product, z):
        assert record.rel_tori
        assert record_to_json(record)["rel_tori"] == sorted(record.rel_tori)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(-2, 2) | st.text(" :,\"ab", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(" :ab", max_size=2), inner, max_size=3),
    max_leaves=8,
)


def _twin(value, bools_as_ints: bool):
    """``value`` with tuples and lists swapped, dict insertion order reversed
    and, if asked, every bool replaced by the int it equals in Python."""
    if isinstance(value, bool):
        return int(value) if bools_as_ints else value
    if isinstance(value, list):
        return tuple(_twin(v, bools_as_ints) for v in value)
    if isinstance(value, tuple):
        return [_twin(v, bools_as_ints) for v in value]
    if isinstance(value, dict):
        return {k: _twin(value[k], bools_as_ints) for k in reversed(list(value))}
    return value


def test_same_json_examples():
    assert same_json((1, [2, 3]), [1, (2, 3)])
    assert not same_json(True, 1)
    assert not same_json([True], [1])
    assert same_json({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert not same_json({"a": "x y"}, {"a": "xy"})


@settings(max_examples=300)
@given(json_values, json_values, st.booleans())
def test_same_json_agrees_with_canonical_json(a, b, bools_as_ints):
    for other in (b, _twin(a, bools_as_ints)):
        assert same_json(a, other) == (canonical_json(a) == canonical_json(other))


def test_invariant_tuple_keys():
    tup = invariant_tuple(standard_block("S4"))
    assert set(tup) == {
        "euler",
        "b1",
        "b2",
        "signature",
        "parity",
        "pi1_free_rank",
        "pi1_torsion",
    }


def test_simplifies_trivial():
    assert simplifies_trivial(GroupPresentation.parse("gens: a,b; rels: a, b"))
    assert not simplifies_trivial(GroupPresentation.parse("gens: a,b; rels: [a,b]"))


def test_admissible_accepts_both_fixtures():
    even = admissible_from_spec(spec_text("even"))
    tup = invariant_tuple(even)
    assert tup == {
        "euler": 24,
        "b1": 0,
        "b2": 22,
        "signature": -16,
        "parity": "even",
        "pi1_free_rank": 0,
        "pi1_torsion": [],
    }
    odd = admissible_from_spec(spec_text("odd"))
    assert invariant_tuple(odd)["parity"] == "odd"
    assert invariant_tuple(odd)["b2"] == 8


def _spec_with(**overrides):
    data = json.loads(spec_text("even"))
    data.update(overrides)
    return json.dumps(data)


def test_admissible_rejects_zero_sw():
    with pytest.raises(AdmissibilityError) as err:
        admissible_from_spec(_spec_with(sw="0"))
    assert "no basic class (sw = 0)" in err.value.violations


def test_admissible_rejects_definite_form():
    data = json.loads(spec_text("even"))
    n = len(data["basis"])
    data["gram"] = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    with pytest.raises(AdmissibilityError) as err:
        admissible_from_spec(json.dumps(data))
    assert "form not indefinite" in err.value.violations


def test_admissible_rejects_small_rank():
    # rank 6 with signature 4 violates the rank >= |signature| + 4 margin
    # (the hyperbolic pair keeps it indefinite so only the margin clause fires)
    data = json.loads(spec_text("even"))
    rows = [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    data["gram"] = rows
    data["basis"] = ["T1", "S1", "T2", "S2", "C1", "C2"]
    data["euler"] = 8
    for mark in data["marks"]:
        mark["class"] = [1 if b == mark["label"] else 0 for b in data["basis"]]
    with pytest.raises(AdmissibilityError) as err:
        admissible_from_spec(json.dumps(data))
    assert any(v.startswith("rank 6 < |signature| + 4") for v in err.value.violations)


def test_admissible_rejects_nontrivial_pi1():
    with pytest.raises(AdmissibilityError) as err:
        admissible_from_spec(_spec_with(pi1="gens: a,b; rels: [a,b]"))
    assert "pi1 does not simplify to the trivial presentation" in err.value.violations


def test_admissible_reports_all_clauses_not_just_first():
    with pytest.raises(AdmissibilityError) as err:
        admissible_from_spec(
            _spec_with(sw="0", pi1="gens: a,b; rels: [a,b]")
        )
    assert len(err.value.violations) >= 2


def test_admissible_trace_embeds_spec():
    record = admissible_from_spec(spec_text("even"))
    assert record.trace[0]["op"] == "base"
    assert record.trace[0]["constructor"] == "admissible_from_spec"
    assert record.trace[0]["args"]["spec"]["name"] == "M_even"
