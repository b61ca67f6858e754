"""Surgery operations: SW transformation, gluing, loop/sphere duality, replay."""
import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from exolink import surgery
from exolink.groupring import embed_knot_poly_at_class, to_text
from exolink.grouppres import recognize_free
from exolink.knots import KnotRecord, twist_knot_family
from exolink.manifold import (
    admissible_from_spec,
    canonical_json,
    compact_json,
    invariant_tuple,
    kodaira_thurston_block,
    product_T2_Sigma_g,
    record_to_json,
    same_json,
    standard_block,
)
from exolink.pipeline import _spec, verify_trace_report
from exolink.surgery import (
    SurgeryError,
    build_from_trace,
    connected_sum,
    dissolve_knot_surgery_after_stabilization,
    fiber_sum,
    knot_surgery,
    loop_surgery,
    mandelbaum_gompf_hypotheses,
    sphere_surgery,
)
from specs import spec_text

TREFOIL = KnotRecord.from_braid("trefoil", "2: s1^3")
UNKNOT = KnotRecord.from_braid("unknot", "1:")


def even_base():
    return admissible_from_spec(spec_text("even"))


def odd_base():
    return admissible_from_spec(spec_text("odd"))


def test_knot_surgery_by_unknot_keeps_sw():
    m = even_base()
    surgered = knot_surgery(m, "T1", UNKNOT)
    assert surgered.sw == m.sw
    assert invariant_tuple(surgered) == invariant_tuple(m)
    assert surgered.name == "M_even[unknot]"
    # the identity regluing keeps the simply connected complement flag
    assert "complement_simply_connected" in surgered.mark("T1").flags


def test_knot_surgery_by_trefoil_multiplies_sw():
    m = even_base()
    surgered = knot_surgery(m, "T1", TREFOIL)
    assert to_text(surgered.sw) == "t1^-2 - 1 + t1^2"
    # homeomorphism-level data is unchanged
    assert invariant_tuple(surgered) == invariant_tuple(m)
    # the knot group enters the torus complement
    assert "complement_simply_connected" not in surgered.mark("T1").flags
    assert surgered.mark("T1").framing == "tau_K[trefoil]"
    # the other torus is untouched
    assert "complement_simply_connected" in surgered.mark("T2").flags


def test_knot_surgery_composes_along_both_tori():
    m = even_base()
    once = knot_surgery(m, "T1", TREFOIL)
    twice = knot_surgery(once, "T2", TREFOIL)
    # factors land on different variables: e1 and e3
    assert to_text(twice.sw) == (
        "t1^-2*t3^-2 - t1^-2 + t1^-2*t3^2 - t3^-2 + 1 - t3^2"
        " + t1^2*t3^-2 - t1^2 + t1^2*t3^2"
    )


def test_knot_surgery_requires_marked_torus():
    m = even_base()
    with pytest.raises(ValueError, match="no mark labeled 'nope'"):
        knot_surgery(m, "nope", TREFOIL)


def test_knot_surgery_requires_tracked_sw():
    m = even_base()
    stabilized = loop_surgery(
        connected_sum(m, standard_block("S2xS2")), "c", word="1", nullhomotopic=True
    )
    assert stabilized.sw is None
    with pytest.raises(SurgeryError):
        knot_surgery(stabilized, "T1", TREFOIL)


def test_fiber_sum_with_kodaira_block():
    m = knot_surgery(even_base(), "T1", TREFOIL)
    z = fiber_sum(m, "T2", kodaira_thurston_block(2), "T")
    tup = invariant_tuple(z)
    assert tup == {
        "euler": 24,
        "b1": 2,
        "b2": 26,
        "signature": -16,
        "parity": "even",
        "pi1_free_rank": 2,
        "pi1_torsion": [],
    }
    assert recognize_free(z.pi1) == 2
    # product rule: the unknotted fiber sum's sw times the trefoil's Alexander
    # polynomial at twice the surgered torus class
    unknotted = fiber_sum(even_base(), "T2", kodaira_thurston_block(2), "T")
    factor = embed_knot_poly_at_class(TREFOIL.alexander, z.mark("T1").homology_class)
    assert z.sw == unknotted.sw * factor
    assert z.sw != unknotted.sw
    assert z.name == "M_even[trefoil]#N2"


def test_fiber_sum_composition_reproduces_product_blocks():
    one = product_T2_Sigma_g(1)
    for g in (2, 3):
        iterated = one
        for _ in range(g - 1):
            iterated = fiber_sum(iterated, "T", product_T2_Sigma_g(1), "T")
        direct = product_T2_Sigma_g(g)
        assert iterated.sw == direct.sw
        assert iterated.form.rows == direct.form.rows
        assert invariant_tuple(iterated) == invariant_tuple(direct)


def _route_cases():
    s = knot_surgery(even_base(), "T1", twist_knot_family(2)[1])
    return {
        "quotient of side B": lambda: fiber_sum(s, "T2", kodaira_thurston_block(2), "T"),
        "quotient of side A": lambda: fiber_sum(kodaira_thurston_block(2), "T", s, "T2"),
        "pushout of the complement models": lambda: fiber_sum(
            product_T2_Sigma_g(2), "T", standard_block("T2xS2"), "T"
        ),
        "pushout of the closed groups": lambda: fiber_sum(
            kodaira_thurston_block(1), "T", kodaira_thurston_block(1), "T"
        ),
        "connected_sum": lambda: connected_sum(
            product_T2_Sigma_g(1), kodaira_thurston_block(1)
        ),
    }


# sha256 of compact_json(record_to_json(r)), taken with Python 3.11
ROUTE_SHA256 = {
    "quotient of side B": "04905aa441a6898383582218600fd40677c16a8224528996ae758383fd7f29b2",
    "quotient of side A": "34114c2b7b564b5ce62f4f0510af8fc69e3336c630bcfda5db650aabda9291fa",
    "pushout of the complement models": (
        "011265e84d5a87a0fb436e39cffdf8fda15c8595a1ca214465c600241bb4fc9c"
    ),
    "pushout of the closed groups": (
        "45e84b34b761b8e3481997ef847b1297dc51abdb6224c202de317518c4a01a5c"
    ),
    "connected_sum": "defc60d6c01bd2388e7ebc4b421555178ee1f475e61692a0ca15b90b48dd60ad",
}


@pytest.mark.parametrize("route", sorted(ROUTE_SHA256))
def test_gluing_routes_are_pinned(route):
    # each fiber-sum pi1 route, and a connected sum whose B marks are
    # relabelled and have their words remapped, pinned byte for byte
    record = _route_cases()[route]()
    step = record.trace[-1]
    assert step.get("pi1_route", step["op"]).startswith(route)
    digest = hashlib.sha256(compact_json(record_to_json(record)).encode()).hexdigest()
    assert digest == ROUTE_SHA256[route]


def _carry_cases():
    def log_transforms(*labels):
        record = product_T2_Sigma_g(2)
        for label in labels:
            record = surgery._zero_log_transform(record, label)
        return record

    return {
        "zero log transform xa1": lambda: log_transforms("xa1"),
        "zero log transform xa1 then xb1": lambda: log_transforms("xa1", "xb1"),
        "nullhomotopic loop surgery": lambda: loop_surgery(
            even_base(), "c1", word="1", nullhomotopic=True
        ),
        "twist knot surgery": lambda: knot_surgery(
            even_base(), "T1", twist_knot_family(2)[1]
        ),
    }


# sha256 of compact_json(record_to_json(r)), taken with Python 3.11
CARRY_SHA256 = {
    "zero log transform xa1": (
        "eaca6819a99e53b3f4af5f1adcb88e82594b6a2b15a80a5cf0904523177b18d1"
    ),
    "zero log transform xa1 then xb1": (
        "fe07f49d79aad07a139b92785415b9bb5a97ebff143fab209751ea942bc9fc70"
    ),
    "nullhomotopic loop surgery": (
        "68ddf402d3729723e8677fe234024e235919ff30f8a99409b9dd3e8d0cbad1bd"
    ),
    "twist knot surgery": "e53e670307ed47330964d02c5d2a0f572c3313536daa4adefe3cfd74a3d589f6",
}


@pytest.mark.parametrize("case", sorted(CARRY_SHA256))
def test_carried_marks_are_pinned(case):
    # marks that no command prints, such as those the lemma suite's zero log
    # transforms leave behind, pinned byte for byte with the rest of the record
    record = _carry_cases()[case]()
    digest = hashlib.sha256(compact_json(record_to_json(record)).encode()).hexdigest()
    assert digest == CARRY_SHA256[case]


def test_stored_framing_pairing_fails_replay():
    # a fiber-sum step always stores a null framing pairing, so a report
    # that declares one, even the marks' own, does not replay to itself
    m = even_base()
    z = record_to_json(fiber_sum(m, "T2", kodaira_thurston_block(1), "T"))
    z["trace"][-1]["framing_pairing"] = [m.mark("T2").framing, "symplectic"]
    entry = verify_trace_report({"records": {"Z": z}})["records"]["Z"]
    assert entry["identical"] is False
    assert entry["differs"] == ["trace"]


def test_loop_surgery_essential_drops_b1_and_stabilizes_sw():
    block = kodaira_thurston_block(1)
    surgered = loop_surgery(block, "loop_b1")
    assert surgered.euler == block.euler + 2
    assert surgered.b1 == block.b1 - 1
    assert surgered.form.rows == block.form.rows
    assert surgered.sw is None
    assert "stabilized" in surgered.sw_reason
    assert surgered.name == "N1*"
    belt = surgered.mark("belt[loop_b1]")
    assert belt.kind == "sphere_link_component"
    assert belt.framing == "belt"
    assert belt.homology_class == (0,) * surgered.form.n
    assert "trivial_normal_bundle" in belt.flags


def test_loop_surgery_nullhomotopic_adds_hyperbolic_summand():
    m = even_base()  # even form
    surgered = loop_surgery(m, "c1", word="1", nullhomotopic=True)
    assert surgered.b1 == m.b1
    assert surgered.form.n == m.form.n + 2
    assert surgered.form.is_even()
    assert surgered.euler == m.euler + 2
    assert "undetermined_parity" not in surgered.flags


def test_loop_surgery_nullhomotopic_on_odd_form():
    m = odd_base()
    surgered = loop_surgery(m, "c1", word="1", nullhomotopic=True)
    assert surgered.form.n == m.form.n + 2
    assert not surgered.form.is_even()
    assert "undetermined_parity" in surgered.flags


def test_loop_surgery_requires_real_drop():
    block = kodaira_thurston_block(1)
    # x is central and survives to b1 only once; killing a commutator word
    # that is already trivial must be declared nullhomotopic instead
    with pytest.raises(SurgeryError):
        loop_surgery(block, "c", word="[x,y]")


def test_loop_surgery_refuses_a_taken_belt_label():
    # an inline-word loop is no mark, so nothing stops its label being reused
    once = loop_surgery(product_T2_Sigma_g(1), "c", word="1", nullhomotopic=True)
    with pytest.raises(SurgeryError, match=r"belt\[c\].* already marks"):
        loop_surgery(once, "c", word="1", nullhomotopic=True)


@pytest.mark.parametrize("glue", ["fiber_sum", "connected_sum"])
@pytest.mark.parametrize("surgered_side", ["A", "B"])
def test_glued_loops_stay_surgerable(glue, surgered_side):
    # a surgered copy's belt[loop_a1] and a fresh copy's loop_a1 must not
    # both survive the gluing under those names, or the loop's belt label
    # is taken before it is surgered
    fresh = product_T2_Sigma_g(1)
    surgered = loop_surgery(fresh, "loop_a1")
    a, b = (surgered, fresh) if surgered_side == "A" else (fresh, surgered)
    glued = fiber_sum(a, "T", b, "T") if glue == "fiber_sum" else connected_sum(a, b)
    loops = [m.label for m in glued.marks if m.kind == "loop"]
    assert len(loops) == 3
    for loop in loops:
        assert loop_surgery(glued, loop).mark(f"belt[{loop}]").kind == "sphere_link_component"


def test_sphere_surgery_inverts_loop_surgery():
    block = kodaira_thurston_block(2)
    step1 = loop_surgery(block, "loop_b1")
    step2 = loop_surgery(step1, "loop_b2")
    back1 = sphere_surgery(step2, "belt[loop_b2]")
    assert canonical_json(record_to_json(back1)) == canonical_json(record_to_json(step1))
    back0 = sphere_surgery(back1, "belt[loop_b1]")
    assert canonical_json(record_to_json(back0)) == canonical_json(record_to_json(block))


def test_sphere_surgery_rejects_non_belt_marks():
    m = even_base()
    with pytest.raises(SurgeryError, match="not a sphere-link component"):
        sphere_surgery(m, "T1")


def free2_zstar():
    z = fiber_sum(knot_surgery(even_base(), "T1", TREFOIL), "T2", kodaira_thurston_block(2), "T")
    return z, loop_surgery(loop_surgery(z, "loop_b1"), "loop_b2")


def test_sphere_surgery_batch_matches_sequential_calls():
    z, zs = free2_zstar()
    sequential = sphere_surgery(sphere_surgery(zs, "belt[loop_b1]"), "belt[loop_b2]")
    for labels in (("belt[loop_b1]", "belt[loop_b2]"), ("belt[loop_b2]", "belt[loop_b1]")):
        batch = sphere_surgery(zs, *labels)
        assert canonical_json(record_to_json(batch)) == canonical_json(
            record_to_json(sequential)
        )
    assert canonical_json(record_to_json(sequential)) == canonical_json(record_to_json(z))


def test_sphere_surgery_batch_rejects_bad_labels():
    _, zs = free2_zstar()
    with pytest.raises(SurgeryError, match="at least one"):
        sphere_surgery(zs)
    with pytest.raises(SurgeryError, match="more than once"):
        sphere_surgery(zs, "belt[loop_b1]", "belt[loop_b1]")
    with pytest.raises(SurgeryError, match="not a sphere-link component"):
        sphere_surgery(zs, "belt[loop_b1]", "T1")
    # the belt arrives through a connected sum, so no top-level loop
    # surgery step created it
    summed = connected_sum(standard_block("S4"), zs)
    assert summed.mark("belt[loop_b2]").kind == "sphere_link_component"
    with pytest.raises(SurgeryError, match="lacks reverse-trace data"):
        sphere_surgery(summed, "belt[loop_b2]")
    with pytest.raises(SurgeryError, match="lacks reverse-trace data"):
        sphere_surgery(summed, "belt[loop_b1]", "belt[loop_b2]")


_LOOP_STEP = {"op": "loop_surgery", "loop": "loop_b1", "word": "b1", "nullhomotopic": False}


# case -> (the reader, the index of the step it meets edited, that step, what
# its ValueError must name); "sphere" undoes the one loop surgery of N_1 with
# loop_b1 surgered, "spec" reads the spec of the even base
STEP_READS = {
    "loop missing": (
        "sphere", 1, {k: v for k, v in _LOOP_STEP.items() if k != "loop"},
        "loop_surgery step: missing field 'loop'",
    ),
    "loop an int": ("sphere", 1, {**_LOOP_STEP, "loop": 1}, "loop_surgery step: 'loop' must be str"),
    "base step an int": ("sphere", 0, 5, "a trace step must be an object, got int"),
    "loop step a list": ("sphere", 1, [], "a trace step must be an object, got list"),
    "args missing": (
        "spec", 0, {"op": "base", "constructor": "admissible_from_spec"},
        "base step: missing field 'args'",
    ),
    "spec missing": (
        "spec", 0, {"op": "base", "constructor": "admissible_from_spec", "args": {}},
        "base step: missing field 'spec'",
    ),
    "spec a list": (
        "spec", 0, {"op": "base", "constructor": "admissible_from_spec", "args": {"spec": []}},
        "base step: 'spec' must be dict, got list",
    ),
    "base step a string": ("spec", 0, "base", "a trace step must be an object, got str"),
}


@pytest.mark.parametrize("case", sorted(STEP_READS))
def test_step_reads_outside_replay_raise_value_error(case):
    # a record's own steps are read through the same field table as replay,
    # not by hand, so a malformed one is the one ValueError naming op and field
    reader, index, step, named = STEP_READS[case]
    if reader == "sphere":
        record = loop_surgery(kodaira_thurston_block(1), "loop_b1")
    else:
        record = even_base()
    trace = list(record.trace)
    trace[index] = step
    record = dataclasses.replace(record, trace=tuple(trace))
    with pytest.raises(ValueError) as failure:
        if reader == "sphere":
            sphere_surgery(record, "belt[loop_b1]")
        else:
            _spec(record)
    assert named in str(failure.value)


def test_connected_sum_arithmetic():
    a = even_base()
    b = standard_block("S2xS2")
    total = connected_sum(a, b)
    assert total.euler == a.euler + b.euler - 2
    assert total.form.n == a.form.n + b.form.n
    assert total.signature == a.signature + b.signature
    assert total.b1 == 0
    # two pieces with b+ >= 1: sw untracked with the vanishing reason recorded
    assert total.sw is None
    assert "b+" in total.sw_reason


def test_connected_sum_with_s4_preserves_sw():
    a = even_base()
    total = connected_sum(a, standard_block("S4"))
    assert total.sw == a.sw
    assert total.form.rows == a.form.rows


def test_connected_sum_transports_marks():
    block = standard_block("T2xS2")
    assert block.mark("T").complement is not None
    total = connected_sum(block, block)
    assert total.basis == ("T", "S", "T'", "S'")
    assert [m.label for m in total.marks] == ["T", "T'"]
    assert total.mark("T").homology_class == (1, 0, 0, 0)
    assert total.mark("T'").homology_class == (0, 0, 1, 0)
    assert total.mark("T").pi1_words == ("x", "y")
    assert total.mark("T'").pi1_words == ("x'", "y'")
    assert total.pi1.generators == ("x", "y", "x'", "y'")
    assert all(m.complement is None for m in total.marks)


def test_fiber_sum_drops_complement_models():
    t2xs2, product = standard_block("T2xS2"), product_T2_Sigma_g(1)
    # both blocks model the complement of their torus T; gluing along xa1
    # carries the product's T through, once on side A and once on side B
    assert t2xs2.mark("T").complement is not None
    assert product.mark("T").complement is not None
    for a, torus_a, b, torus_b in ((t2xs2, "T", product, "xa1"), (product, "xa1", t2xs2, "T")):
        glued = fiber_sum(a, torus_a, b, torus_b)
        assert all(m.complement is None for m in glued.marks)


def test_fiber_sum_of_twisted_blocks_marks_pi1_model():
    a = kodaira_thurston_block(1)
    b = kodaira_thurston_block(1)
    glued = fiber_sum(a, "T", b, "T")
    assert "pi1_model" in glued.flags
    assert invariant_tuple(glued) == invariant_tuple(kodaira_thurston_block(2))
    assert glued.sw == kodaira_thurston_block(2).sw
    # colliding B-side loop labels get primed
    labels = {m.label for m in glued.marks}
    assert "loop_b1" in labels and "loop_b1'" in labels


def test_full_chain_replay_is_byte_identical():
    m = knot_surgery(even_base(), "T1", TREFOIL)
    z = fiber_sum(m, "T2", kodaira_thurston_block(2), "T")
    zs = loop_surgery(loop_surgery(z, "loop_b1"), "loop_b2")
    rebuilt = build_from_trace(zs.trace)
    assert canonical_json(record_to_json(rebuilt)) == canonical_json(record_to_json(zs))


def test_replay_covers_connected_sum_and_nullhomotopic_loops():
    m = loop_surgery(
        connected_sum(even_base(), standard_block("S2xS2")),
        "c1",
        word="1",
        nullhomotopic=True,
    )
    rebuilt = build_from_trace(m.trace)
    assert canonical_json(record_to_json(rebuilt)) == canonical_json(record_to_json(m))


START = {
    "M_even": even_base,
    "M_odd": odd_base,
    "KT1": lambda: kodaira_thurston_block(1),
    "KT2": lambda: kodaira_thurston_block(2),
    "P1": lambda: product_T2_Sigma_g(1),
    "P2": lambda: product_T2_Sigma_g(2),
    "T2xS2": lambda: standard_block("T2xS2"),
}
GLUE_BLOCKS = (
    lambda: kodaira_thurston_block(1),
    lambda: product_T2_Sigma_g(1),
    lambda: standard_block("T2xS2"),
)
SUMMANDS = ("S4", "S2xS2", "S2xS2_twisted", "S1xS3")
TWISTS = twist_knot_family(4)


def _labels(record, kind):
    return sorted(m.label for m in record.marks if m.kind == kind)


def _random_operation(data, record):
    """One surgery on ``record`` drawn by ``data``, or None where its kind has
    no mark to act on."""
    tori, loops = _labels(record, "torus"), _labels(record, "loop")
    belts = _labels(record, "sphere_link_component")
    op = data.draw(
        st.sampled_from(["knot", "fiber", "loop", "connected_sum", "sphere"]), label="op"
    )
    if op == "knot" and tori:
        torus, knot = data.draw(st.sampled_from(tori)), data.draw(st.sampled_from(TWISTS))
        return lambda: knot_surgery(record, torus, knot)
    if op == "fiber" and tori:
        torus, block = data.draw(st.sampled_from(tori)), data.draw(st.sampled_from(GLUE_BLOCKS))
        return lambda: fiber_sum(record, torus, block(), "T")
    if op == "loop" and loops:
        loop = data.draw(st.sampled_from(loops))
        return lambda: loop_surgery(record, loop)
    if op == "connected_sum":
        summand = data.draw(st.sampled_from(SUMMANDS))
        return lambda: connected_sum(record, standard_block(summand))
    if op == "sphere" and belts:
        belt = data.draw(st.sampled_from(belts))
        return lambda: sphere_surgery(record, belt)
    return None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_surgery_sequences_replay_byte_for_byte(data):
    # whatever sequence of surgeries built a record, its trace alone
    # rebuilds it byte for byte
    record = START[data.draw(st.sampled_from(sorted(START)), label="start")]()
    for _ in range(data.draw(st.integers(1, 4), label="length")):
        operation = _random_operation(data, record)
        if operation is None:
            continue
        try:
            record = operation()
        except SurgeryError:
            pass  # a refused surgery leaves the record as it was
    assert same_json(record_to_json(build_from_trace(record.trace)), record_to_json(record))


def test_dissolve_after_stabilization():
    z = fiber_sum(
        knot_surgery(even_base(), "T1", TREFOIL),
        "T2",
        kodaira_thurston_block(2),
        "T",
    )
    stabilized = connected_sum(z, standard_block("S2xS2"))
    dissolved = dissolve_knot_surgery_after_stabilization(stabilized)
    assert invariant_tuple(dissolved) == invariant_tuple(stabilized)
    # the result no longer depends on which knot was used (traces aside)
    other = connected_sum(
        fiber_sum(
            knot_surgery(even_base(), "T1", twist_knot_family(5)[4]),
            "T2",
            kodaira_thurston_block(2),
            "T",
        ),
        standard_block("S2xS2"),
    )
    other_dissolved = dissolve_knot_surgery_after_stabilization(other)
    strip = lambda r: {k: v for k, v in record_to_json(r).items() if k != "trace"}
    assert canonical_json(strip(dissolved)) == canonical_json(strip(other_dissolved))
    # idempotent
    again = dissolve_knot_surgery_after_stabilization(dissolved)
    assert canonical_json(record_to_json(again)) == canonical_json(
        record_to_json(dissolved)
    )


def test_mirrored_gluing_quotients_side_a_and_dissolves_nested_knot_step():
    # the knot-surgered base is side B, so its knot step sits inside the
    # fiber sum's other_trace and the quotient is taken on side A
    block = kodaira_thurston_block(2)
    cores = []
    for knot in twist_knot_family(3):
        surgered = knot_surgery(even_base(), "T1", knot)
        mirrored = fiber_sum(block, "T", surgered, "T2")
        assert mirrored.trace[-1]["pi1_route"] == (
            "quotient of side A by the glued torus directions"
        )
        forward = fiber_sum(surgered, "T2", block, "T")
        assert invariant_tuple(mirrored) == invariant_tuple(forward)
        stabilized = connected_sum(mirrored, standard_block("S2xS2"))
        dissolved = dissolve_knot_surgery_after_stabilization(stabilized)
        assert invariant_tuple(dissolved) == invariant_tuple(stabilized)
        nested = dissolved.trace[1]["other_trace"]
        assert [s["op"] for s in nested] == ["base"]
        assert dissolved.trace[-1]["knot"] == knot.name
        cores.append({k: v for k, v in record_to_json(dissolved).items() if k != "trace"})
    assert all(same_json(cores[0], core) for core in cores[1:])


def test_sums_share_the_other_records_steps():
    a = knot_surgery(even_base(), "T1", TREFOIL)
    b = loop_surgery(kodaira_thurston_block(2), "loop_b1")
    for total in (connected_sum(a, b), fiber_sum(a, "T2", b, "T")):
        other = total.trace[-1]["other_trace"]
        assert len(other) == len(b.trace)
        assert all(mine is theirs for mine, theirs in zip(other, b.trace))


def test_dissolved_trace_shares_steps_off_the_knot_path(monkeypatch):
    replayed = []

    def spy(trace, memo=None):
        replayed.append(tuple(trace))
        return build_from_trace(trace, memo)

    monkeypatch.setattr(surgery, "build_from_trace", spy)

    def dissolved_trace(stabilized):
        replayed.clear()
        dissolve_knot_surgery_after_stabilization(stabilized)
        return replayed[0]

    s2xs2 = standard_block("S2xS2")
    block = kodaira_thurston_block(2)
    surgered = knot_surgery(even_base(), "T1", TREFOIL)
    # top level: the knot step is dropped and every other step is shared
    stabilized = connected_sum(fiber_sum(surgered, "T2", block, "T"), s2xs2)
    after = dissolved_trace(stabilized)
    kept = [s for i, s in enumerate(stabilized.trace) if i != 1]
    assert [s["op"] for s in after] == [s["op"] for s in kept] + ["note"]
    assert all(mine is theirs for mine, theirs in zip(after, kept))
    # the replayed record ends in that same note step
    assert build_from_trace(after).trace[-1] is after[-1]
    # nested, as in the mirrored gluing: only the fiber-sum step that holds
    # the knot step is rebuilt, and the stabilized record keeps its own
    stabilized = connected_sum(fiber_sum(block, "T", surgered, "T2"), s2xs2)
    before, after = stabilized.trace, dissolved_trace(stabilized)
    assert after[0] is before[0] and after[2] is before[2]
    assert after[1] is not before[1]
    assert {k: v for k, v in after[1].items() if k != "other_trace"} == {
        k: v for k, v in before[1].items() if k != "other_trace"
    }
    assert len(after[1]["other_trace"]) == 1
    assert after[1]["other_trace"][0] is before[1]["other_trace"][0]
    assert [s["op"] for s in before[1]["other_trace"]] == ["base", "knot_surgery"]


def test_dissolve_requires_stabilization():
    z = fiber_sum(
        knot_surgery(even_base(), "T1", TREFOIL),
        "T2",
        kodaira_thurston_block(2),
        "T",
    )
    with pytest.raises(SurgeryError):
        dissolve_knot_surgery_after_stabilization(z)


def test_mandelbaum_gompf_hypotheses_branches():
    assert mandelbaum_gompf_hypotheses(even_base(), "T2") == ("spin", None)
    branch, detail = mandelbaum_gompf_hypotheses(odd_base(), "T2")
    assert branch == "nonspin-complement"
    assert "witness" in detail
    # admissibility leaves S2.S2 free; the witness hunt needs it even
    spec = json.loads(spec_text("odd"))
    spec["gram"][3][3] = 1
    with pytest.raises(SurgeryError, match="S2 must have even square"):
        mandelbaum_gompf_hypotheses(admissible_from_spec(json.dumps(spec)), "T2")
