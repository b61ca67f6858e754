"""Alexander engine: frozen family table, two independent computation routes,
Markov-move invariance, braid parsing."""
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from exolink import knots
from exolink.groupring import (
    GroupRingElement,
    equal_up_to_units,
    format_univariate,
    from_text,
)
from exolink.knots import (
    BraidWord,
    KnotRecord,
    TWIST_BRAIDS,
    alexander_poly,
    braid_to_text,
    fox_alexander,
    is_symmetric,
    knot_from_spec,
    normalize_alexander,
    parse_braid,
    twist_knot_family,
    wirtinger_presentation,
)

# classical twist-knot values (trefoil, figure-eight, 5_2, 6_1, 7_2, 8_1, ...),
# cross-derived here by the reduced-Burau and Fox-calculus routes
FROZEN_TWIST_TABLE = (
    "1",
    "t - 1 + t^-1",
    "-t + 3 - t^-1",
    "2*t - 3 + 2*t^-1",
    "-2*t + 5 - 2*t^-1",
    "3*t - 5 + 3*t^-1",
    "-3*t + 7 - 3*t^-1",
    "4*t - 7 + 4*t^-1",
    "-4*t + 9 - 4*t^-1",
    "5*t - 9 + 5*t^-1",
    "-5*t + 11 - 5*t^-1",
)


def test_unknot_polynomial_is_one():
    assert alexander_poly(parse_braid("1:")) == GroupRingElement.one(1)
    assert alexander_poly(parse_braid("2: s1")) == GroupRingElement.one(1)


def test_trefoil_matches_classical_value_exactly():
    assert format_univariate(alexander_poly(parse_braid("2: s1^3"))) == "t - 1 + t^-1"


def test_alexander_poly_memoized_by_value(monkeypatch):
    alexander_poly.cache_clear()
    calls = []
    original = knots._bareiss_laurent

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(knots, "_bareiss_laurent", counting)
    a, b = parse_braid("2: s1^3"), parse_braid("2: s1^3")
    assert a == b and a is not b
    assert alexander_poly(a) == alexander_poly(b)
    assert len(calls) == 1


def test_figure_eight_matches_classical_value_up_to_units():
    got = alexander_poly(parse_braid("3: s1 s2^-1 s1 s2^-1"))
    classical = from_text("t1 - 3 + t1^-1", 1)
    assert equal_up_to_units(got, classical, allow_inversion=True).equal


def test_frozen_twist_table():
    family = twist_knot_family(len(TWIST_BRAIDS))
    assert tuple(format_univariate(k.alexander) for k in family) == FROZEN_TWIST_TABLE


def test_burau_and_fox_routes_agree_on_all_family_braids():
    for text in TWIST_BRAIDS:
        braid = parse_braid(text)
        burau = alexander_poly(braid)
        fox = normalize_alexander(fox_alexander(braid))
        assert equal_up_to_units(burau, fox, allow_inversion=True).equal


def test_family_values_are_normalized():
    for record in twist_knot_family(len(TWIST_BRAIDS)):
        assert record.alexander.evaluate_at_one() == 1
        assert is_symmetric(record.alexander)


def test_family_is_alexander_separated_both_modes():
    family = twist_knot_family(10)
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            for inversion in (False, True):
                assert not equal_up_to_units(
                    family[i].alexander,
                    family[j].alexander,
                    allow_inversion=inversion,
                ).equal


def test_knot_record_from_braid_accepts_text():
    rec = KnotRecord.from_braid("trefoil", "2: s1^3")
    assert rec.name == "trefoil"
    assert rec.braid.strands == 2
    assert format_univariate(rec.alexander) == "t - 1 + t^-1"


def test_knot_from_spec_forms():
    assert [k.name for k in knot_from_spec("twist:0..2")] == [
        "twist_0",
        "twist_1",
        "twist_2",
    ]
    (single,) = knot_from_spec("twist:3")
    assert single.name == "twist_3"
    (literal,) = knot_from_spec("2: s1^3")
    assert literal.braid.letters == (1, 1, 1)
    with pytest.raises(ValueError):
        knot_from_spec("twist:2..5")


def test_parse_braid_error_messages():
    with pytest.raises(ValueError, match="missing ':'"):
        parse_braid("s1 s2")
    with pytest.raises(ValueError, match="bad strand count"):
        parse_braid("x: s1")
    with pytest.raises(ValueError, match="bad braid token"):
        parse_braid("2: q9")
    with pytest.raises(ValueError, match="out of range"):
        parse_braid("2: s5")


def test_braid_text_round_trip():
    braid = parse_braid("3: s1^3 s2^-1 s1")
    assert parse_braid(braid_to_text(braid)) == braid


def test_closure_components():
    assert parse_braid("2: s1").closure_components() == 1
    assert parse_braid("2:").closure_components() == 2
    assert parse_braid("3: s1 s2").closure_components() == 1


def test_wirtinger_presentation_abelianizes_to_Z():
    for text in ("2: s1^3", "3: s1 s2^-1 s1 s2^-1"):
        pres = wirtinger_presentation(parse_braid(text))
        assert pres.abelianization() == (1, ())


def _cycle_ids(perm):
    ids = [-1] * len(perm)
    label = 0
    for start in range(len(perm)):
        if ids[start] == -1:
            j = start
            while ids[j] == -1:
                ids[j] = label
                j = perm[j]
            label += 1
    return ids


@st.composite
def knotted_braids(draw):
    """Random braids whose closure is a knot (extra crossings join components)."""
    strands = draw(st.integers(2, 4))
    gens = [k for k in range(-(strands - 1), strands) if k != 0]
    letters = list(draw(st.lists(st.sampled_from(gens), max_size=6)))
    braid = BraidWord(strands, tuple(letters))
    while braid.closure_components() > 1:
        ids = _cycle_ids(braid.permutation())
        join = next(k for k in range(strands - 1) if ids[k] != ids[k + 1])
        letters.append(join + 1)
        braid = BraidWord(strands, tuple(letters))
    return braid


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_markov_conjugation_invariance(data):
    braid = data.draw(knotted_braids())
    i = data.draw(st.integers(1, braid.strands - 1))
    base = alexander_poly(braid)
    conj = alexander_poly(braid.conjugated(i))
    assert equal_up_to_units(base, conj, allow_inversion=True).equal


@settings(max_examples=40, deadline=None)
@given(knotted_braids(), st.sampled_from([1, -1]))
def test_markov_stabilization_invariance(braid, sign):
    base = alexander_poly(braid)
    stab = alexander_poly(braid.stabilized(sign))
    assert equal_up_to_units(base, stab, allow_inversion=True).equal


@settings(max_examples=25, deadline=None)
@given(knotted_braids())
def test_fox_route_agrees_on_random_knots(braid):
    burau = alexander_poly(braid)
    fox = normalize_alexander(fox_alexander(braid))
    assert equal_up_to_units(burau, fox, allow_inversion=True).equal


_laurent = st.dictionaries(
    st.integers(-2, 2), st.integers(-3, 3), max_size=3
).map(lambda coeffs: GroupRingElement.from_terms(1, {(e,): c for e, c in coeffs.items()}))


@st.composite
def laurent_matrices(draw):
    """Square 1x1..5x5 matrices of small Laurent polynomials; about half are
    made singular by overwriting the last row with a multiple of the first."""
    m = draw(st.integers(1, 5))
    rows = [[draw(_laurent) for _ in range(m)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        factor = draw(_laurent)
        rows[-1] = [factor * entry for entry in rows[0]]
    return rows


def _to_sympy(poly, t):
    return sum((c * t**e for (e,), c in poly.terms), sympy.Integer(0))


@settings(max_examples=80, deadline=None)
@given(laurent_matrices())
def test_bareiss_laurent_matches_sympy_det(rows):
    """Burau and Fox share this determinant, so their agreement cannot check
    it; sympy's division-free Berkowitz determinant is the independent oracle."""
    t = sympy.Symbol("t")
    matrix = sympy.Matrix([[_to_sympy(e, t) for e in row] for row in rows])
    ref = matrix.det(method="berkowitz")
    got = knots._bareiss_laurent([list(row) for row in rows])
    assert sympy.expand(_to_sympy(got, t) - ref) == 0
