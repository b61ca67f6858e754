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
        assert record.alexander == record.alexander.invert_vars()  # symmetric


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


def test_family_collision_names_the_pair(monkeypatch):
    # the mirror trefoil and a stabilized trefoil repeat the trefoil's polynomial
    table = ("1:", "2: s1^3", "3: s1 s2^-1 s1 s2^-1", "2: s1^-3", "3: s1^3 s2")
    monkeypatch.setattr(knots, "TWIST_BRAIDS", table)
    assert len(twist_knot_family(3)) == 3
    with pytest.raises(ValueError, match="twist_1 and twist_3 agree up to units"):
        twist_knot_family(4)
    monkeypatch.setattr(knots, "TWIST_BRAIDS", table[:3] + table[4:])
    with pytest.raises(ValueError, match="twist_1 and twist_3 agree up to units"):
        twist_knot_family(4)


@pytest.mark.parametrize("unit", ["t1", "-1"])
def test_family_collision_up_to_a_unit_names_the_pair(monkeypatch, unit):
    # alexander_poly normalises every braid it computes, so only a patched
    # value can give a polynomial that equals an earlier one up to a unit
    real = knots.alexander_poly
    unit_multiple = real(parse_braid(TWIST_BRAIDS[1])) * from_text(unit, 1)
    third = parse_braid(TWIST_BRAIDS[3])
    monkeypatch.setattr(
        knots, "alexander_poly", lambda braid: unit_multiple if braid == third else real(braid)
    )
    assert len(twist_knot_family(3)) == 3
    with pytest.raises(ValueError, match="twist_1 and twist_3 agree up to units"):
        twist_knot_family(4)


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
    conj = alexander_poly(BraidWord(braid.strands, (i,) + braid.letters + (-i,)))
    assert equal_up_to_units(base, conj, allow_inversion=True).equal


@settings(max_examples=40, deadline=None)
@given(knotted_braids(), st.sampled_from([1, -1]))
def test_markov_stabilization_invariance(braid, sign):
    base = alexander_poly(braid)
    # Markov stabilization: one more strand and the letter sign * s_n
    stabilized = BraidWord(braid.strands + 1, braid.letters + (sign * braid.strands,))
    stab = alexander_poly(stabilized)
    assert equal_up_to_units(base, stab, allow_inversion=True).equal


@settings(max_examples=25, deadline=None)
@given(knotted_braids())
def test_fox_route_agrees_on_random_knots(braid):
    burau = alexander_poly(braid)
    fox = normalize_alexander(fox_alexander(braid))
    assert equal_up_to_units(burau, fox, allow_inversion=True).equal


def _torus_braid(p, q, first=1):
    """(s_first ... s_{first+p-2})^q: the torus knot T(p, q) on strands first..first+p-1."""
    return " ".join([" ".join(f"s{first + i}" for i in range(p - 1))] * q)


def _torus_closed_form(blocks):
    """The product over blocks (p, q) of (t^pq - 1)(t - 1)/((t^p - 1)(t^q - 1)),
    centred on t^0, as an element."""
    t = sympy.Symbol("t")
    product = sympy.Integer(1)
    for p, q in blocks:
        product *= sympy.cancel((t ** (p * q) - 1) * (t - 1) / ((t**p - 1) * (t**q - 1)))
    coeffs = sympy.Poly(sympy.expand(product), t).all_coeffs()[::-1]
    half = (len(coeffs) - 1) // 2
    return GroupRingElement.from_terms(1, {(i - half,): int(c) for i, c in enumerate(coeffs)})


@pytest.mark.parametrize(
    "blocks",
    [[(p, p + 1)] for p in range(5, 10)] + [[(3, 4), (2, 5), (4, 5)]],
    ids=lambda blocks: "+".join(f"T{p}_{q}" for p, q in blocks),
)
def test_wide_torus_braids_match_closed_form(blocks):
    """Both routes on braids of 5 to 9 strands: torus knots, and a connected
    sum made by chaining torus blocks on a shared strand."""
    first, words = 1, []
    for p, q in blocks:
        words.append(_torus_braid(p, q, first))
        first += p - 1
    braid = parse_braid(f"{first}: " + " ".join(words))
    expected = _torus_closed_form(blocks)
    assert alexander_poly(braid) == expected
    assert fox_alexander(braid) == expected


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


def _dense(poly):
    """The (lo, coeffs) form of the knots kernel for a univariate element."""
    if poly.is_zero:
        return (0, ())
    lo, hi = poly.terms[0][0][0], poly.terms[-1][0][0]
    coeffs = dict(poly.terms)
    return (lo, tuple(coeffs.get((e,), 0) for e in range(lo, hi + 1)))


@settings(max_examples=80, deadline=None)
@given(laurent_matrices())
def test_bareiss_laurent_matches_sympy_det(rows):
    """Burau and Fox share this determinant, so their agreement cannot check
    it; sympy's division-free Berkowitz determinant is the independent oracle."""
    t = sympy.Symbol("t")
    matrix = sympy.Matrix([[_to_sympy(e, t) for e in row] for row in rows])
    ref = matrix.det(method="berkowitz")
    got = knots._to_element(knots._bareiss_laurent([[_dense(e) for e in row] for row in rows]))
    assert sympy.expand(_to_sympy(got, t) - ref) == 0


_wide_laurent = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=6).map(
    lambda coeffs: GroupRingElement.from_terms(1, {(e,): c for e, c in coeffs.items()})
)


@settings(max_examples=100, deadline=None)
@given(_wide_laurent, _wide_laurent.filter(lambda d: not d.is_zero))
def test_laurent_exact_div_inverts_multiplication(q, d):
    assert knots.laurent_exact_div(_dense(q * d), _dense(d)) == _dense(q)


@settings(max_examples=100, deadline=None)
@given(_wide_laurent, _wide_laurent.filter(lambda d: len(d.terms) >= 2), st.data())
def test_laurent_exact_div_refuses_a_non_multiple(q, d, data):
    # every nonzero multiple of d spans at least as many degrees as d, so
    # q * d + r, for a nonzero r of smaller span, is no multiple of d
    span = d.terms[-1][0][0] - d.terms[0][0][0]
    lo = data.draw(st.integers(-6, 6))
    r = data.draw(
        st.dictionaries(
            st.integers(lo, lo + span - 1), st.integers(-9, 9).filter(bool), min_size=1
        )
    )
    remainder = GroupRingElement.from_terms(1, {(e,): c for e, c in r.items()})
    with pytest.raises(ValueError, match="not exact"):
        knots.laurent_exact_div(_dense(q * d + remainder), _dense(d))
