"""Exact group-ring arithmetic: ring laws, substitution, unit comparison."""
import pytest
from hypothesis import given, settings, strategies as st

from exolink.groupring import (
    GroupRingElement,
    embed_knot_poly_at_class,
    equal_up_to_units,
    format_univariate,
    from_text,
    to_text,
    unit_collisions,
    unit_normal_form,
)


def _elem(nvars: int, terms: dict) -> GroupRingElement:
    return GroupRingElement.from_terms(nvars, terms.items())


def elements(nvars: int):
    exponents = st.tuples(*([st.integers(-3, 3)] * nvars))
    return st.dictionaries(exponents, st.integers(-5, 5), max_size=4).map(
        lambda d: _elem(nvars, d)
    )


def test_zero_and_one():
    zero = GroupRingElement.zero(2)
    one = GroupRingElement.one(2)
    assert zero.is_zero
    assert not one.is_zero
    assert one.terms == (((0, 0), 1),)
    assert to_text(zero) == "0"
    assert to_text(one) == "1"


def test_addition_cancels_to_zero():
    a = _elem(1, {(2,): 3, (0,): -1})
    assert (a - a).is_zero
    assert (a + (-a)).is_zero


def test_multiplication_example():
    # (t - 1)(t + 1) = t^2 - 1
    t = GroupRingElement.monomial(1, (1,))
    one = GroupRingElement.one(1)
    assert (t - one) * (t + one) == t * t - one


def test_power_and_shift():
    t = GroupRingElement.monomial(1, (1,))
    one = GroupRingElement.one(1)
    u = t - one
    assert u ** 0 == one
    assert u ** 2 == t * t - 2 * t + one
    assert u.shift((3,)) == GroupRingElement.monomial(1, (4,)) - GroupRingElement.monomial(1, (3,))


def test_invert_vars_is_involutive():
    a = _elem(2, {(1, -2): 3, (0, 1): -4})
    assert a.invert_vars().invert_vars() == a


def test_substitute_hom_rows_are_target_coordinates():
    # x1 -> y1 + 2 y2, x2 -> -y1: each entry of the image of (e1, e2) is one
    # target coordinate, (e1 - e2, 2 e1)
    a = _elem(2, {(1, 0): 1, (0, 1): 1})
    image = a.substitute_hom(lambda e: [e[0] - e[1], 2 * e[0]], 2)
    assert image == _elem(2, {(1, 2): 1, (-1, 0): 1})


def test_substitute_hom_row_length_checked():
    # a moved exponent must have nvars coordinates
    a = _elem(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        a.substitute_hom(lambda e: [e[0]], 2)


def test_evaluate_at_one():
    a = _elem(1, {(2,): 1, (0,): -1, (-2,): 1})
    assert a.evaluate_at_one() == 1


def test_embed_knot_poly_doubles_exponents_at_class():
    # c * t^j goes to c * x^(2j * class); trefoil pattern lands on variable 1 of 3
    delta = _elem(1, {(1,): 1, (0,): -1, (-1,): 1})
    target = embed_knot_poly_at_class(delta, (0, 1, 0))
    assert target == _elem(3, {(0, 2, 0): 1, (0, 0, 0): -1, (0, -2, 0): 1})


def test_equal_up_to_units_detects_sign_and_shift():
    a = _elem(1, {(1,): 1, (0,): -3, (-1,): 1})
    shifted = -a.shift((2,))
    match = equal_up_to_units(a, shifted)
    assert match.equal
    assert match.sign == -1
    assert not match.inverted
    # inversion requires the flag (coefficients here are not palindromic,
    # so the mirror image is not a plain unit multiple)
    mirrored = _elem(1, {(2,): 1, (1,): 2, (0,): -1})
    flipped = mirrored.invert_vars()
    assert not equal_up_to_units(mirrored, flipped, allow_inversion=False).equal
    match = equal_up_to_units(mirrored, flipped, allow_inversion=True)
    assert match.equal
    assert match.inverted


def test_equal_up_to_units_rejects_different_polynomials():
    a = _elem(1, {(1,): 1, (0,): -1, (-1,): 1})
    b = _elem(1, {(1,): 1, (0,): -3, (-1,): 1})
    assert not equal_up_to_units(a, b, allow_inversion=True).equal


def test_text_round_trip():
    a = _elem(3, {(1, 0, -2): 2, (0, 0, 0): -1})
    assert from_text(to_text(a), 3) == a
    assert from_text("t1^-2*t3^4", 3) == _elem(3, {(-2, 0, 4): 1})


def test_format_univariate():
    a = _elem(1, {(1,): 1, (0,): -1, (-1,): 1})
    assert format_univariate(a) == "t - 1 + t^-1"
    assert format_univariate(GroupRingElement.one(1)) == "1"


@settings(max_examples=60)
@given(elements(2), elements(2), elements(2))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60)
@given(elements(2), st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.sampled_from([1, -1]))
def test_unit_multiples_always_match(a, shift, sign):
    b = a.shift(shift) * sign
    match = equal_up_to_units(a, b)
    if a.is_zero:
        assert match.equal == b.is_zero
    else:
        assert match.equal
        # the witness reconstructs a from b
        assert (b * match.sign).shift(match.shift) == a


@settings(max_examples=60)
@given(elements(1))
def test_text_round_trip_property(a):
    assert from_text(to_text(a), 1) == a


def test_unit_normal_form_examples():
    assert unit_normal_form(GroupRingElement.zero(2)) == ()
    a = _elem(1, {(2,): -3, (4,): 1})
    # a's own form is (((0,), 3), ((2,), -1)); its inverse's sorts first
    assert unit_normal_form(a) == (((0,), 1), ((2,), -3))
    assert unit_normal_form(a.invert_vars()) == unit_normal_form(a)


@settings(max_examples=300)
@given(
    elements(2),
    elements(2),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.sampled_from([1, -1]),
    st.sampled_from(["other", "unit", "inverted", "zero"]),
)
def test_unit_normal_form_keys_agree_with_equal_up_to_units(a, other, shift, sign, kind):
    b = {
        "other": other,
        "unit": (a * sign).shift(shift),
        "inverted": (a.invert_vars() * sign).shift(shift),
        "zero": GroupRingElement.zero(2),
    }[kind]
    same_key = unit_normal_form(a) == unit_normal_form(b)
    assert same_key == equal_up_to_units(a, b, allow_inversion=True).equal


@settings(max_examples=300)
@given(
    st.lists(elements(2), min_size=1, max_size=3),
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(["same", "negated", "shifted", "inverted", "zero"]),
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            st.sampled_from([1, -1]),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_unit_collisions_match_pairwise_grouping(bases, members):
    def copy(index, kind, shift, sign):
        a = bases[index % len(bases)]
        return {
            "same": a,
            "negated": -a,
            "shifted": (a * sign).shift(shift),
            "inverted": (a.invert_vars() * sign).shift(shift),
            "zero": GroupRingElement.zero(2),
        }[kind]

    named = {f"k{i}": copy(*member) for i, member in enumerate(members)}
    # brute force: every name against every name, groups in order of first name
    expected = []
    for elem in named.values():
        group = [
            name
            for name, other in named.items()
            if equal_up_to_units(elem, other, allow_inversion=True).equal
        ]
        if len(group) > 1 and group not in expected:
            expected.append(group)
    assert unit_collisions(named) == expected


def _assert_canonical(x: GroupRingElement) -> None:
    exps = [e for e, _ in x.terms]
    assert exps == sorted(set(exps))
    assert all(len(e) == x.nvars and c != 0 for e, c in x.terms)
    assert GroupRingElement(x.nvars, x.terms) == x


def _matrix_map(matrix):
    # e -> matrix @ e, the rows being target coordinates
    return lambda e: [sum(m * x for m, x in zip(row, e)) for row in matrix]


@st.composite
def pushforwards(draw):
    # an s x nvars matrix built column by column: zero, one nonzero, or several
    nvars, s = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    columns = []
    for _ in range(nvars):
        kind = draw(st.sampled_from(["zero", "one", "several"]))
        column = [0] * s
        if kind == "one" and s:
            column[draw(st.integers(0, s - 1))] = draw(st.sampled_from([-2, -1, 1, 3]))
        elif kind == "several":
            column = draw(st.lists(st.integers(-2, 2), min_size=s, max_size=s))
        columns.append(column)
    matrix = [[columns[j][i] for j in range(nvars)] for i in range(s)]
    return draw(elements(nvars)), matrix


@settings(max_examples=150)
@given(pushforwards())
def test_substitute_hom_matches_dense_reference(case):
    a, matrix = case
    dense: dict = {}
    for e, c in a.terms:
        key = tuple(sum(row[j] * e[j] for j in range(a.nvars)) for row in matrix)
        dense[key] = dense.get(key, 0) + c
    image = a.substitute_hom(_matrix_map(matrix), len(matrix))
    assert image.nvars == len(matrix)
    assert dict(image.terms) == {e: c for e, c in dense.items() if c}
    _assert_canonical(image)


@settings(max_examples=150)
@given(st.data())
def test_substitute_hom_is_a_ring_homomorphism(data):
    b, matrix = data.draw(pushforwards())
    a = data.draw(elements(b.nvars))
    move = _matrix_map(matrix)

    def f(x):
        return x.substitute_hom(move, len(matrix))

    assert f(a * b) == f(a) * f(b)
    assert f(a + b) == f(a) + f(b)


@settings(max_examples=150)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(elements(n), elements(n))))
def test_mul_is_canonical_and_matches_dense_reference(pair):
    a, b = pair
    dense: dict = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            key = tuple(x + y for x, y in zip(ea, eb))
            dense[key] = dense.get(key, 0) + ca * cb
    product = a * b
    assert dict(product.terms) == {e: c for e, c in dense.items() if c}
    _assert_canonical(product)
    _assert_canonical(a.shift((1,) * a.nvars))
