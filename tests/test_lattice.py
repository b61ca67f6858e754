"""Integer symmetric forms: invariants, classification, Smith form, witnesses."""
from unittest import mock

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from hypothesis import example, given, settings, strategies as st

from exolink import lattice
from exolink.lattice import (
    IntSymMatrix,
    abelian_invariants_from_matrix,
    admissible_check,
    complement_nonspin_witness,
    direct_sum,
    find_nonspin_witness,
    hyperbolic_pair,
    indefinite_unimodular_iso,
    invariants,
    smith_normal_form as snf,
)


def e8_gram() -> IntSymMatrix:
    """The positive definite even unimodular rank-8 form (Cartan matrix)."""
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = 2
    for i in range(6):
        rows[i][i + 1] = rows[i + 1][i] = -1
    rows[4][7] = rows[7][4] = -1
    return IntSymMatrix.from_rows(rows)


def negate(a: IntSymMatrix) -> IntSymMatrix:
    return IntSymMatrix.from_rows([[-x for x in row] for row in a.rows])


def test_hyperbolic_pair_invariants():
    h = hyperbolic_pair()
    inv = invariants(h)
    assert (inv.rank, inv.b_plus, inv.b_minus) == (2, 1, 1)
    assert inv.signature == 0
    assert inv.parity == "even"
    assert inv.unimodular
    assert inv.indefinite


def test_e8_invariants():
    inv = invariants(e8_gram())
    assert inv.rank == 8
    assert inv.signature == 8
    assert inv.parity == "even"
    assert inv.unimodular
    assert (inv.b_plus, inv.b_minus) == (8, 0)


def test_k3_style_direct_sum():
    q = direct_sum(*([hyperbolic_pair()] * 3 + [negate(e8_gram())] * 2))
    inv = invariants(q)
    assert inv.rank == 22
    assert inv.signature == -16
    assert inv.parity == "even"
    assert inv.unimodular


def test_invariants_memoized_by_value(monkeypatch):
    invariants.cache_clear()
    calls = []
    original = lattice.congruence_diagonal

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(lattice, "congruence_diagonal", counting)
    a, b = e8_gram(), e8_gram()
    assert a == b and a is not b
    assert invariants(a) == invariants(b)
    assert len(calls) == 1


def test_is_even_method():
    assert hyperbolic_pair().is_even()
    assert not IntSymMatrix.diagonal((1, -1)).is_even()


def test_indefinite_unimodular_iso():
    a = direct_sum(hyperbolic_pair(), hyperbolic_pair())
    b = direct_sum(hyperbolic_pair(), hyperbolic_pair())
    assert indefinite_unimodular_iso(a, b)
    # same rank and signature but different parity: not isomorphic
    odd = IntSymMatrix.diagonal((1, 1, -1, -1))
    assert not indefinite_unimodular_iso(a, odd)
    with pytest.raises(ValueError):
        indefinite_unimodular_iso(e8_gram(), e8_gram())
    with pytest.raises(ValueError):
        indefinite_unimodular_iso(
            IntSymMatrix.diagonal((2,)), IntSymMatrix.diagonal((2,))
        )


def test_smith_normal_form_against_sympy():
    samples = [
        [[2, 4], [4, 2]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 6]],
        [[12, 6, 4], [6, 10, 2], [4, 2, 8]],
        [[1, 0], [0, 0]],
    ]
    for rows in samples:
        cert = snf(rows)
        ref = smith_normal_form(sympy.Matrix(rows))
        ref_factors = [abs(ref[i, i]) for i in range(min(ref.shape)) if ref[i, i] != 0]
        ours = [f for f in cert.factors if f != 0]
        assert ours == ref_factors


def test_smith_certificate_multiplies_out():
    rows = [[12, 6, 4], [6, 10, 2], [4, 2, 8]]
    cert = snf(rows)
    u = sympy.Matrix(cert.u)
    v = sympy.Matrix(cert.v)
    d = sympy.Matrix(cert.d)
    assert u * sympy.Matrix(rows) * v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1


def test_abelian_invariants_from_matrix():
    # relations 2a = 0, b free
    free_rank, torsion = abelian_invariants_from_matrix([[2, 0]], 2)
    assert free_rank == 1
    assert torsion == (2,)


def test_complement_nonspin_witness():
    q = direct_sum(hyperbolic_pair(), IntSymMatrix.diagonal((1, -1, -1, -1)))
    t2 = (1, 0, 0, 0, 0, 0)
    s2 = (0, 1, 0, 0, 0, 0)
    alpha = (0, 0, 1, 0, 0, 0)  # odd square
    sigma = complement_nonspin_witness(q, alpha, t2, s2)
    assert sigma is not None
    # the witness is orthogonal to T2 and has odd square
    assert q.pair(sigma, t2) == 0
    assert q.pair(sigma, sigma) % 2 == 1
    # even-square classes yield no witness
    assert complement_nonspin_witness(q, (0, 1, 0, 0, 0, 0), t2, s2) is None


def test_find_nonspin_witness_scans_basis():
    q = direct_sum(hyperbolic_pair(), IntSymMatrix.diagonal((1, -1, -1, -1)))
    t2 = (1, 0, 0, 0, 0, 0)
    s2 = (0, 1, 0, 0, 0, 0)
    sigma = find_nonspin_witness(q, t2, s2)
    assert sigma is not None
    assert q.pair(sigma, sigma) % 2 == 1
    # an even form has no odd-square class at all
    even = direct_sum(hyperbolic_pair(), hyperbolic_pair())
    assert find_nonspin_witness(even, (1, 0, 0, 0), (0, 1, 0, 0)) is None


def _admissible_fixture_form():
    return direct_sum(*([hyperbolic_pair()] * 3 + [negate(e8_gram())] * 2))


def test_admissible_check_accepts():
    q = _admissible_fixture_form()
    assert admissible_check(q, {"T1": 0, "S1": 1, "T2": 2, "S2": 3}) == ()


def test_admissible_check_rejects_definite():
    violations = admissible_check(e8_gram(), {"T1": 0, "S1": 1, "T2": 2, "S2": 3})
    assert "form not indefinite" in violations


def test_admissible_check_rejects_small_rank():
    q = direct_sum(hyperbolic_pair(), hyperbolic_pair())
    # rank 4, |signature| 0; the margin clause needs rank >= |sigma| + 4
    # with two disjoint hyperbolic pairs spoken for; use overlapping roles
    violations = admissible_check(
        direct_sum(hyperbolic_pair(), negate(e8_gram())),
        {"T1": 0, "S1": 1, "T2": 2, "S2": 3},
    )
    assert any("rank" in v for v in violations)


@st.composite
def small_symmetric(draw):
    n = draw(st.integers(2, 4))
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[(i, j)] = draw(st.integers(-4, 4))
    rows = [[entries[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    return IntSymMatrix.from_rows(rows)


@st.composite
def unimodular_change(draw, n):
    # product of elementary row additions and sign flips
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        c = draw(st.integers(-2, 2))
        for k in range(n):
            mat[i][k] += c * mat[j][k]
    i = draw(st.integers(0, n - 1))
    for k in range(n):
        mat[i][k] = -mat[i][k]
    return mat


@settings(max_examples=40)
@given(st.data())
def test_invariants_are_congruence_invariant(data):
    q = data.draw(small_symmetric())
    u = data.draw(unimodular_change(q.n))
    n = q.n
    transformed = [
        [
            sum(u[i][a] * q.entry(a, b) * u[j][b] for a in range(n) for b in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    left = invariants(q)
    right = invariants(IntSymMatrix.from_rows(transformed))
    assert (left.rank, left.b_plus, left.b_minus) == (right.rank, right.b_plus, right.b_minus)
    assert left.parity == right.parity
    assert abs(left.determinant) == abs(right.determinant)


@settings(max_examples=40)
@given(st.data())
def test_smith_factors_divide_in_chain(data):
    q = data.draw(small_symmetric())
    cert = snf([list(r) for r in q.rows])
    nonzero = [f for f in cert.factors if f != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


@settings(max_examples=60)
@given(st.data())
def test_pair_matches_dense_double_sum(data):
    q = data.draw(small_symmetric())
    vector = st.lists(st.integers(-3, 3), min_size=q.n, max_size=q.n)
    x, y = data.draw(vector), data.draw(vector)
    dense = sum(x[i] * q.entry(i, j) * y[j] for i in range(q.n) for j in range(q.n))
    assert q.pair(x, y) == dense
    with pytest.raises(ValueError):
        q.pair(x[:-1], y)
    with pytest.raises(ValueError):
        q.pair(x, y + [0])


_BLOCKS = {
    "H": hyperbolic_pair(),
    "E8": e8_gram(),
    "-E8": negate(e8_gram()),
    "+1": IntSymMatrix.diagonal((1,)),
    "-1": IntSymMatrix.diagonal((-1,)),
    "0": IntSymMatrix.diagonal((0,)),
}


@st.composite
def permuted_block_sums(draw):
    names = draw(st.lists(st.sampled_from(sorted(_BLOCKS)), max_size=4))
    n = sum(_BLOCKS[name].n for name in names)
    return names, draw(st.permutations(range(n)))


@settings(max_examples=40, deadline=None)
@given(permuted_block_sums())
@example(([], []))
def test_invariants_split_into_summands_match_the_whole_form(case):
    names, perm = case
    whole = direct_sum(*(_BLOCKS[name] for name in names))
    # P^T A P for the permutation matrix P: basis vector i is old perm[i]
    q = IntSymMatrix.from_rows([[whole.entry(p, r) for r in perm] for p in perm])
    # each block is connected, so its permuted index set is one summand
    blocks, off = [], 0
    for name in names:
        size = _BLOCKS[name].n
        blocks.append(sorted(i for i, p in enumerate(perm) if off <= p < off + size))
        off += size
    assert sorted(lattice._orthogonal_summands(q)) == sorted(blocks)
    # the unsplit route: one diagonalization and one determinant of the whole
    diag = lattice.congruence_diagonal(q)
    b_plus = sum(1 for d in diag if d > 0)
    b_minus = sum(1 for d in diag if d < 0)
    det = lattice._bareiss(q.rows)

    seen = []

    def one_summand_only(a):
        assert len(lattice._orthogonal_summands(a)) == 1
        seen.append(a.n)
        return original(a)

    original = lattice.congruence_diagonal
    invariants.cache_clear()
    with mock.patch.object(lattice, "congruence_diagonal", one_summand_only):
        inv = invariants(q)
    assert (inv.rank, inv.b_plus, inv.b_minus) == (b_plus + b_minus, b_plus, b_minus)
    assert inv.signature == b_plus - b_minus
    assert inv.determinant == det and inv.unimodular == (det in (1, -1))
    assert inv.parity == ("even" if q.is_even() else "odd")
    # each distinct summand matrix is diagonalized once, however often it repeats
    summands = {
        IntSymMatrix.from_rows([[q.entry(i, j) for j in part] for i in part])
        for part in blocks
    }
    assert sorted(seen) == sorted(a.n for a in summands)
