"""Integer symmetric bilinear forms: exact invariants and certificates.

Everything here is exact: signatures come from congruence diagonalization
over ``fractions.Fraction`` (Sylvester's law of inertia), determinants from
fraction-free integer elimination, and Smith normal forms carry unimodular
transform certificates that are re-checked by multiplication.  No floating
point anywhere.

`invariants` splits a form into its orthogonal summands (the connected
components of the Gram matrix's nonzero pattern) and is memoized by value
per form and per summand: an equal matrix built anew (as trace replay does)
hits the cache, and a block such as E8 or H, which every glued form of the
recipe repeats, is diagonalized once.  Results are frozen, so sharing them
is safe.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence


@dataclass(frozen=True)
class IntSymMatrix:
    """A symmetric integer matrix; symmetry is enforced on construction."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix is not square")
        for i in range(n):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntSymMatrix":
        rows = tuple(map(tuple, rows))
        if not all(type(x) is int for row in rows for x in row):  # no floats, no bools
            raise TypeError("matrix entries must be ints")
        return cls(rows)

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntSymMatrix":
        n = len(entries)
        return cls.from_rows(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def empty(cls) -> "IntSymMatrix":
        return cls(())

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def pair(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Evaluate the bilinear form on two coordinate vectors."""
        if len(x) != self.n or len(y) != self.n:
            raise ValueError("vector length does not match the form rank")
        # mark classes are mostly unit or sparse vectors: skip zero coordinates
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        return sum(
            xi * row[j] * yj for xi, row in zip(x, self.rows) if xi for j, yj in ys
        )

    def is_even(self) -> bool:
        # x.x = sum x_i^2 d_i mod 2, so evenness is readable off the diagonal.
        return all(self.rows[i][i] % 2 == 0 for i in range(self.n))


def hyperbolic_pair() -> IntSymMatrix:
    return IntSymMatrix.from_rows([[0, 1], [1, 0]])


def direct_sum(*parts: IntSymMatrix) -> IntSymMatrix:
    n = sum(p.n for p in parts)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for p in parts:
        for i in range(p.n):
            for j in range(p.n):
                rows[off + i][off + j] = p.rows[i][j]
        off += p.n
    return IntSymMatrix.from_rows(rows)


def _bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer row list."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def determinant(a: IntSymMatrix) -> int:
    """Exact integer determinant of the form's Gram matrix."""
    return _bareiss(a.rows)


def congruence_diagonal(a: IntSymMatrix) -> tuple[Fraction, ...]:
    """Diagonalize by congruence over Q; the diagonal's signs are the inertia.

    Zero-diagonal pivots are repaired either by swapping in a later basis
    vector with nonzero square or, when the whole remaining diagonal
    vanishes, by the hyperbolic move e_k += e_j which manufactures the
    square 2*a_kj.
    """
    n = a.n
    m = [[Fraction(x) for x in row] for row in a.rows]

    def add_basis(k: int, j: int) -> None:
        for col in range(n):
            m[k][col] += m[j][col]
        for row in range(n):
            row_ref = m[row]
            row_ref[k] += row_ref[j]

    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    continue
                add_basis(k, j)
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for col in range(n):
                    m[i][col] -= f * m[k][col]
                for row in range(n):
                    row_ref = m[row]
                    row_ref[i] -= f * row_ref[k]
    return tuple(m[i][i] for i in range(n))


@dataclass(frozen=True)
class FormInvariants:
    rank: int
    b_plus: int
    b_minus: int
    signature: int
    parity: str  # "even" | "odd"
    determinant: int
    unimodular: bool

    @property
    def indefinite(self) -> bool:
        return self.b_plus > 0 and self.b_minus > 0


def _orthogonal_summands(a: IntSymMatrix) -> list[list[int]]:
    """Basis indices of the form's orthogonal summands, each sorted.

    The summands are the connected components of the nonzero pattern of
    the Gram matrix; a zero basis vector is a summand of its own.
    """
    seen = [False] * a.n
    parts = []
    for start in range(a.n):
        if seen[start]:
            continue
        seen[start] = True
        stack, part = [start], []
        while stack:
            i = stack.pop()
            part.append(i)
            for j, x in enumerate(a.rows[i]):
                if x and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        parts.append(sorted(part))
    return parts


@cache
def invariants(a: IntSymMatrix) -> FormInvariants:
    """Rank, inertia, parity and determinant of the form.

    A form that splits into several orthogonal summands is permuted into
    block form, which is a congruence by a matrix of determinant +-1:
    inertia adds and determinants multiply over the summands, each taken
    through this cached function, so a block such as E8 or H is
    diagonalized once per process however many forms contain it.  Only a
    single summand reaches `congruence_diagonal` and `determinant`.
    Parity is read off the whole diagonal.
    """
    parts = _orthogonal_summands(a)
    if len(parts) == 1:
        diag = congruence_diagonal(a)
        b_plus = sum(1 for d in diag if d > 0)
        b_minus = sum(1 for d in diag if d < 0)
        det = determinant(a)
    else:
        b_plus = b_minus = 0
        det = 1
        for part in parts:
            sub = invariants(
                IntSymMatrix(tuple(tuple(a.rows[i][j] for j in part) for i in part))
            )
            b_plus += sub.b_plus
            b_minus += sub.b_minus
            det *= sub.determinant
    return FormInvariants(
        rank=b_plus + b_minus,
        b_plus=b_plus,
        b_minus=b_minus,
        signature=b_plus - b_minus,
        parity="even" if a.is_even() else "odd",
        determinant=det,
        unimodular=det in (1, -1),
    )


def indefinite_unimodular_iso(a: IntSymMatrix, b: IntSymMatrix) -> bool:
    """Isomorphism test for indefinite unimodular forms via (rank, sig, parity).

    Refuses (raises ValueError) on definite or degenerate input, where the
    classification by these three invariants is simply not valid.
    """
    ia, ib = invariants(a), invariants(b)
    for name, inv in (("left", ia), ("right", ib)):
        if not inv.unimodular:
            raise ValueError(f"{name} form is not unimodular (det {inv.determinant})")
        if not inv.indefinite:
            raise ValueError(f"{name} form is not indefinite; classification refused")
    return (ia.rank, ia.signature, ia.parity) == (ib.rank, ib.signature, ib.parity)


# -- admissibility -----------------------------------------------------------


def admissible_check(q: IntSymMatrix, classes: Mapping[str, int]) -> tuple[str, ...]:
    """The failed clauses of the marked-pair Gram pattern and the global
    form conditions; empty when the form is admissible.

    ``classes`` maps the labels T1, S1, T2, S2 to basis indices.  Required
    pattern: both tori square to zero, each torus meets its own dual once,
    and the cross pairings T1.T2, T1.S2, T2.S1 vanish (the dual squares and
    S1.S2 stay unconstrained).  Globally the form must be unimodular,
    indefinite, and satisfy rank >= |signature| + 4.
    """
    violations: list[str] = []
    needed = ("T1", "S1", "T2", "S2")
    idx = {}
    for label in needed:
        if label not in classes:
            violations.append(f"missing class index for {label}")
        else:
            idx[label] = classes[label]
    inv = invariants(q)
    if len(idx) == len(needed):
        if len(set(idx.values())) != 4 or not all(0 <= i < q.n for i in idx.values()):
            violations.append("class indices must be four distinct basis positions")
        else:
            t1, s1, t2, s2 = idx["T1"], idx["S1"], idx["T2"], idx["S2"]
            pattern = [
                ("T1.T1 == 0", q.entry(t1, t1) == 0),
                ("T2.T2 == 0", q.entry(t2, t2) == 0),
                ("T1.S1 == 1", q.entry(t1, s1) == 1),
                ("T2.S2 == 1", q.entry(t2, s2) == 1),
                ("T1.T2 == 0", q.entry(t1, t2) == 0),
                ("T1.S2 == 0", q.entry(t1, s2) == 0),
                ("T2.S1 == 0", q.entry(t2, s1) == 0),
            ]
            violations.extend(name for name, ok in pattern if not ok)
    if not inv.unimodular:
        violations.append(f"form not unimodular (det {inv.determinant})")
    if not inv.indefinite:
        violations.append("form not indefinite")
    if q.n < abs(inv.signature) + 4:
        violations.append(
            f"rank {q.n} < |signature| + 4 = {abs(inv.signature) + 4}"
        )
    return tuple(violations)


def complement_nonspin_witness(
    q: IntSymMatrix,
    alpha: Sequence[int],
    t2: Sequence[int],
    s2: Sequence[int],
) -> tuple[int, ...] | None:
    """Produce sigma = alpha - (alpha.T2) S2 with odd square, disjoint from T2.

    Preconditions (checked): T2.T2 = 0, T2.S2 = 1, S2.S2 even.  Returns None
    when alpha.alpha is even (no witness from this alpha); otherwise the
    returned class satisfies sigma.sigma odd and sigma.T2 = 0, which is
    verified before returning.
    """
    if q.pair(t2, t2) != 0:
        raise ValueError("T2 must have square zero")
    if q.pair(t2, s2) != 1:
        raise ValueError("T2.S2 must equal 1")
    if q.pair(s2, s2) % 2 != 0:
        raise ValueError("S2 must have even square")
    if q.pair(alpha, alpha) % 2 == 0:
        return None
    a_dot_t2 = q.pair(alpha, t2)
    sigma = tuple(alpha[i] - a_dot_t2 * s2[i] for i in range(q.n))
    if q.pair(sigma, sigma) % 2 == 0 or q.pair(sigma, t2) != 0:
        raise AssertionError("witness construction violated its own contract")
    return sigma


def find_nonspin_witness(
    q: IntSymMatrix, t2: Sequence[int], s2: Sequence[int]
) -> tuple[int, ...] | None:
    """Search basis vectors for an odd square and build the witness from it.

    For an odd form some diagonal entry is odd (evenness is a diagonal
    condition over Z), so scanning basis vectors is a complete search.
    """
    for i in range(q.n):
        if q.entry(i, i) % 2 != 0:
            alpha = tuple(1 if j == i else 0 for j in range(q.n))
            return complement_nonspin_witness(q, alpha, t2, s2)
    return None


# -- Smith normal form -------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


@dataclass(frozen=True)
class SmithCertificate:
    """U @ A @ V = D with U, V unimodular and D the Smith diagonal."""

    factors: tuple[int, ...]
    d: tuple[tuple[int, ...], ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    def verify(self, a: Sequence[Sequence[int]]) -> bool:
        ua = _mat_mul([list(r) for r in self.u], [list(r) for r in a])
        uav = _mat_mul(ua, [list(r) for r in self.v])
        if uav != [list(r) for r in self.d]:
            return False
        if abs(_bareiss(self.u)) != 1 or abs(_bareiss(self.v)) != 1:
            return False
        for x, y in zip(self.factors, self.factors[1:]):
            if y % x != 0:
                return False
        return all(f > 0 for f in self.factors)


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithCertificate:
    """Smith normal form over Z with recorded unimodular row/column transforms."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    for row in d:
        if len(row) != n:
            raise ValueError("ragged matrix")
    u = _identity(m)
    v = _identity(n)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_add(dst, src, q):
        for c in range(n):
            d[dst][c] += q * d[src][c]
        for c in range(m):
            u[dst][c] += q * u[src][c]

    def col_add(dst, src, q):
        for r in range(m):
            d[r][dst] += q * d[r][src]
        for r in range(n):
            v[r][dst] += q * v[r][src]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # choose the smallest-magnitude nonzero entry as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best != (t, t):
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
        # clear row and column t; restart if a remainder shrinks the pivot
        dirty = False
        for i in range(t + 1, m):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                row_add(i, t, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                col_add(j, t, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility fixup: fold any non-multiple into column t
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        if d[t][t] < 0:
            row_negate(t)
        t += 1

    factors = tuple(d[i][i] for i in range(min(m, n)) if d[i][i] != 0)
    cert = SmithCertificate(
        factors=factors,
        d=tuple(tuple(row) for row in d),
        u=tuple(tuple(row) for row in u),
        v=tuple(tuple(row) for row in v),
    )
    if not cert.verify(a):
        raise AssertionError("Smith certificate failed self-verification")
    return cert


def abelian_invariants_from_matrix(
    a: Sequence[Sequence[int]], ngens: int
) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion of Z^ngens / (row span of a).

    Rows are relations in ngens unknowns.  Returns (free_rank, torsion) with
    torsion the invariant factors > 1.
    """
    if not a:
        return ngens, ()
    cert = smith_normal_form(a)
    torsion = tuple(f for f in cert.factors if f > 1)
    return ngens - len(cert.factors), torsion
