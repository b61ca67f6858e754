"""Braid words, Alexander polynomials, and the twist-knot family.

Two computation paths build different matrices from the braid:

* the production path takes the reduced Burau representation of the braid
  and the exact division det(I - Burau(beta)) * (1 - t) / (1 - t^n);
* the oracle path builds a Wirtinger presentation of the closure directly
  from the crossings and takes one minor of its Fox free-derivative
  Jacobian.

Both take their determinant with the one fraction-free Bareiss routine over
Z[t, t^-1], which a test checks against an independent determinant; beyond
that the paths share nothing, so their agreement (asserted for the whole
shipped family in tests) checks the two matrix constructions.

The Laurent arithmetic of both paths is dense and private to this module:
a polynomial is ``(lo, coeffs)``, the exponent of its lowest term and its
integer coefficients from there up, with nonzero ends; zero is ``(0, ())``.
Products, differences and exact quotients are loops over coefficient
lists.  A result becomes a `GroupRingElement` once, just before
`normalize_alexander`, so both paths return elements of Z[Z].
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

from .groupring import GroupRingElement, unit_collisions
from .grouppres import GroupPresentation, Word, free_reduce


# -- braid words ----------------------------------------------------------------


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        for letter in self.letters:
            if letter == 0 or abs(letter) >= self.strands:
                raise ValueError(
                    f"letter {letter} invalid on {self.strands} strands"
                )

    def permutation(self) -> tuple[int, ...]:
        perm = list(range(self.strands))
        for letter in self.letters:
            i = abs(letter) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def closure_components(self) -> int:
        perm = self.permutation()
        seen = [False] * self.strands
        count = 0
        for start in range(self.strands):
            if not seen[start]:
                count += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        return count


_BRAID_TOKEN = re.compile(r"s(\d+)(?:\^(-?\d+))?$")


def parse_braid(text: str) -> BraidWord:
    """Parse '<n>: s<i>[^<k>] ...', e.g. '2: s1^3' or '3: s1 s2^-1 s1 s2^-1'."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"braid text {text!r} is missing ':' after the strand count")
    try:
        strands = int(head.strip())
    except ValueError as exc:
        raise ValueError(f"bad strand count {head.strip()!r}") from exc
    letters: list[int] = []
    for pos, token in enumerate(tail.split()):
        m = _BRAID_TOKEN.match(token)
        if not m:
            raise ValueError(f"bad braid token {token!r} (word position {pos})")
        index = int(m.group(1))
        power = int(m.group(2)) if m.group(2) else 1
        if index < 1 or index >= strands:
            raise ValueError(
                f"generator s{index} out of range on {strands} strands (word position {pos})"
            )
        letters.extend([index if power > 0 else -index] * abs(power))
    return BraidWord(strands, tuple(letters))


def braid_to_text(braid: BraidWord) -> str:
    chunks = []
    i = 0
    letters = braid.letters
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        run = j - i
        base = abs(letters[i])
        power = run if letters[i] > 0 else -run
        chunks.append(f"s{base}" if power == 1 else f"s{base}^{power}")
        i = j
    return f"{braid.strands}: " + " ".join(chunks) if chunks else f"{braid.strands}:"


# -- Laurent arithmetic shared by both paths ---------------------------------

# A Laurent polynomial c_0 t^lo + ... + c_d t^(lo + d) in Z[t, t^-1] is the
# pair (lo, (c_0, ..., c_d)) with c_0 and c_d nonzero; zero is (0, ()).
Laurent = tuple[int, tuple[int, ...]]

_ZERO: Laurent = (0, ())
_ONE: Laurent = (0, (1,))


def _trim(lo: int, coeffs: list[int]) -> Laurent:
    """The pair of t^lo * sum(coeffs[i] t^i), zero ends stripped."""
    start, end = 0, len(coeffs)
    while start < end and not coeffs[start]:
        start += 1
    if start == end:
        return _ZERO
    while not coeffs[end - 1]:
        end -= 1
    return (lo + start, tuple(coeffs[start:end]))


def _mul(a: Laurent, b: Laurent) -> Laurent:
    (a_lo, ac), (b_lo, bc) = a, b
    if not ac or not bc:
        return _ZERO
    out = [0] * (len(ac) + len(bc) - 1)
    for i, x in enumerate(ac):
        if x:
            for k, y in enumerate(bc, i):
                out[k] += x * y
    # Z is a domain, so the end coefficients ac[0] * bc[0] and ac[-1] * bc[-1]
    # are nonzero
    return (a_lo + b_lo, tuple(out))


def _sub(a: Laurent, b: Laurent) -> Laurent:
    (a_lo, ac), (b_lo, bc) = a, b
    if not bc:
        return a
    if not ac:
        return (b_lo, tuple(-y for y in bc))
    lo = min(a_lo, b_lo)
    out = [0] * (max(a_lo + len(ac), b_lo + len(bc)) - lo)
    for k, x in enumerate(ac, a_lo - lo):
        out[k] = x
    for k, y in enumerate(bc, b_lo - lo):
        out[k] -= y
    return _trim(lo, out)


def laurent_exact_div(num: Laurent, den: Laurent) -> Laurent:
    """Exact division in Z[t, t^-1]; raises if the division leaves a remainder.

    Divides from the top degree down, as in Z[t]: both ends of ``den`` are
    nonzero, so ``den`` divides ``num`` in Z[t, t^-1] exactly when its
    coefficient list divides that of ``num`` in Z[t].
    """
    (n_lo, nc), (d_lo, dc) = num, den
    if not dc:
        raise ZeroDivisionError("division by zero polynomial")
    if not nc:
        return _ZERO
    size = len(nc) - len(dc) + 1
    if size < 1:
        raise ValueError("polynomial division is not exact")
    lead = dc[-1]
    work = list(nc)
    quo = [0] * size
    for k in range(size - 1, -1, -1):
        c = work[k + len(dc) - 1]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ValueError("polynomial division is not exact")
            quo[k] = q
            for i, d in enumerate(dc, k):
                work[i] -= q * d
    if any(work[: len(dc) - 1]):
        raise ValueError("polynomial division is not exact")
    # a remainder-free division ends on nonzero coefficients at both ends
    return (n_lo - d_lo, tuple(quo))


def _bareiss_laurent(rows: list[list[Laurent]]) -> Laurent:
    """Fraction-free determinant over Z[t, t^-1] (Bareiss 1968, exact division).

    Z[t, t^-1] is a domain, so every division by the previous pivot is exact
    there, and `laurent_exact_div` takes it without moving rows into Z[t].
    """
    m = len(rows)
    if m == 0:
        return _ONE
    work = [list(row) for row in rows]
    sign = 1
    prev = _ONE
    for k in range(m - 1):
        if not work[k][k][1]:
            pivot = next((i for i in range(k + 1, m) if work[i][k][1]), None)
            if pivot is None:
                return _ZERO
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        top, pk = work[k], work[k][k]
        for i in range(k + 1, m):
            row = work[i]
            rk = row[k]
            for j in range(k + 1, m):
                numer = _sub(_mul(row[j], pk), _mul(rk, top[j]))
                row[j] = laurent_exact_div(numer, prev)
        prev = pk
    lo, coeffs = work[m - 1][m - 1]
    return (lo, coeffs) if sign == 1 else (lo, tuple(-c for c in coeffs))


def _to_element(poly: Laurent) -> GroupRingElement:
    """``poly`` as an element of Z[Z], the form `normalize_alexander` takes."""
    lo, coeffs = poly
    return GroupRingElement(1, tuple(((e,), c) for e, c in enumerate(coeffs, lo) if c))


# -- reduced Burau path ------------------------------------------------------


# Column j = |letter| - 1 of the reduced Burau matrix of a letter, rows j-1,
# j, j+1, as (coefficient, exponent) of a monomial; every other column is the
# identity's.
_BURAU_COLUMN = {1: ((1, 1), (-1, 1), (1, 0)), -1: ((1, 0), (-1, -1), (1, -1))}


def _burau_apply(rep: list[list[Laurent]], letter: int) -> None:
    """Right-multiply ``rep`` in place by the reduced Burau matrix of ``letter``.

    That matrix is the identity outside column j = |letter| - 1, whose rows
    j-1, j, j+1 hold (t, -t, 1) for a positive letter and (1, -t^-1, t^-1)
    for a negative one, clipped to the matrix; so only column j changes.
    """
    j = abs(letter) - 1
    column = _BURAU_COLUMN[1 if letter > 0 else -1]
    lo, hi = max(j - 1, 0), min(j + 2, len(rep))
    for row in rep:
        parts = [(row[k], column[k - j + 1]) for k in range(lo, hi) if row[k][1]]
        if not parts:
            row[j] = _ZERO
            continue
        start = min(p_lo + e for (p_lo, _), (_, e) in parts)
        out = [0] * (max(p_lo + e + len(pc) for (p_lo, pc), (_, e) in parts) - start)
        for (p_lo, pc), (c, e) in parts:
            for i, x in enumerate(pc, p_lo + e - start):
                out[i] += c * x
        row[j] = _trim(start, out)


@cache
def alexander_poly(braid: BraidWord) -> GroupRingElement:
    """Normalized Alexander polynomial of the braid closure (a knot).

    Requires the closure to be a single component.  Computed from the
    reduced Burau matrix as det(I - B) * (1 - t) / (1 - t^n) and normalized
    to the symmetric exponent window with value +1 at t = 1.  Memoized by
    value: trace replay rebuilds equal braids as new objects.
    """
    if braid.closure_components() != 1:
        raise ValueError(
            f"closure has {braid.closure_components()} components; need a knot"
        )
    m = braid.strands - 1
    rep = [[_ONE if r == c else _ZERO for c in range(m)] for r in range(m)]
    for letter in braid.letters:
        _burau_apply(rep, letter)
    delta = [[_sub(_ONE if r == c else _ZERO, rep[r][c]) for c in range(m)] for r in range(m)]
    det = _bareiss_laurent(delta)
    one_minus_tn = (0, (1,) + (0,) * (braid.strands - 1) + (-1,))
    raw = laurent_exact_div(_mul(det, (0, (1, -1))), one_minus_tn)
    return normalize_alexander(_to_element(raw))


def normalize_alexander(poly: GroupRingElement) -> GroupRingElement:
    """Center the exponent window at zero and fix the sign so poly(1) = +1."""
    if poly.nvars != 1:
        raise ValueError("Alexander polynomials are univariate")
    if poly.is_zero:
        raise ValueError("zero polynomial cannot be an Alexander polynomial of a knot")
    lo = poly.terms[0][0][0]
    hi = poly.terms[-1][0][0]
    if (lo + hi) % 2 != 0:
        raise ValueError("exponent span is odd; not a knot polynomial")
    centered = poly.shift((-(lo + hi) // 2,))
    at_one = centered.evaluate_at_one()
    if at_one not in (1, -1):
        raise ValueError(f"value at 1 is {at_one}, not a unit; not a knot polynomial")
    return centered if at_one == 1 else -centered


# -- Wirtinger / Fox oracle path -----------------------------------------------


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def wirtinger_presentation(braid: BraidWord) -> GroupPresentation:
    """Meridian presentation of the knot group of the braid closure.

    One generator per arc of the closed diagram, one conjugation relator per
    crossing (length four before free reduction).  The closure is performed
    by identifying top and bottom arcs and renaming.
    """
    n, letters = braid.strands, braid.letters
    total = n + len(letters)
    cur = list(range(n))  # arc ids at each strand position, 0-based
    relators_raw: list[tuple[int, int, int, int]] = []
    next_arc = n
    for letter in letters:
        i = abs(letter) - 1
        if letter > 0:
            over, under = cur[i], cur[i + 1]
            new = next_arc
            # emerging under-arc: new = over * under * over^-1
            relators_raw.append((over + 1, under + 1, -(over + 1), -(new + 1)))
            cur[i], cur[i + 1] = new, over
        else:
            over, under = cur[i + 1], cur[i]
            new = next_arc
            # emerging under-arc: new = over^-1 * under * over
            relators_raw.append((-(over + 1), under + 1, over + 1, -(new + 1)))
            cur[i + 1], cur[i] = new, over
        next_arc += 1
    uf = _UnionFind(total)
    for pos in range(n):
        uf.union(pos, cur[pos])
    reps = sorted({uf.find(a) for a in range(total)})
    compact = {rep: k + 1 for k, rep in enumerate(reps)}

    def rename(letter: int) -> int:
        idx = compact[uf.find(abs(letter) - 1)]
        return idx if letter > 0 else -idx

    relators = tuple(
        free_reduce(tuple(rename(l) for l in raw)) for raw in relators_raw
    )
    names = tuple(f"m{k}" for k in range(1, len(reps) + 1))
    return GroupPresentation(names, relators)


def _fox_derivative_abelianized(relator: Word, gen: int) -> Laurent:
    """d(relator)/d(gen) with every meridian sent to t."""
    n = len(relator)
    out = [0] * (2 * n + 1)  # the coefficient of t^e at index e + n
    prefix = n
    for letter in relator:
        if letter == gen:
            out[prefix] += 1
        elif letter == -gen:
            out[prefix - 1] -= 1
        prefix += 1 if letter > 0 else -1
    return _trim(-n, out)


def fox_alexander(braid: BraidWord) -> GroupRingElement:
    """Alexander polynomial via Fox calculus on the Wirtinger presentation.

    Abelianizes the free-derivative Jacobian (all meridians to t).  The
    columns of that matrix sum to zero, so one column is deleted for free,
    and the minor that also drops the first row is the polynomial: for a
    knot's Wirtinger presentation every first minor is +-t^k times the
    Alexander polynomial (Crowell-Fox), so one minor is enough and no gcd
    over the others is needed.  This path never touches the Burau matrix.
    """
    if braid.closure_components() != 1:
        raise ValueError("closure is not a knot")
    pres = wirtinger_presentation(braid)
    gens = len(pres.generators)
    rels = pres.relators
    if not rels or gens <= 1:
        return normalize_alexander(_to_element(_ONE))
    minor = [
        [_fox_derivative_abelianized(r, g) for g in range(2, gens + 1)]
        for r in rels[1:]
    ]
    if len(minor) != gens - 1:
        raise ValueError("Wirtinger matrix is not square; unexpected diagram")
    det = _bareiss_laurent(minor)
    if not det[1]:
        raise ValueError("the Alexander minor vanished; input is not a knot diagram")
    return normalize_alexander(_to_element(det))


# -- the twist-knot family ----------------------------------------------------


@dataclass(frozen=True)
class KnotRecord:
    name: str
    braid: BraidWord
    alexander: GroupRingElement

    @classmethod
    def from_braid(cls, name: str, braid: BraidWord | str) -> "KnotRecord":
        if isinstance(braid, str):
            braid = parse_braid(braid)
        return cls(name, braid, alexander_poly(braid))


# Braid words for the twist knot with n half-twists, n = 0..10 (crossing
# numbers 0, 3, 4, 5, 6, ..., 12).  Each parses on the stated strand count
# and its closure's Alexander polynomial matches the closed form
# k t - (2k -+ 1) + k t^-1; the whole table is re-derived in tests through
# both computation paths.
TWIST_BRAIDS: tuple[str, ...] = (
    "1:",
    "2: s1^3",
    "3: s1 s2^-1 s1 s2^-1",
    "3: s1^3 s2 s1^-1 s2",
    "4: s1^2 s2 s1^-1 s3^-1 s2 s3^-1",
    "4: s1^3 s2 s1^-1 s2 s3 s2^-1 s3",
    "5: s1^2 s2 s1^-1 s2 s3 s2^-1 s4^-1 s3 s4^-1",
    "5: s1^3 s2 s1^-1 s2 s3 s2^-1 s3 s4 s3^-1 s4",
    "6: s1^2 s2 s1^-1 s2 s3 s2^-1 s3 s4 s3^-1 s5^-1 s4 s5^-1",
    "6: s1^3 s2 s1^-1 s2 s3 s2^-1 s3 s4 s3^-1 s4 s5 s4^-1 s5",
    "7: s1^2 s2 s1^-1 s2 s3 s2^-1 s3 s4 s3^-1 s4 s5 s4^-1 s6^-1 s5 s6^-1",
)


def twist_knot_family(count: int) -> tuple[KnotRecord, ...]:
    """First ``count`` twist knots (the unknot first), pairwise Alexander-distinct.

    Fails loudly, naming the colliding pair, if any two members were to share
    an Alexander polynomial up to units; with the shipped table this cannot
    happen, but the check is what the downstream separation argument leans on.
    """
    if not 1 <= count <= len(TWIST_BRAIDS):
        raise ValueError(f"count must be in 1..{len(TWIST_BRAIDS)}")
    records = tuple(
        KnotRecord.from_braid(f"twist_{n}", TWIST_BRAIDS[n]) for n in range(count)
    )
    collisions = unit_collisions({r.name: r.alexander for r in records})
    if collisions:
        raise ValueError(
            f"family is not Alexander-separated: {' and '.join(collisions[0])} "
            "agree up to units"
        )
    return records


def knot_from_spec(spec: str) -> tuple[KnotRecord, ...]:
    """Parse a knot family request: 'twist:0..9', 'twist:5', or a braid literal."""
    spec = spec.strip()
    m = re.fullmatch(r"twist:(?:(\d+)\.\.)?(\d+)", spec)
    if m:
        lo, hi, top = m.group(1), int(m.group(2)), len(TWIST_BRAIDS) - 1
        if lo is not None and int(lo) != 0:
            raise ValueError(
                f"twist range {lo}..{hi} must start at 0 (the twist table is 0..{top})"
            )
        if hi > top:
            raise ValueError(f"{spec!r} asks for twist_{hi}; the twist table is 0..{top}")
        family = twist_knot_family(hi + 1)
        return family if lo is not None else family[-1:]
    return (KnotRecord.from_braid(f"braid[{spec}]", parse_braid(spec)),)
