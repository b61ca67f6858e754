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
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

from .groupring import GroupRingElement, equal_up_to_units
from .grouppres import GroupPresentation, Word, free_reduce


def _t(power: int = 1, coeff: int = 1) -> GroupRingElement:
    return GroupRingElement.monomial(coeff, (power,))


_ONE = GroupRingElement.one(1)
_ZERO = GroupRingElement.zero(1)


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

    def conjugated(self, i: int) -> "BraidWord":
        return BraidWord(self.strands, (i,) + self.letters + (-i,))

    def stabilized(self, sign: int = 1) -> "BraidWord":
        if sign not in (1, -1):
            raise ValueError("stabilization sign must be +1 or -1")
        return BraidWord(self.strands + 1, self.letters + (sign * self.strands,))


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


def laurent_exact_div(num: GroupRingElement, den: GroupRingElement) -> GroupRingElement:
    """Exact division in Z[t, t^-1]; raises if the division leaves a remainder."""
    if den.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero:
        return _ZERO
    n_lo = num.terms[0][0][0]
    d_lo = den.terms[0][0][0]
    ncoef = {e[0]: c for e, c in num.terms}
    dcoef = {e[0]: c for e, c in den.terms}
    n_hi = num.terms[-1][0][0]
    d_hi = den.terms[-1][0][0]
    lead = dcoef[d_hi]
    quo: dict[int, int] = {}
    work = dict(ncoef)
    hi = n_hi
    while any(work.values()):
        hi = max(e for e, c in work.items() if c)
        if hi - d_hi < n_lo - d_lo:
            raise ValueError("polynomial division is not exact")
        c = work[hi]
        if c % lead != 0:
            raise ValueError("polynomial division is not exact")
        q = c // lead
        shift = hi - d_hi
        quo[shift] = q
        for e, dc in dcoef.items():
            work[e + shift] = work.get(e + shift, 0) - q * dc
    return GroupRingElement.from_terms(1, {(e,): c for e, c in quo.items()})


def _bareiss_laurent(rows: list[list[GroupRingElement]]) -> GroupRingElement:
    """Fraction-free determinant over Z[t, t^-1] (Bareiss 1968, exact division)."""
    m = len(rows)
    if m == 0:
        return _ONE
    # shift every row into Z[t] so intermediate divisions stay polynomial
    work: list[list[GroupRingElement]] = []
    total_shift = 0
    for row in rows:
        lows = [e.terms[0][0][0] for e in row if not e.is_zero]
        shift = -min(lows) if lows and min(lows) < 0 else 0
        total_shift += shift
        work.append([e.shift((shift,)) for e in row])
    sign = 1
    prev = _ONE
    for k in range(m - 1):
        if work[k][k].is_zero:
            pivot = next((i for i in range(k + 1, m) if not work[i][k].is_zero), None)
            if pivot is None:
                return _ZERO
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                numer = work[i][j] * work[k][k] - work[i][k] * work[k][j]
                work[i][j] = laurent_exact_div(numer, prev)
        prev = work[k][k]
    det = work[m - 1][m - 1] * sign
    return det.shift((-total_shift,))


# -- reduced Burau path ------------------------------------------------------


# Column j = |letter| - 1 of the reduced Burau matrix of a letter, rows j-1,
# j, j+1; every other column is the identity's.
_BURAU_COLUMN = {1: (_t(1), _t(1, -1), _ONE), -1: (_ONE, _t(-1, -1), _t(-1))}


def _burau_apply(rep: list[list[GroupRingElement]], letter: int) -> None:
    """Right-multiply ``rep`` in place by the reduced Burau matrix of ``letter``.

    That matrix is the identity outside column j = |letter| - 1, whose rows
    j-1, j, j+1 hold (t, -t, 1) for a positive letter and (1, -t^-1, t^-1)
    for a negative one, clipped to the matrix; so only column j changes.
    """
    j = abs(letter) - 1
    column = _BURAU_COLUMN[1 if letter > 0 else -1]
    lo, hi = max(j - 1, 0), min(j + 2, len(rep))
    for row in rep:
        acc = _ZERO
        for k in range(lo, hi):
            if not row[k].is_zero:
                acc = acc + row[k] * column[k - j + 1]
        row[j] = acc


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
    delta = [
        [(_ONE if r == c else _ZERO) - rep[r][c] for c in range(m)]
        for r in range(m)
    ]
    det = _bareiss_laurent(delta)
    one_minus_t = _ONE - _t(1)
    one_minus_tn = _ONE - _t(braid.strands)
    raw = laurent_exact_div(det * one_minus_t, one_minus_tn)
    return normalize_alexander(raw)


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


def is_symmetric(poly: GroupRingElement) -> bool:
    """Palindromic check for a normalized (centered) polynomial."""
    return poly == poly.invert_vars()


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


def _fox_derivative_abelianized(relator: Word, gen: int) -> GroupRingElement:
    """d(relator)/d(gen) with every meridian sent to t."""
    acc: dict[tuple[int, ...], int] = {}
    prefix = 0
    for letter in relator:
        if letter == gen:
            acc[(prefix,)] = acc.get((prefix,), 0) + 1
        elif letter == -gen:
            acc[(prefix - 1,)] = acc.get((prefix - 1,), 0) - 1
        prefix += 1 if letter > 0 else -1
    return GroupRingElement.from_terms(1, acc)


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
        return normalize_alexander(_ONE)
    minor = [
        [_fox_derivative_abelianized(r, g) for g in range(2, gens + 1)]
        for r in rels[1:]
    ]
    if len(minor) != gens - 1:
        raise ValueError("Wirtinger matrix is not square; unexpected diagram")
    det = _bareiss_laurent(minor)
    if det.is_zero:
        raise ValueError("the Alexander minor vanished; input is not a knot diagram")
    return normalize_alexander(det)


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
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            if equal_up_to_units(
                records[i].alexander, records[j].alexander, allow_inversion=True
            ).equal:
                raise ValueError(
                    f"family is not Alexander-separated: {records[i].name} and "
                    f"{records[j].name} agree up to units"
                )
    return records


def knot_from_spec(spec: str) -> tuple[KnotRecord, ...]:
    """Parse a knot family request: 'twist:0..9', 'twist:5', or a braid literal."""
    spec = spec.strip()
    m = re.fullmatch(r"twist:(\d+)\.\.(\d+)", spec)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo != 0:
            raise ValueError("twist ranges must start at 0")
        if hi < lo:
            raise ValueError("empty twist range")
        return twist_knot_family(hi + 1)
    m = re.fullmatch(r"twist:(\d+)", spec)
    if m:
        n = int(m.group(1))
        family = twist_knot_family(n + 1)
        return (family[n],)
    return (KnotRecord.from_braid(f"braid[{spec}]", parse_braid(spec)),)
