"""Exact arithmetic in the integral group ring Z[Z^r].

Elements are finitely supported integer combinations of exponent vectors:
multivariate Laurent polynomials with arbitrary-precision integer
coefficients.  Products of many Alexander-polynomial factors blow through
64-bit ranges quickly, so coefficients are plain Python ints throughout and
nothing is ever rounded.

Canonical form: every stored coefficient is nonzero and terms are sorted
lexicographically by exponent vector, so structural equality is semantic
equality and elements are safely hashable.
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import add

ExponentVector = tuple[int, ...]


def _canonical(
    nvars: int, items: Iterable[tuple[Sequence[int], int]]
) -> tuple[tuple[ExponentVector, int], ...]:
    acc: dict[ExponentVector, int] = {}
    for exps, coeff in items:
        key = tuple(exps)
        if len(key) != nvars:
            raise ValueError(
                f"exponent vector {key!r} has length {len(key)}, expected {nvars}"
            )
        acc[key] = acc.get(key, 0) + coeff
    return _sorted_terms(acc)


def _sorted_terms(acc: dict[ExponentVector, int]) -> tuple[tuple[ExponentVector, int], ...]:
    # keys are distinct, so sorting the items sorts by exponent vector alone
    return tuple(sorted(item for item in acc.items() if item[1]))


@dataclass(frozen=True)
class GroupRingElement:
    """An element of Z[Z^nvars] in canonical sparse form."""

    nvars: int
    terms: tuple[tuple[ExponentVector, int], ...]

    def __post_init__(self) -> None:
        if self.nvars < 0:
            raise ValueError("nvars must be >= 0")
        for exps, coeff in self.terms:
            if len(exps) != self.nvars or coeff == 0:
                raise ValueError("terms not in canonical form")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "GroupRingElement":
        return cls(nvars, ())

    @classmethod
    def one(cls, nvars: int) -> "GroupRingElement":
        return cls.monomial(1, (0,) * nvars)

    @classmethod
    def monomial(cls, coeff: int, exponents: Sequence[int]) -> "GroupRingElement":
        return cls(len(tuple(exponents)), _canonical(len(tuple(exponents)), [(exponents, coeff)]))

    @classmethod
    def from_terms(
        cls,
        nvars: int,
        items: Mapping[ExponentVector, int] | Iterable[tuple[Sequence[int], int]],
    ) -> "GroupRingElement":
        if isinstance(items, Mapping):
            items = items.items()
        return cls(nvars, _canonical(nvars, items))

    # -- predicates and views ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate_at_one(self) -> int:
        """Augmentation map: sum of coefficients (every generator to 1)."""
        return sum(c for _, c in self.terms)

    # -- ring operations -----------------------------------------------------

    def _require_same_ring(self, other: "GroupRingElement") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"mixed rings: Z[Z^{self.nvars}] vs Z[Z^{other.nvars}]"
            )

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._require_same_ring(other)
        return GroupRingElement(
            self.nvars, _canonical(self.nvars, list(self.terms) + list(other.terms))
        )

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement | int") -> "GroupRingElement":
        if isinstance(other, int):
            return GroupRingElement(
                self.nvars,
                tuple((e, c * other) for e, c in self.terms) if other else (),
            )
        self._require_same_ring(other)
        # The SW elements' exponent vectors have one or two nonzero
        # coordinates out of b2, so each term of the shorter factor is
        # applied as a patch of its nonzero coordinates to the longer one.
        outer, inner = sorted((self.terms, other.terms), key=len)
        acc: dict[ExponentVector, int] = {}
        get = acc.get
        for eb, cb in outer:
            moves = [(i, x) for i, x in enumerate(eb) if x]
            for ea, ca in inner:
                key = list(ea)
                for i, x in moves:
                    key[i] += x
                key = tuple(key)
                acc[key] = get(key, 0) + ca * cb
        return GroupRingElement(self.nvars, _sorted_terms(acc))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "GroupRingElement":
        if k < 0:
            raise ValueError("negative powers are not defined in the group ring")
        out = GroupRingElement.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def shift(self, exponents: Sequence[int]) -> "GroupRingElement":
        """Multiply by the unit monomial t^exponents."""
        key = tuple(exponents)
        if len(key) != self.nvars:
            raise ValueError("shift vector has wrong length")
        return GroupRingElement(
            self.nvars,
            tuple((tuple(map(add, e, key)), c) for e, c in self.terms),
        )

    def invert_vars(self) -> "GroupRingElement":
        """The ring involution t^e -> t^-e (conjugation on the group)."""
        return GroupRingElement.from_terms(
            self.nvars, [(tuple(-x for x in e), c) for e, c in self.terms]
        )

    def substitute_hom(self, matrix: Sequence[Sequence[int]]) -> "GroupRingElement":
        """Push forward along the monoid map e -> matrix @ e.

        ``matrix`` is an s x nvars integer matrix; the result lives in
        Z[Z^s].  This is the ring homomorphism induced by a homomorphism
        Z^nvars -> Z^s, so it is additive and multiplicative (covered by the
        property tests).

        Each column's nonzero ``(row, entry)`` pairs are listed once, and
        each exponent vector adds up only its nonzero coordinates' columns:
        the gluing maps of `fiber_sum` and `embed_knot_poly_at_class` have
        at most one nonzero entry per column, so a term costs O(nvars), not
        O(s * nvars).  Terms that land on one exponent are summed.
        """
        rows = [tuple(row) for row in matrix]
        for row in rows:
            if len(row) != self.nvars:
                raise ValueError(
                    f"matrix row length {len(row)} != nvars {self.nvars}"
                )
        s = len(rows)
        columns = [
            [(i, row[j]) for i, row in enumerate(rows) if row[j]]
            for j in range(self.nvars)
        ]
        acc: dict[ExponentVector, int] = {}
        for e, c in self.terms:
            image = [0] * s
            for x, column in zip(e, columns):
                if x:
                    for i, m in column:
                        image[i] += m * x
            key = tuple(image)
            acc[key] = acc.get(key, 0) + c
        return GroupRingElement(s, _sorted_terms(acc))

    def __repr__(self) -> str:
        return f"GroupRingElement({self.nvars}, {to_text(self)!r})"


def embed_knot_poly_at_class(
    delta: GroupRingElement, torus_class: Sequence[int]
) -> GroupRingElement:
    """Evaluate a one-variable polynomial at the exponential of twice a class.

    Sends each term c * t^j of ``delta`` to c * x^(2j * torus_class), i.e.
    substitutes t = exp(2 * [T]) into Delta(t).  The result lives in the
    group ring over the ambient exponent lattice of ``torus_class``.
    """
    if delta.nvars != 1:
        raise ValueError("knot polynomial must be univariate")
    cls = tuple(torus_class)
    matrix = [(2 * ci,) for ci in cls]
    return delta.substitute_hom(matrix)


@dataclass(frozen=True)
class UnitMatch:
    """Witness for equality up to units: a == sign * t^shift * b (b maybe inverted)."""

    equal: bool
    sign: int | None = None
    shift: ExponentVector | None = None
    inverted: bool = False


def _match_against(a: GroupRingElement, b: GroupRingElement) -> tuple[int, ExponentVector] | None:
    if a.is_zero or b.is_zero:
        return None
    if len(a.terms) != len(b.terms):
        return None
    # A unit multiple translates the whole support, so the only possible
    # shifts are the differences of extremal exponents.
    candidates = {
        tuple(x - y for x, y in zip(a.terms[0][0], b.terms[0][0])),
        tuple(x - y for x, y in zip(a.terms[-1][0], b.terms[-1][0])),
    }
    for u in candidates:
        for sign in (1, -1):
            if a == (b * sign).shift(u):
                return sign, u
    return None


def equal_up_to_units(
    a: GroupRingElement,
    b: GroupRingElement,
    allow_inversion: bool = False,
) -> UnitMatch:
    """Decide whether a = +-t^u * b, optionally also against b with t -> t^-1.

    Returns a witness carrying the sign and shift found.  With
    ``allow_inversion`` the comparison is additionally made against the
    involuted b, which identifies elements differing by the orientation
    ambiguity of the torus directions.
    """
    a._require_same_ring(b)
    if a.is_zero and b.is_zero:
        return UnitMatch(True, 1, (0,) * a.nvars, False)
    hit = _match_against(a, b)
    if hit is not None:
        return UnitMatch(True, hit[0], hit[1], False)
    if allow_inversion:
        hit = _match_against(a, b.invert_vars())
        if hit is not None:
            return UnitMatch(True, hit[0], hit[1], True)
    return UnitMatch(False)


def _unit_normal_terms(a: GroupRingElement) -> tuple[tuple[ExponentVector, int], ...]:
    # Terms are sorted and a shift translates every exponent alike, so the
    # first term is the one that moves to exponent 0.
    first, lead = a.terms[0]
    sign = 1 if lead > 0 else -1
    return tuple(
        (tuple(x - y for x, y in zip(e, first)), sign * c) for e, c in a.terms
    )


def unit_normal_form(
    a: GroupRingElement, allow_inversion: bool = False
) -> tuple[tuple[ExponentVector, int], ...]:
    """A key on which a and b agree exactly when ``equal_up_to_units`` holds.

    Every term is shifted so the first term's exponent is 0 and the
    coefficients are signed so its coefficient is positive.  With
    ``allow_inversion`` the key is the smaller of the normal forms of a and
    of a with t -> t^-1: inversion is an involution that commutes with
    units, so those two forms make up the whole class.  Zero keys to ().
    Comparing k elements pairwise then costs k keys, not k^2 searches.
    """
    if a.is_zero:
        return ()
    key = _unit_normal_terms(a)
    if allow_inversion:
        key = min(key, _unit_normal_terms(a.invert_vars()))
    return key


def unit_collisions(named: Mapping[str, GroupRingElement]) -> list[list[str]]:
    """The names whose elements agree up to units and t -> t^-1, grouped.

    One ``unit_normal_form`` key per element; each group of two or more
    names sharing a key is listed in input order, ordered by its first name.
    Empty when the elements are pairwise distinct.
    """
    groups: dict[tuple, list[str]] = {}
    for name, elem in named.items():
        groups.setdefault(unit_normal_form(elem, allow_inversion=True), []).append(name)
    return [names for names in groups.values() if len(names) > 1]


# -- text serialization ------------------------------------------------------
#
# Grammar (round-trips with from_text):
#   element := '0' | term (('+'|'-') term)*
#   term    := coeff ('*' factor)* | factor ('*' factor)*
#   factor  := 't' index ('^' exponent)?
# Terms appear in canonical (lexicographic) order; factors with zero exponent
# are omitted; a bare coefficient stands for the constant term.

_FACTOR_RE = re.compile(r"^t(\d+)(?:\^(-?\d+))?$")


def to_text(elem: GroupRingElement) -> str:
    if elem.is_zero:
        return "0"
    chunks: list[str] = []
    for e, c in elem.terms:
        factors = [
            f"t{i + 1}" + (f"^{x}" if x != 1 else "")
            for i, x in enumerate(e)
            if x != 0
        ]
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([str(mag)] + factors)
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks)


def from_text(text: str, nvars: int) -> GroupRingElement:
    """Parse the serialization produced by ``to_text``."""
    s = text.strip()
    if s == "0":
        return GroupRingElement.zero(nvars)
    s = s.replace("- ", "-").replace("+ ", "+")
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty group-ring literal")
    # keep exponent signs out of the term splitter ("t1^-2" is one term)
    s = s.replace("^-", "^~")
    pieces = [piece.replace("^~", "^-") for piece in re.findall(r"[+-]?[^+-]+", s)]
    items: list[tuple[ExponentVector, int]] = []
    for piece in pieces:
        sign = 1
        body = piece
        if body.startswith("+"):
            body = body[1:]
        elif body.startswith("-"):
            sign = -1
            body = body[1:]
        coeff = 1
        exps = [0] * nvars
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"bad term {piece!r}")
            if factor.isdigit():
                coeff *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            idx = int(m.group(1)) - 1
            if not 0 <= idx < nvars:
                raise ValueError(
                    f"variable t{idx + 1} out of range for {nvars} variables"
                )
            exps[idx] += int(m.group(2)) if m.group(2) else 1
        items.append((tuple(exps), sign * coeff))
    return GroupRingElement.from_terms(nvars, items)


def format_univariate(elem: GroupRingElement, symbol: str = "t") -> str:
    """Human-facing print form for one-variable elements: 't - 1 + t^-1'."""
    if elem.nvars != 1:
        raise ValueError("format_univariate needs a univariate element")
    if elem.is_zero:
        return "0"
    chunks: list[str] = []
    for (e,), c in sorted(elem.terms, reverse=True):
        if e == 0:
            body = str(abs(c))
        else:
            power = symbol if e == 1 else f"{symbol}^{e}"
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks)
