"""Finitely presented groups: words, Tietze simplification, recognizers.

Words are tuples of signed 1-based generator indices (+i is the i-th
generator, -i its inverse), always freely reduced; relators are additionally
cyclically reduced.  The simplifier is a deterministic greedy engine whose
moves are logged and replayable, so every simplification that feeds a
certificate can be checked mechanically.

The recognizers are sound but incomplete: a None / False answer means "not
recognized by the simplifier", never a disproof, and a positive answer is
backed by an explicit relator-free or canonical-relator presentation.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .lattice import abelian_invariants_from_matrix

Word = tuple[int, ...]

_MAX_DEFINING_LENGTH = 16


def free_reduce(word: Iterable[int]) -> Word:
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word: Iterable[int]) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def invert_word(word: Iterable[int]) -> Word:
    return tuple(-letter for letter in reversed(tuple(word)))


def concat(*words: Iterable[int]) -> Word:
    out: list[int] = []
    for w in words:
        out.extend(w)
    return free_reduce(out)


def commutator(u: Iterable[int], v: Iterable[int]) -> Word:
    u, v = tuple(u), tuple(v)
    return concat(u, v, invert_word(u), invert_word(v))


@dataclass(frozen=True)
class GroupPresentation:
    """Generators by name plus freely/cyclically reduced relators."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        seen = set()
        for name in self.generators:
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        reduced = tuple(cyclic_reduce(r) for r in self.relators)
        object.__setattr__(self, "relators", reduced)
        n = len(self.generators)
        for r in reduced:
            for letter in r:
                if not 1 <= abs(letter) <= n:
                    raise ValueError(f"letter {letter} out of range in relator")

    def word(self, text: str) -> Word:
        return parse_word(text, self.generators)

    # -- invariants ------------------------------------------------------------

    def exponent_matrix(self) -> list[list[int]]:
        n = len(self.generators)
        rows = []
        for r in self.relators:
            row = [0] * n
            for letter in r:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        return rows

    @cache
    def abelianization(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion invariant factors > 1) of the abelianized group.

        Memoized by value, so the Smith form and its certificate check run
        once per distinct presentation.
        """
        return abelian_invariants_from_matrix(
            self.exponent_matrix(), len(self.generators)
        )

    def quotient_by_normal_closure(self, words: Sequence[Word]) -> "GroupPresentation":
        return GroupPresentation(self.generators, self.relators + tuple(words))

    def to_text(self) -> str:
        gens = ",".join(self.generators)
        rels = ", ".join(word_to_text(r, self.generators) for r in self.relators)
        return f"gens: {gens}; rels: {rels}"

    @classmethod
    def parse(cls, text: str) -> "GroupPresentation":
        return parse_presentation(text)


# -- word and presentation text grammar ---------------------------------------
#
#   presentation := 'gens:' namelist ';' 'rels:' wordlist
#   word         := factor (('*' | space) factor)*
#   factor       := atom ('^' integer)?
#   atom         := name | '[' word ',' word ']'
#
# '[u,v]' is the commutator u v u^-1 v^-1; '1' is the empty word.

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


class _WordParser:
    def __init__(self, text: str, names: Sequence[str]):
        self.text = text
        self.pos = 0
        self.index = {name: i + 1 for i, name in enumerate(names)}

    def error(self, message: str) -> ValueError:
        return ValueError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_int(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise self.error("expected integer")
        return int(self.text[start:self.pos])

    def parse_atom(self) -> Word:
        self.skip_ws()
        ch = self.peek()
        if ch == "[":
            self.pos += 1
            u = self.parse_word(stop=",]")
            if self.peek() != ",":
                raise self.error("expected ',' in commutator")
            self.pos += 1
            v = self.parse_word(stop=",]")
            if self.peek() != "]":
                raise self.error("expected ']' closing commutator")
            self.pos += 1
            return commutator(u, v)
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected generator name or commutator")
        name = m.group(0)
        self.pos = m.end()
        if name not in self.index:
            raise self.error(f"unknown generator {name!r}")
        return (self.index[name],)

    def parse_factor(self) -> Word:
        self.skip_ws()
        if self.peek() == "1":
            self.pos += 1
            return ()
        atom = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            power = self.parse_int()
            if power < 0:
                atom = invert_word(atom)
                power = -power
            return concat(*([atom] * power)) if power else ()
        return atom

    def parse_word(self, stop: str = "") -> Word:
        parts: list[Word] = [self.parse_factor()]
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                parts.append(self.parse_factor())
            elif ch and ch not in stop and (ch == "[" or _NAME_RE.match(self.text, self.pos)):
                parts.append(self.parse_factor())
            else:
                break
        return concat(*parts)


def parse_word(text: str, names: Sequence[str]) -> Word:
    text = text.strip()
    if not text or text == "1":
        return ()
    parser = _WordParser(text, names)
    word = parser.parse_word()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return word


def word_to_text(word: Word, names: Sequence[str]) -> str:
    if not word:
        return "1"
    chunks: list[str] = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        name = names[abs(word[i]) - 1]
        power = run if word[i] > 0 else -run
        chunks.append(name if power == 1 else f"{name}^{power}")
        i = j
    return "*".join(chunks)


def _split_top_level(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail or parts:
        parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def parse_presentation(text: str) -> GroupPresentation:
    m = re.match(r"\s*gens\s*:(?P<gens>.*?);\s*rels\s*:(?P<rels>.*)$", text, re.DOTALL)
    if not m:
        raise ValueError("presentation must look like 'gens: ...; rels: ...'")
    gen_part = m.group("gens").strip()
    names = tuple(g.strip() for g in gen_part.split(",") if g.strip())
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"bad generator name {name!r}")
    relators = tuple(
        parse_word(chunk, names) for chunk in _split_top_level(m.group("rels"))
    )
    return GroupPresentation(names, relators)


# -- free products and gluing --------------------------------------------------


def fresh_names(taken: Iterable[str], names: Iterable[str]) -> tuple[str, ...]:
    """``names`` in order, each primed until it is new to ``taken`` and to
    the names before it (generators, basis labels, mark labels)."""
    used = set(taken)
    out = []
    for name in names:
        while name in used:
            name += "'"
        used.add(name)
        out.append(name)
    return tuple(out)


def free_product(
    p1: GroupPresentation, p2: GroupPresentation
) -> tuple[GroupPresentation, int]:
    """Disjoint union of presentations; returns (result, index offset for p2)."""
    offset = len(p1.generators)
    names = p1.generators + fresh_names(p1.generators, p2.generators)
    shifted = tuple(shift_word(r, offset) for r in p2.relators)
    return GroupPresentation(names, p1.relators + shifted), offset


def shift_word(word: Word, offset: int) -> Word:
    return tuple(l + offset if l > 0 else l - offset for l in word)


def svk_glue(
    p1: GroupPresentation,
    p2: GroupPresentation,
    peripheral_pairs: Sequence[tuple[Word, Word]],
) -> GroupPresentation:
    """Free product with identifications w1 = w2 along peripheral pairs.

    This is the presentation-level pushout; callers are responsible for the
    topological hypotheses that make it the fundamental group of a gluing.
    """
    combined, offset = free_product(p1, p2)
    extra = tuple(
        concat(w1, invert_word(shift_word(w2, offset)))
        for w1, w2 in peripheral_pairs
    )
    return GroupPresentation(combined.generators, combined.relators + extra)


# -- Tietze simplification -----------------------------------------------------


@dataclass(frozen=True)
class TietzeStep:
    kind: str  # "drop_empty" | "eliminate"
    relator_index: int
    generator: int = 0
    replacement: Word = ()


@dataclass(frozen=True)
class TietzeLog:
    steps: tuple[TietzeStep, ...]
    # always False now that simplification runs to its fixpoint; kept while
    # the benchmark tracer still counts it
    exhausted: bool = False


def _substitute(word: Word, gen: int, replacement: Word) -> Word:
    out: list[int] = []
    inv = invert_word(replacement)
    for letter in word:
        if letter == gen:
            out.extend(replacement)
        elif letter == -gen:
            out.extend(inv)
        else:
            out.append(letter)
    return free_reduce(out)


def _renumber(word: Word, removed: int) -> Word:
    out = []
    for letter in word:
        a = abs(letter)
        if a == removed:
            raise AssertionError("eliminated generator still present")
        if a > removed:
            a -= 1
        out.append(a if letter > 0 else -a)
    return tuple(out)


def _defining_word(relator: Word, g: int) -> Word:
    """The word w with g = w, read off a relator in which g occurs once."""
    k = next(k for k, letter in enumerate(relator) if abs(letter) == g)
    u, letter, v = relator[:k], relator[k], relator[k + 1:]
    return concat(invert_word(u), invert_word(v)) if letter > 0 else concat(v, u)


def _eliminate(
    gens: tuple[str, ...], rels: list[Word], i: int, g: int
) -> tuple[tuple[str, ...], list[Word], Word]:
    """Pop relator i and substitute g away by the word it defines; returns
    the new generators and relators and that word."""
    w = _defining_word(rels.pop(i), g)
    rels = [cyclic_reduce(_renumber(_substitute(r, g, w), g)) for r in rels]
    return gens[: g - 1] + gens[g:], rels, w


def _apply_eliminate(
    gens: tuple[str, ...], rels: list[Word], step: TietzeStep
) -> tuple[tuple[str, ...], list[Word]]:
    i, g = step.relator_index, step.generator
    if not (0 <= i < len(rels)) or not (1 <= g <= len(gens)):
        raise ValueError("eliminate step out of range")
    if sum(1 for letter in rels[i] if abs(letter) == g) != 1:
        raise ValueError("eliminate step: generator does not occur exactly once")
    new_gens, new_rels, w = _eliminate(gens, rels, i, g)
    if w != step.replacement:
        raise ValueError("eliminate step: recorded replacement does not match")
    return new_gens, new_rels


def replay_tietze(source: GroupPresentation, log: TietzeLog) -> GroupPresentation:
    """Re-apply a recorded simplification; raises if any step fails to match."""
    gens = source.generators
    rels = list(source.relators)
    for step in log.steps:
        if step.kind == "drop_empty":
            if not (0 <= step.relator_index < len(rels)) or rels[step.relator_index]:
                raise ValueError("drop_empty step does not match the presentation")
            del rels[step.relator_index]
        elif step.kind == "eliminate":
            gens, rels = _apply_eliminate(gens, rels, step)
        else:
            raise ValueError(f"unknown Tietze step kind {step.kind!r}")
    return GroupPresentation(gens, tuple(rels))


def tietze_simplify(p: GroupPresentation) -> tuple[GroupPresentation, TietzeLog]:
    """Greedy deterministic simplification, run to its fixpoint.

    Move priority: drop an empty relator; otherwise eliminate the generator
    defined by the shortest relator (length <= 16) in which it occurs exactly
    once, ties broken by generator then relator index.  Every move deletes a
    relator, so the loop stops within ``len(p.relators)`` moves and the log
    is never ``exhausted``.
    """
    gens = p.generators
    rels = list(p.relators)
    steps: list[TietzeStep] = []
    while True:
        empty_at = next((i for i, r in enumerate(rels) if not r), None)
        if empty_at is not None:
            del rels[empty_at]
            steps.append(TietzeStep("drop_empty", empty_at))
            continue
        candidate: tuple[int, int, int] | None = None  # (len, gen, rel index)
        for i, r in enumerate(rels):
            if len(r) > _MAX_DEFINING_LENGTH:
                continue
            counts: dict[int, int] = {}
            for letter in r:
                counts[abs(letter)] = counts.get(abs(letter), 0) + 1
            for g, c in counts.items():
                if c == 1:
                    key = (len(r), g, i)
                    if candidate is None or key < candidate:
                        candidate = key
        if candidate is None:
            break
        _, g, i = candidate
        gens, rels, w = _eliminate(gens, rels, i, g)
        steps.append(TietzeStep("eliminate", i, g, w))
    return GroupPresentation(gens, tuple(rels)), TietzeLog(tuple(steps))


# -- recognizers ---------------------------------------------------------------


def recognize_free(p: GroupPresentation) -> int | None:
    """Rank if the presentation simplifies to a relator-free one, else None.

    Incomplete by design; a None is "not recognized", not a refutation.  The
    abelianization shortcut refuses immediately when torsion is present,
    since free groups have torsion-free abelianization.
    """
    _, torsion = p.abelianization()
    if torsion:
        return None
    simplified, _ = tietze_simplify(p)
    if not simplified.relators:
        return len(simplified.generators)
    return None


def _canonical_surface_word(genus: int) -> Word:
    out: list[int] = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        out.extend((a, b, -a, -b))
    return tuple(out)


def _match_relabeling(word: Word, target: Word) -> bool:
    """Does a signed generator bijection carry ``word`` to ``target``?"""
    if len(word) != len(target):
        return False
    image: dict[int, int] = {}
    used: set[int] = set()
    for c, t in zip(word, target):
        want = t if c > 0 else -t
        g = abs(c)
        if g in image:
            if image[g] != want:
                return False
        else:
            if abs(want) in used:
                return False
            image[g] = want
            used.add(abs(want))
    return True


def recognize_surface(p: GroupPresentation, genus: int) -> bool:
    """Recognize the canonical one-relator surface-group presentation.

    True only if simplification reaches 2*genus generators and a single
    relator equal to the product of commutators up to cyclic rotation,
    inversion, and a signed generator relabeling.  Each rotation fixes the
    relabeling letter by letter, so the search needs no bound on the genus.
    """
    if genus < 1:
        raise ValueError(f"recognize_surface needs genus >= 1, got {genus}")
    simplified, _ = tietze_simplify(p)
    if len(simplified.generators) != 2 * genus or len(simplified.relators) != 1:
        return False
    relator = simplified.relators[0]
    canon = _canonical_surface_word(genus)
    for base in (relator, invert_word(relator)):
        for rot in range(len(base)):
            rotated = base[rot:] + base[:rot]
            if _match_relabeling(rotated, canon):
                return True
    return False


# -- the bundle groups used by the gluing blocks -------------------------------


def pi1_Ng(g: int) -> GroupPresentation:
    """Group of the circle times the mapping torus of g disjoint Dehn twists.

    Generators x, y, a1, b1, ..., ag, bg: x is the circle factor (central),
    y the mapping-torus direction, a_i/b_i the genus-g surface generators.
    The twist relators are [y, a_i] = 1 and [y, b_i] = a_i (indexed with the
    quantifier: the i-th twist feeds the i-th a), plus the surface relation.
    Abelianization has free rank g + 2; killing x and y leaves the free
    group on the b_i.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    names = ["x", "y"]
    for i in range(1, g + 1):
        names.extend((f"a{i}", f"b{i}"))
    x, y = 1, 2
    a = [2 * i + 1 for i in range(1, g + 1)]
    b = [2 * i + 2 for i in range(1, g + 1)]
    relators: list[Word] = [commutator((x,), (y,))]
    for i in range(g):
        relators.append(commutator((x,), (a[i],)))
        relators.append(commutator((x,), (b[i],)))
    for i in range(g):
        relators.append(commutator((y,), (a[i],)))
    for i in range(g):
        relators.append(concat(commutator((y,), (b[i],)), (-a[i],)))
    surface: list[int] = []
    for i in range(g):
        surface.extend(commutator((a[i],), (b[i],)))
    relators.append(free_reduce(surface))
    return GroupPresentation(tuple(names), tuple(relators))


def pi1_product_surface(g: int) -> GroupPresentation:
    """Z^2 x (genus-g surface group): torus times surface."""
    if g < 1:
        raise ValueError("g must be >= 1")
    names = ["x", "y"]
    for i in range(1, g + 1):
        names.extend((f"a{i}", f"b{i}"))
    x, y = 1, 2
    a = [2 * i + 1 for i in range(1, g + 1)]
    b = [2 * i + 2 for i in range(1, g + 1)]
    relators: list[Word] = [commutator((x,), (y,))]
    for i in range(g):
        relators.append(commutator((x,), (a[i],)))
        relators.append(commutator((x,), (b[i],)))
        relators.append(commutator((y,), (a[i],)))
        relators.append(commutator((y,), (b[i],)))
    surface: list[int] = []
    for i in range(g):
        surface.extend(commutator((a[i],), (b[i],)))
    relators.append(free_reduce(surface))
    return GroupPresentation(tuple(names), tuple(relators))


def trivial_presentation() -> GroupPresentation:
    return GroupPresentation((), ())


def pi1_Z2() -> GroupPresentation:
    return GroupPresentation(("x", "y"), (commutator((1,), (2,)),))


def pi1_Z() -> GroupPresentation:
    return GroupPresentation(("x",), ())
