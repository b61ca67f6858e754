"""Seeded benchmark inputs with closed-form Alexander polynomials.

Every knot the benchmark hands to exolink carries a reference polynomial
computed here from a closed form, never through the package:

* twist knot with n half-twists: 1 for n = 0, k t - (2k - 1) + k t^-1 for
  n = 2k - 1, and -k t + (2k + 1) - k t^-1 for n = 2k;
* torus knot T(p, q): (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1));
* a connected sum made by chaining braid blocks on a shared strand: the
  product of the blocks' polynomials.

A polynomial is a tuple of integer coefficients, lowest degree first, read
as centred on t^0 (the normalisation exolink reports: symmetric exponent
window, value +1 at t = 1).  Inputs depend only on the seed.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from math import gcd

Poly = tuple[int, ...]

# Braid words of the twist knots with 0..10 half-twists, as in the twist
# table the package ships.  Kept here so that a change to the package's table
# cannot silently change the benchmark's inputs.
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

RECIPE_FAMILY_SIZE = 16
# The two replay reports cost about the same to verify at these sizes (a knot
# costs about three times as much to replay at surface:2 as at free:1), so
# that their times form one cluster, not two with the median between them.
REPLAY_EVEN_SIZE = 5
REPLAY_ODD_SIZE = 19
KNOTS_STRANDS = (5, 6, 7, 8, 9)
KNOTS_PER_STRANDS = 4


# -- integer polynomial arithmetic ----------------------------------------------


def poly_mul(a: Poly, b: Poly) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_divexact(num: Poly, den: Poly) -> Poly:
    """Exact quotient in Z[t]; raises if there is a remainder."""
    work = list(num)
    quo = [0] * (len(num) - len(den) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        coeff, rem = divmod(work[shift + len(den) - 1], den[-1])
        if rem:
            raise ValueError("inexact polynomial division")
        quo[shift] = coeff
        for k, d in enumerate(den):
            work[shift + k] -= coeff * d
    if any(work):
        raise ValueError("inexact polynomial division")
    return tuple(quo)


def _t_power_minus_one(n: int) -> Poly:
    return (-1,) + (0,) * (n - 1) + (1,)


def torus_alexander(p: int, q: int) -> Poly:
    num = poly_mul(_t_power_minus_one(p * q), _t_power_minus_one(1))
    den = poly_mul(_t_power_minus_one(p), _t_power_minus_one(q))
    return poly_divexact(num, den)


def twist_alexander(n: int) -> Poly:
    if n == 0:
        return (1,)
    k = (n + 1) // 2
    if n % 2:
        return (k, -(2 * k - 1), k)
    return (-k, 2 * k + 1, -k)


def unit_key(poly: Poly) -> Poly:
    """Representative of poly up to +-t^k and t -> t^-1 (for distinctness)."""
    lo = next(i for i, c in enumerate(poly) if c)
    hi = max(i for i, c in enumerate(poly) if c)
    core = poly[lo : hi + 1]
    forms = [core, tuple(-c for c in core)]
    forms += [f[::-1] for f in forms]
    return min(forms)


def poly_terms(poly: Poly) -> list[list[int]]:
    """[[exponent, coeff], ...] centred on t^0, zero coefficients dropped."""
    if len(poly) % 2 == 0:
        raise ValueError("a knot polynomial has an even degree")
    offset = (len(poly) - 1) // 2
    return [[i - offset, c] for i, c in enumerate(poly) if c]


# -- knots ------------------------------------------------------------------------


@dataclass(frozen=True)
class Knot:
    name: str
    braid: str
    alexander: Poly


def torus_braid(p: int, q: int, first: int = 1) -> str:
    """Letters of (s_first ... s_{first+p-2})^q, the torus braid T(p, q)."""
    cycle = " ".join(f"s{first + i}" for i in range(p - 1))
    if p == 2:
        return f"s{first}^{q}"
    return " ".join([cycle] * q)


def torus_knot(p: int, q: int) -> Knot:
    if gcd(p, q) != 1:
        raise ValueError(f"T({p},{q}) is a link, not a knot")
    return Knot(f"T{p}_{q}", f"{p}: {torus_braid(p, q)}", torus_alexander(p, q))


def twist_knot(n: int) -> Knot:
    return Knot("unknot" if n == 0 else f"twist_{n}", TWIST_BRAIDS[n], twist_alexander(n))


def chained_sum(name: str, blocks: list[tuple[int, int]]) -> Knot:
    """Connected sum of torus knots T(p_i, q_i), block i+1 starting on the last
    strand of block i, so the closure is the sum of the blocks' closures."""
    first = 1
    words = []
    poly: Poly = (1,)
    for p, q in blocks:
        if gcd(p, q) != 1:
            raise ValueError(f"block T({p},{q}) is a link, not a knot")
        words.append(torus_braid(p, q, first))
        poly = poly_mul(poly, torus_alexander(p, q))
        first += p - 1
    return Knot(name, f"{first}: " + " ".join(words), poly)


def recipe_pool() -> list[Knot]:
    """Non-trivial knots a family may draw from; pairwise Alexander-distinct."""
    pool = [twist_knot(n) for n in range(1, len(TWIST_BRAIDS))]
    pool += [torus_knot(2, 2 * k + 1) for k in range(2, 7)]
    pool += [torus_knot(3, q) for q in (4, 5, 7)]
    return pool


def check_distinct(knots: list[Knot]) -> None:
    seen: dict[Poly, str] = {}
    for knot in knots:
        key = unit_key(knot.alexander)
        if key in seen:
            raise ValueError(f"{seen[key]} and {knot.name} share an Alexander polynomial")
        seen[key] = knot.name


def braid_letters(braid: str) -> int:
    """Generators in the braid word, a power s_i^k counting |k| times."""
    word = braid.split(":", 1)[1]
    return sum(int(k or 1) for k in re.findall(r"s\d+(?:\^-?(\d+))?", word))


def knot_family(rng: random.Random, size: int, name: str) -> list[Knot]:
    """The unknot, then one pick from each of ``size - 1`` strata of the pool,
    in seeded order.  The strata are consecutive runs of the pool ordered by
    braid length.  The picks are drawn once, from a generator seeded by
    ``name``, because which knots a family holds moves its time by more than
    the benchmark must resolve: every seed runs the same knots, in its own
    order, so the seed changes the inputs and the output but not the work."""
    pool = sorted(recipe_pool(), key=lambda k: (braid_letters(k.braid), k.name))
    pick = random.Random(name)
    count = size - 1
    knots = [
        pick.choice(pool[i * len(pool) // count : (i + 1) * len(pool) // count])
        for i in range(count)
    ]
    family = [twist_knot(0)] + rng.sample(knots, count)
    check_distinct(family)
    return family


def _coprime_above(p: int, count: int) -> list[int]:
    """The ``count`` smallest q > p with T(p, q) a knot."""
    out: list[int] = []
    q = p
    while len(out) < count:
        q += 1
        if gcd(p, q) == 1:
            out.append(q)
    return out


def _sum_blocks(strands: int, slot: int) -> list[tuple[int, int]]:
    """Torus blocks T(p, q), p in 2..4, covering ``strands`` strands; fixed per
    width and slot (drawn once from a generator seeded by them)."""
    pick = random.Random(f"{strands}/{slot}")
    blocks = []
    left = strands - 1
    while left:
        p = pick.choice([w for w in (2, 3, 4) if w - 1 <= left])
        blocks.append((p, pick.choice(_coprime_above(p, 2))))
        left -= p - 1
    return blocks


def wide_braids(rng: random.Random) -> list[Knot]:
    """Per width 5..9: T(p, q) for the two smallest coprime q > p, and two
    chained sums of torus blocks.  The seed orders the blocks of each sum
    (so its braid word, not its polynomial) and the list, so the work and
    the output size stay the same from seed to seed."""
    knots = []
    for strands in KNOTS_STRANDS:
        torus = _coprime_above(strands, KNOTS_PER_STRANDS // 2)
        for slot in range(KNOTS_PER_STRANDS):
            if slot % 2 == 0:
                knot = torus_knot(strands, torus[slot // 2])
            else:
                blocks = _sum_blocks(strands, slot)
                rng.shuffle(blocks)
                knot = chained_sum(f"sum{strands}_{slot}", blocks)
            knots.append(Knot(f"{knot.name}_{len(knots)}", knot.braid, knot.alexander))
    rng.shuffle(knots)
    return knots


def knots_arg(knots: list[Knot]) -> str:
    """The explicit ``name=braid;...`` list exolink's --knots flag accepts."""
    return ";".join(f"{k.name}={k.braid}" for k in knots)


@dataclass(frozen=True)
class Inputs:
    recipe: list[Knot]
    replay_even: list[Knot]
    replay_odd: list[Knot]
    wide: list[Knot]


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    return Inputs(
        recipe=knot_family(rng, RECIPE_FAMILY_SIZE, "recipe"),
        replay_even=knot_family(rng, REPLAY_EVEN_SIZE, "replay_even"),
        replay_odd=knot_family(rng, REPLAY_ODD_SIZE, "replay_odd"),
        wide=wide_braids(rng),
    )
