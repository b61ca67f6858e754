"""Finitely presented groups: parsing, Tietze engine, recognizers, block groups."""
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from exolink import lattice
from exolink.grouppres import (
    GroupPresentation,
    TietzeLog,
    free_product,
    pi1_Ng,
    pi1_product_surface,
    pi1_Z,
    pi1_Z2,
    recognize_free,
    recognize_surface,
    replay_tietze,
    svk_glue,
    tietze_simplify,
    trivial_presentation,
    word_to_text,
)


def test_parse_round_trip():
    p = GroupPresentation.parse("gens: a,b; rels: [a,b], a^2")
    assert p.generators == ("a", "b")
    assert GroupPresentation.parse(p.to_text()) == p


def test_empty_presentation_round_trips():
    p = trivial_presentation()
    assert GroupPresentation.parse(p.to_text()) == p
    assert p.generators == ()


def test_word_parsing_and_inverse_text():
    p = GroupPresentation.parse("gens: a,b; rels: ")
    w = p.word("[a,b]^2")
    assert w == (1, 2, -1, -2, 1, 2, -1, -2)
    assert word_to_text(w, p.generators) == "a*b*a^-1*b^-1*a*b*a^-1*b^-1"


def test_abelianization_of_surface_and_torus_groups():
    assert pi1_Z2().abelianization() == (2, ())
    assert pi1_Z().abelianization() == (1, ())
    assert pi1_product_surface(2).abelianization() == (6, ())


def test_abelianization_memoized_by_value(monkeypatch):
    GroupPresentation.abelianization.cache_clear()
    calls = []
    original = lattice.smith_normal_form

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(lattice, "smith_normal_form", counting)
    p = GroupPresentation.parse("gens: a,b; rels: a^2, [a,b]")
    q = GroupPresentation.parse("gens: a,b; rels: a^2, [a,b]")
    assert p == q and p is not q
    assert p.abelianization() == q.abelianization() == (1, (2,))
    assert len(calls) == 1


def test_unverified_smith_certificate_is_never_memoized(monkeypatch):
    GroupPresentation.abelianization.cache_clear()
    p = GroupPresentation.parse("gens: a,b,c; rels: a^3, [b,c]")
    monkeypatch.setattr(lattice.SmithCertificate, "verify", lambda self, a: False)
    for _ in range(2):
        with pytest.raises(AssertionError):
            p.abelianization()
    monkeypatch.undo()
    assert p.abelianization() == (2, (3,))


def test_abelianization_with_torsion():
    p = GroupPresentation.parse("gens: a,b; rels: a^2")
    assert p.abelianization() == (1, (2,))


def test_pi1_Ng_abelianization_rank():
    # the twisted block group abelianizes to rank g + 2 (a_i die as commutators)
    for g in range(1, 5):
        assert pi1_Ng(g).abelianization() == (g + 2, ())


def test_free_quotient_of_block_group():
    for g in range(1, 5):
        p = pi1_Ng(g)
        q = p.quotient_by_normal_closure([p.word("x"), p.word("y")])
        assert recognize_free(q) == g


def test_recognize_free_refutes_by_torsion():
    p = GroupPresentation.parse("gens: a; rels: a^2")
    assert recognize_free(p) is None


def test_recognize_surface():
    # pi1 of the 4-torus is not a genus-1 surface group
    assert not recognize_surface(pi1_product_surface(1), 1)
    # the canonical genus-g surface group is recognized directly
    surface = GroupPresentation.parse("gens: a1,b1,a2,b2; rels: [a1,b1][a2,b2]")
    assert recognize_surface(surface, 2)
    assert not recognize_surface(surface, 1)
    # torus group
    assert recognize_surface(pi1_Z2(), 1)
    with pytest.raises(ValueError, match="genus >= 1"):
        recognize_surface(pi1_Z2(), 0)


@pytest.mark.parametrize("genus", range(1, 9))
def test_recognize_surface_at_any_genus(genus):
    # killing the torus directions of T2 x Sigma_g leaves the genus-g group
    p = pi1_product_surface(genus)
    quotient = p.quotient_by_normal_closure([p.word("x"), p.word("y")])
    assert recognize_surface(quotient, genus)
    assert not recognize_surface(quotient, genus + 1)


def test_tietze_simplify_and_replay():
    # an inflated trivial-group presentation simplifies, and the log replays
    p = GroupPresentation.parse("gens: a,b,c; rels: a b^-1, b c^-1, c")
    simplified, log = tietze_simplify(p)
    assert simplified.generators == ()
    assert replay_tietze(p, log) == simplified


@st.composite
def presentations(draw):
    n = draw(st.integers(1, 5))
    letter = st.integers(-n, n).filter(bool)
    relators = draw(st.lists(st.lists(letter, max_size=12), max_size=6))
    names = tuple(f"g{i}" for i in range(1, n + 1))
    return GroupPresentation(names, tuple(tuple(r) for r in relators))


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_tietze_simplify_reaches_its_fixpoint(p):
    # every move deletes a relator, so there is nothing to run out of
    simplified, log = tietze_simplify(p)
    assert len(log.steps) <= len(p.relators)
    assert not log.exhausted
    for r in simplified.relators:
        assert r
        if len(r) <= 16:  # the longest relator the simplifier solves
            assert all(sum(abs(x) == abs(g) for x in r) != 1 for g in r)
    assert replay_tietze(p, log) == simplified


def test_tietze_replay_detects_tampering():
    p = GroupPresentation.parse("gens: a,b; rels: a b^-1, b")
    simplified, log = tietze_simplify(p)
    other = GroupPresentation.parse("gens: a,b; rels: a b^-1, a")
    with pytest.raises(ValueError):
        replay_tietze(other, log)


@pytest.mark.parametrize(
    "text",
    [
        # a occurs as a: a = b c^-1, then b = c^-2
        "gens: a,b,c; rels: b^-1 a c, c a^-1 b^2",
        # a occurs as a^-1: a = b b
        "gens: a,b; rels: b a^-1 b",
    ],
)
def test_tietze_replay_refuses_a_recorded_word_that_does_not_match(text):
    p = GroupPresentation.parse(text)
    simplified, log = tietze_simplify(p)
    assert replay_tietze(p, log) == simplified
    assert log.steps
    for i, step in enumerate(log.steps):
        tampered = replace(step, replacement=step.replacement + (1,))
        steps = log.steps[:i] + (tampered,) + log.steps[i + 1:]
        with pytest.raises(ValueError, match="recorded replacement does not match"):
            replay_tietze(p, TietzeLog(steps, log.exhausted))


def test_free_product_and_svk_glue():
    f1 = GroupPresentation(("a",), ())
    f2 = GroupPresentation(("a",), ())
    merged, offset = free_product(f1, f2)
    assert len(merged.generators) == 2
    assert offset == 1
    # gluing a = a' abelianizes to a single Z
    glued = svk_glue(f1, f2, [(f1.word("a"), f2.word("a"))])
    assert glued.abelianization() == (1, ())


def test_quotient_by_normal_closure_kills_generator():
    p = pi1_product_surface(1)
    q = p.quotient_by_normal_closure([p.word("x"), p.word("y")])
    assert recognize_surface(q, 1)
