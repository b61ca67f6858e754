"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N [PASS|FAIL]" line (visible with -s,
or in captured output on failure) and pins the runtime where the criterion
demands one.  Every compared value is recomputed here from the public API;
nothing is read back from stored reports without re-deriving it.
"""

import json
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from exolink.cli import main
from exolink.grouppres import (
    pi1_Ng,
    recognize_free,
    recognize_surface,
    replay_tietze,
    tietze_simplify,
)
from exolink.groupring import GroupRingElement, equal_up_to_units, from_text
from exolink.knots import (
    TWIST_BRAIDS,
    KnotRecord,
    alexander_poly,
    fox_alexander,
    parse_braid,
    twist_knot_family,
)
from exolink.lattice import IntSymMatrix, indefinite_unimodular_iso
from exolink.manifold import (
    AdmissibilityError,
    admissible_from_spec,
    canonical_json,
    invariant_tuple,
    kodaira_thurston_block,
    product_T2_Sigma_g,
    record_to_json,
    u_factor,
)
from exolink.pipeline import (
    CertificateError,
    RecipeConfig,
    report_records,
    run_recipe,
    validate_certificate_partition,
    verify_lemma_suite,
    verify_trace_report,
)
from exolink.surgery import fiber_sum, knot_surgery, loop_surgery, sphere_surgery
from specs import spec_text

TIETZE_BUDGET = 10_000


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} [FAIL] {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} [PASS] {label} ({elapsed:.2f}s)")


def even_base():
    return admissible_from_spec(spec_text("even"))


def test_criterion_1_alexander_engine():
    start = time.perf_counter()
    with criterion(1, "Alexander engine: oracle agreement and symmetry"):
        unknot = alexander_poly(parse_braid("1:"))
        assert unknot == GroupRingElement.one(1)
        for text in ("2: s1^3", "3: s1 s2^-1 s1 s2^-1"):
            braid = parse_braid(text)
            match = equal_up_to_units(
                alexander_poly(braid), fox_alexander(braid), allow_inversion=True
            )
            assert match.equal
        for knot in twist_knot_family(10):
            assert knot.alexander.evaluate_at_one() in (1, -1)
            assert knot.alexander == knot.alexander.invert_vars()  # symmetric
        assert time.perf_counter() - start < 1.0


def test_criterion_2_knot_surgery_sw_formula():
    start = time.perf_counter()
    with criterion(2, "knot surgery transforms sw by the embedded Alexander factor"):
        base = even_base()
        rank = len(base.basis)
        assert base.sw == GroupRingElement.one(rank)

        family = twist_knot_family(10)
        surgered = {k.name: knot_surgery(base, "T1", k) for k in family}
        assert surgered["twist_0"].sw == base.sw
        expected_trefoil = from_text("t1^-2 - 1 + t1^2", rank)
        assert surgered["twist_1"].sw == expected_trefoil

        elements = [surgered[k.name].sw for k in family]
        for a, b in combinations(elements, 2):
            assert not equal_up_to_units(a, b, allow_inversion=False).equal
            assert not equal_up_to_units(a, b, allow_inversion=True).equal
        assert time.perf_counter() - start < 5.0


def test_criterion_3_group_engine():
    with criterion(3, "free quotients, abelianizations, and 2-link groups"):
        for g in range(1, 5):
            block = pi1_Ng(g)
            assert block.abelianization()[0] == g + 2
            quotient = block.quotient_by_normal_closure(
                [block.word("x"), block.word("y")]
            )
            assert recognize_free(quotient, TIETZE_BUDGET) == g
            simplified, log = tietze_simplify(quotient, TIETZE_BUDGET)
            assert replay_tietze(quotient, log) == simplified

        base = even_base()
        trefoil = KnotRecord.from_braid("trefoil", TWIST_BRAIDS[1])
        for g in (1, 2):
            surgered = knot_surgery(base, "T1", trefoil)
            z_free = fiber_sum(surgered, "T2", kodaira_thurston_block(g), "T")
            assert recognize_free(z_free.pi1, TIETZE_BUDGET) == g
            z_surface = fiber_sum(surgered, "T2", product_T2_Sigma_g(g), "T")
            assert recognize_surface(z_surface.pi1, g, TIETZE_BUDGET)


def test_criterion_4_lemma_suite():
    with criterion(4, "block identities verified from recomputed tuples, g <= 3"):
        suite = verify_lemma_suite(3)
        assert suite["pass"]
        assert len(suite["checks"]) == 18
        assert main(["verify", "lemmas", "--gmax", "3"]) == 0


def test_criterion_5_fiber_sum_composition():
    with criterion(5, "iterated fiber sum reproduces the surface-block sw exactly"):
        one_handle = product_T2_Sigma_g(1)
        u1 = u_factor(len(one_handle.basis), (1,) + (0,) * (len(one_handle.basis) - 1))
        assert one_handle.rel_factor("T") == u1  # relative factor (t^-1 - t)^1
        for g in (2, 3):
            iterated = one_handle
            for _ in range(g - 1):
                iterated = fiber_sum(iterated, "T", product_T2_Sigma_g(1), "T")
            reference = product_T2_Sigma_g(g)
            assert invariant_tuple(iterated) == invariant_tuple(reference)
            rank = len(reference.basis)
            u = u_factor(rank, (1,) + (0,) * (rank - 1))
            assert iterated.sw == u ** (2 * g - 2)
            assert iterated.sw == reference.sw


def test_criterion_6_admissibility_validator():
    with criterion(6, "admissibility accepts the fixture, rejects named clauses"):
        accepted = even_base()
        assert accepted.name == "M_even"

        spec = json.loads(spec_text("even"))
        spec["sw"] = "0"
        with pytest.raises(AdmissibilityError) as no_basic:
            admissible_from_spec(json.dumps(spec))
        assert any("no basic class (sw = 0)" in v for v in no_basic.value.violations)

        spec = json.loads(spec_text("even"))
        n = len(spec["basis"])
        spec["gram"] = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        with pytest.raises(AdmissibilityError) as definite:
            admissible_from_spec(json.dumps(spec))
        assert any("form not indefinite" in v for v in definite.value.violations)

        # hyperbolic block on T1/S1, then diag(1,1,1,1): signature 4 on rank 6
        spec = json.loads(spec_text("even"))
        spec["basis"] = ["T1", "S1", "T2", "S2", "C1", "C2"]
        spec["gram"] = [
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
        spec["euler"] = 8
        for mark, index in (("T1", 0), ("T2", 2)):
            spec["marks"][0 if mark == "T1" else 1]["class"] = [
                1 if i == index else 0 for i in range(6)
            ]
        with pytest.raises(AdmissibilityError) as small:
            admissible_from_spec(json.dumps(spec))
        assert any("rank 6 < |signature| + 4" in v for v in small.value.violations)


def test_criterion_7_recipe_end_to_end():
    start = time.perf_counter()
    with criterion(7, "end-to-end run over 5 twist knots certifies every clause"):
        cfg = RecipeConfig(
            spec_text=spec_text("even"),
            group_kind="free",
            genus=2,
            knots=twist_knot_family(5),
        )
        report = run_recipe(cfg)
        assert report["verdict"] == "pass"

        # the 10 pairs of the 5 knots are told apart by one key per knot
        assert report["certificates"]["smooth_inequivalence"] == {"collisions": []}
        sw_checks = [c for c in report["checks"] if c["id"].startswith("sw_")]
        assert [(c["id"], c["pass"]) for c in sw_checks] == [("sw_pairwise_distinct", True)]

        ambient = report["certificates"]["ambient"]
        assert ambient["stabilizations"] == 2
        assert all(
            entry["matches_reference"] and entry["form_isomorphic"]
            for entry in ambient["per_knot"].values()
        )
        assert all(report["certificates"]["surgery_consistency"]["per_knot"].values())
        assert validate_certificate_partition(report) == []

        # re-derive the reversal independently for one knot
        base = even_base()
        trefoil = twist_knot_family(2)[1]
        z = fiber_sum(
            knot_surgery(base, "T1", trefoil), "T2", kodaira_thurston_block(2), "T"
        )
        zstar = loop_surgery(loop_surgery(z, "loop_b1"), "loop_b2")
        stored_reference = report_records(report)["ambient_reference"]
        assert indefinite_unimodular_iso(
            zstar.form, IntSymMatrix.from_rows(stored_reference["gram"])
        )
        reversed_record = sphere_surgery(
            sphere_surgery(zstar, "belt[loop_b1]"), "belt[loop_b2]"
        )
        assert canonical_json(record_to_json(reversed_record)) == canonical_json(
            record_to_json(z)
        )
        assert time.perf_counter() - start < 30.0


def test_criterion_8_brunnian_section():
    with criterion(8, "pigeonhole bound, negative control, byte-exact replay"):
        cfg = RecipeConfig(
            spec_text=spec_text("even"),
            group_kind="free",
            genus=2,
            knots=twist_knot_family(9),
        )
        report = run_recipe(cfg)
        brunnian = report["certificates"]["brunnian"]
        assert brunnian["family_size"] == 9
        assert brunnian["subfamily_bound"] == 3  # ceil(9 / 4)
        assert brunnian["stabilization_identical"]

        replay = verify_trace_report(report)
        assert replay["pass"]
        assert all(entry["identical"] for entry in replay["records"].values())

        duplicated = twist_knot_family(2) + (
            KnotRecord.from_braid("twist_1_again", TWIST_BRAIDS[1]),
        )
        bad_cfg = RecipeConfig(
            spec_text=spec_text("even"),
            group_kind="free",
            genus=2,
            knots=duplicated,
        )
        with pytest.raises(CertificateError) as caught:
            run_recipe(bad_cfg)
        failing = caught.value.report
        assert failing["certificates"]["smooth_inequivalence"]["collisions"] == [
            ["twist_1", "twist_1_again"]
        ]
        assert [c["id"] for c in failing["checks"] if not c["pass"]] == [
            "sw_pairwise_distinct"
        ]
        assert failing["verdict"] == "fail"
