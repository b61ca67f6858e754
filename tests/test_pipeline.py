"""Recipe runs, certificate partition, lemma suite, and trace replay."""

import copy
import json

import pytest

from exolink import pipeline
from exolink.grouppres import pi1_Ng
from exolink.knots import TWIST_BRAIDS, KnotRecord, twist_knot_family
from exolink.pipeline import (
    CertificateError,
    ConfigError,
    RecipeConfig,
    lemma_free_quotient,
    parse_group_arg,
    parse_knots_arg,
    run_recipe,
    validate_certificate_partition,
    verify_lemma_suite,
    verify_trace_report,
)
from exolink.manifold import (
    ObjectStore,
    canonical_json,
    compact_json,
    record_from_json,
    record_to_json,
)
from exolink.surgery import ReplayTrie, build_from_trace
from specs import spec_text


def make_config(count=3, kind="free", genus=1, **kwargs):
    return RecipeConfig(
        spec_text=spec_text("even"),
        group_kind=kind,
        genus=genus,
        knots=twist_knot_family(count),
        **kwargs,
    )


def test_report_shape_and_determinism():
    cfg = make_config(3)
    first = run_recipe(cfg)
    second = run_recipe(make_config(3))
    assert canonical_json(first) == canonical_json(second)
    assert first["format"] == "exolink/report/v3"
    assert first["verdict"] == "pass"
    names = [k.name for k in cfg.knots]
    expected_records = {"M", "B_G", "ambient_reference"}
    expected_records.update(f"Z[{n}]" for n in names)
    expected_records.update(f"Zstar[{n}]" for n in names)
    assert set(first["records"]) == expected_records
    assert all(
        first["link_components"][n] == ["belt[loop_b1]"] for n in names
    )
    assert all(c["pass"] for c in first["checks"])


def _with_twist_1_copy(count):
    return twist_knot_family(count) + (
        KnotRecord.from_braid("twist_1_copy", TWIST_BRAIDS[1]),
    )


def _collisions(report):
    return report["certificates"]["smooth_inequivalence"]["collisions"]


def test_pair_verdicts_stable_as_family_grows():
    # a knot's collision group does not depend on the knots around it
    groups = []
    for count in (3, 5):
        cfg = RecipeConfig(
            spec_text=spec_text("even"),
            group_kind="free",
            genus=1,
            knots=_with_twist_1_copy(count),
        )
        with pytest.raises(CertificateError) as exc_info:
            run_recipe(cfg)
        groups.append(_collisions(exc_info.value.report))
    assert groups[0] == groups[1] == [["twist_1", "twist_1_copy"]]
    assert _collisions(run_recipe(make_config(5))) == []


def test_duplicate_sw_raises_certificate_error_with_report():
    cfg = RecipeConfig(
        spec_text=spec_text("even"),
        group_kind="free",
        genus=1,
        knots=_with_twist_1_copy(2),
    )
    with pytest.raises(CertificateError, match="differ pairwise up to units") as exc_info:
        run_recipe(cfg)
    assert "collision: twist_1, twist_1_copy" in str(exc_info.value)
    report = exc_info.value.report
    assert report["verdict"] == "fail"
    assert _collisions(report) == [["twist_1", "twist_1_copy"]]
    failing = [c for c in report["checks"] if not c["pass"]]
    assert [c["id"] for c in failing] == ["sw_pairwise_distinct"]
    # the report is still complete: every section was assembled before the raise
    for key in (
        "link_group",
        "smooth_inequivalence",
        "ambient",
        "topological_isotopy",
        "surgery_consistency",
        "symmetry",
        "brunnian",
    ):
        assert key in report["certificates"]
    assert not validate_certificate_partition(report)


def test_single_unknot_family_degenerates_gracefully():
    report = run_recipe(make_config(1))
    assert report["verdict"] == "pass"
    assert _collisions(report) == []
    assert [c for c in report["checks"] if c["id"] == "sw_pairwise_distinct"] == [
        {
            "id": "sw_pairwise_distinct",
            "description": "sw elements differ pairwise up to units",
            "pass": True,
        }
    ]
    assert report["certificates"]["link_group"]["per_knot"] == {
        "twist_0": {"recognized": True, "rank": 1}
    }
    assert report["certificates"]["brunnian"]["subfamily_bound"] == 1


def test_surface_configuration_reports_weaker_scope():
    report = run_recipe(make_config(2, kind="surface", genus=1))
    assert report["verdict"] == "pass"
    brunnian = report["certificates"]["brunnian"]
    assert brunnian["status"] == "weaker paired-component property only"
    ids = [e["id"] for e in report["entries"]]
    assert "brunnian_scope" in ids
    assert "brunnian" not in ids
    names = [k.name for k in twist_knot_family(2)]
    assert all(
        report["link_components"][n] == ["belt[loop_a1]", "belt[loop_b1]"]
        for n in names
    )


def test_partition_validator_flags_synthetic_violations():
    report = {
        "records": {"R": {"trace": []}},
        "entries": [
            {"id": "comp", "status": "COMPUTED", "claim": "", "depends": ["trusted"], "records": []},
            {"id": "trusted", "status": "TRUSTED", "claim": "", "depends": [], "records": []},
            {
                "id": "chained",
                "status": "TRUSTED",
                "claim": "",
                "citation": "classical result",
                "depends": [],
                "records": [],
                "hypotheses": ["missing"],
                "rules": ["comp"],
            },
            {"id": "ghostly", "status": "COMPUTED", "claim": "", "depends": [], "records": ["ghost"]},
            {"id": "traceless", "status": "COMPUTED", "claim": "", "depends": [], "records": ["R"]},
            {
                "id": "cited_comp",
                "status": "COMPUTED",
                "claim": "",
                "citation": "classical result",
                "depends": [],
                "records": [],
            },
            {"id": "comp", "status": "COMPUTED", "claim": "", "depends": [], "records": [], "data": {}},
            {"id": "odd_status", "status": "MAYBE", "claim": "", "depends": [], "records": []},
        ],
    }
    violations = validate_certificate_partition(report)
    expected_fragments = [
        "duplicate entry id 'comp'",
        "COMPUTED entry depends on non-computed entry 'trusted'",
        "TRUSTED entry lacks a citation",
        "unknown hypothesis 'missing'",
        "rule 'comp' is not a TRUSTED entry",
        "references unknown record 'ghost'",
        "record 'R' has no replayable trace",
        "COMPUTED entry carries a citation",
        "COMPUTED entry is not re-derivable",
        "unknown status 'MAYBE'",
    ]
    for fragment in expected_fragments:
        assert any(fragment in v for v in violations), fragment


def test_validator_accepts_real_report():
    report = run_recipe(make_config(2))
    assert validate_certificate_partition(report) == []


def test_every_lemma_suite_record_replays(monkeypatch):
    # the records the suite compares, the zero log transforms' among them,
    # rebuild byte for byte from their traces
    compared = []
    real = pipeline.invariant_tuple

    def collect(record):
        compared.append(record)
        return real(record)

    monkeypatch.setattr(pipeline, "invariant_tuple", collect)
    assert verify_lemma_suite(3)["pass"]
    assert len(compared) == 36
    memo = ReplayTrie()
    for record in compared:
        rebuilt = build_from_trace(record.trace, memo=memo)
        assert compact_json(record_to_json(rebuilt)) == compact_json(record_to_json(record))


def test_lemma_suite_green_and_catches_corruption():
    suite = verify_lemma_suite(2)
    assert suite["pass"]
    names = {c["name"] for c in suite["checks"]}
    for g in (1, 2):
        assert {
            f"bhat_g{g}",
            f"bstar_direct_g{g}",
            f"bstar_moishezon_g{g}",
            f"nstar_g{g}",
            f"free_quotient_g{g}",
            f"iterated_fiber_sum_g{g}",
        } <= names
    with pytest.raises(ConfigError):
        verify_lemma_suite(0)

    # negative control: a corrupted block presentation (extra relator killing
    # a surviving generator) must be caught by the free-quotient check
    block = pi1_Ng(1)
    corrupted = block.quotient_by_normal_closure([block.word("b1")])
    result = lemma_free_quotient(corrupted, 1)
    assert not result["pass"]
    assert result["recognized_rank"] == 0


def test_trace_replay_full_stepped_and_tampered():
    report = run_recipe(make_config(2))
    full = verify_trace_report(report)
    assert full["pass"]
    assert all(e["identical"] for e in full["records"].values())

    stepped = verify_trace_report(report, step=2)
    for entry in stepped["records"].values():
        assert entry["replayed_steps"] <= 2
        assert "euler" in entry["invariants"]

    with pytest.raises(ValueError, match="step must be >= 1"):
        verify_trace_report(report, step=0)

    # a stored field, edited and stored again under the record's new key
    tampered = copy.deepcopy(report)
    record = tampered["objects"][tampered["records"]["Z[twist_1]"]]
    record = {**record, "euler": record["euler"] + 2}
    tampered["records"]["Z[twist_1]"] = ObjectStore(tampered["objects"]).put(record)
    broken = verify_trace_report(tampered)
    assert not broken["pass"]
    assert not broken["records"]["Z[twist_1]"]["identical"]


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="group kind"):
        make_config(2, kind="cyclic")
    with pytest.raises(ConfigError, match="genus"):
        make_config(2, genus=0)
    with pytest.raises(ConfigError, match="knot family is empty"):
        RecipeConfig(
            spec_text=spec_text("even"), group_kind="free", genus=1, knots=()
        )
    with pytest.raises(ConfigError, match="must start with the unknot"):
        RecipeConfig(
            spec_text=spec_text("even"),
            group_kind="free",
            genus=1,
            knots=twist_knot_family(2)[1:],
        )
    with pytest.raises(ConfigError, match="distinct"):
        RecipeConfig(
            spec_text=spec_text("even"),
            group_kind="free",
            genus=1,
            knots=twist_knot_family(1) * 2,
        )
    # any genus >= 1 is taken, for surface groups as for free groups
    assert make_config(1, kind="surface", genus=5).genus == 5
    assert make_config(1, kind="free", genus=5).genus == 5


def test_loop_count_tracks_group_kind():
    assert make_config(1, kind="free", genus=3).loop_count == 3
    assert make_config(1, kind="surface", genus=2).loop_count == 4


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("kind", ["free", "surface"])
def test_recipe_surgers_exactly_the_blocks_loops(kind, genus):
    cfg = make_config(1, kind=kind, genus=genus)
    block = pipeline._recipe_records(cfg)["B_G"]
    loops = {mark.label for mark in block.marks if mark.kind == "loop"}
    assert set(pipeline._loop_labels(cfg)) == loops
    assert cfg.loop_count == len(loops)


def test_parse_group_and_knot_args():
    assert parse_group_arg("free:2") == ("free", 2)
    assert parse_group_arg("surface:1") == ("surface", 1)
    with pytest.raises(ConfigError, match="free:G or surface:G"):
        parse_group_arg("free")
    with pytest.raises(ConfigError, match="bad genus"):
        parse_group_arg("free:two")

    family = parse_knots_arg("twist:0..2")
    assert [k.name for k in family] == ["twist_0", "twist_1", "twist_2"]
    explicit = parse_knots_arg("u=1:; k=2: s1^3")
    assert [k.name for k in explicit] == ["u", "k"]
    with pytest.raises(ConfigError, match="expected name=braid"):
        parse_knots_arg("u=1:; oops")
    with pytest.raises(ConfigError):
        parse_knots_arg("twist:3..1")
    # a bad braid is the same ConfigError in a list as on its own
    for text in ("2: s1^2", "a=2: s1^2", "u=1:; a=2: s1^2"):
        with pytest.raises(ConfigError, match="closure has 2 components; need a knot"):
            parse_knots_arg(text)


def _readback_config(report) -> RecipeConfig:
    """The config of a report, taken from the report alone."""
    config = report["config"]
    kind, genus = parse_group_arg(config["group"])
    return RecipeConfig(
        spec_text=json.dumps(report["objects"][config["admissible_spec"]]),
        group_kind=kind,
        genus=genus,
        knots=tuple(KnotRecord.from_braid(k["name"], k["braid"]) for k in config["knots"]),
    )


def _failing_report():
    cfg = RecipeConfig(
        spec_text=spec_text("even"), group_kind="free", genus=1, knots=_with_twist_1_copy(2)
    )
    with pytest.raises(CertificateError) as exc_info:
        run_recipe(cfg)
    return exc_info.value.report


@pytest.mark.parametrize(
    "make_report",
    [
        lambda: run_recipe(make_config(5, genus=2)),
        lambda: run_recipe(
            RecipeConfig(
                spec_text=spec_text("odd"),
                group_kind="surface",
                genus=1,
                knots=twist_knot_family(4),
            )
        ),
        _failing_report,
    ],
    ids=["readme", "odd-surface", "twist_1_copy"],
)
def test_sections_rederive_from_records_read_back(make_report):
    # every section is a function of the run's records alone: folded over
    # the records of the written report, with a fresh replay trie, the
    # sections give the report's certificates, entries and checks again
    report = json.loads(compact_json(make_report()))
    names, read = pipeline._record_reader(report)
    records = {name: record_from_json(read(name)) for name in names}
    run = pipeline._Run(_readback_config(report), records, read, ReplayTrie())
    certificates, entries, checks = {}, [], []
    for section in pipeline._SECTIONS:
        section_certificates, section_entries, section_checks = section(run)
        certificates.update(section_certificates)
        entries += section_entries
        checks += section_checks
    assert compact_json(certificates) == compact_json(report["certificates"])
    assert compact_json(entries) == compact_json(report["entries"])
    # all but the partition check, which reads the assembled report
    assert compact_json(checks) == compact_json(report["checks"][:-1])
    assert report["checks"][-1]["id"] == "partition"
    if report["config"]["group"].startswith("free:"):
        # every TRUSTED row is fired once: the table holds no dead row
        trusted = [e["id"] for e in entries if e["status"] == "TRUSTED"]
        assert sorted(trusted) == sorted(pipeline._TRUSTED)
    assert len(pipeline._SECTIONS) == len(set(pipeline._SECTIONS)) == 8
