"""Recipe executor: builds the 2-link families and assembles certificates.

The recipe runs over a knot family: surger each knot into the admissible
base along its first marked torus, fiber-sum the result with the group
block along the second, then perform the block's loop surgeries so the
belt spheres form the marked link.  The emitted report partitions every
certificate entry into COMPUTED (re-derivable arithmetic over records in
the report, each with a replayable trace) and TRUSTED (a cited classical
rule, fired only with machine-checked hypotheses that are themselves
COMPUTED entries).  `validate_certificate_partition` enforces that split;
it runs on every report before it leaves `run_recipe`.  The entries and
checks come from one ordered table of sections, `_SECTIONS`, each a function
of the run's records alone; each TRUSTED entry is a row of `_TRUSTED`.

Reports carry no timestamps and iterate in configuration order, so a
fixed configuration yields byte-identical output.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .groupring import GroupRingElement, to_text as ring_to_text, unit_collisions
from .grouppres import (
    GroupPresentation,
    recognize_free,
    recognize_surface,
)
from .knots import KnotRecord, braid_to_text, knot_from_spec
from .lattice import indefinite_unimodular_iso, invariants
from .manifold import (
    GROUP_BLOCKS,
    MAX_GENUS,
    ManifoldRecord,
    ObjectMismatch,
    ObjectStore,
    admissible_from_spec,
    invariant_tuple,
    kodaira_thurston_block,
    product_T2_Sigma_g,
    record_to_json,
    same_json,
    simplifies_trivial,
    standard_block,
)
from .surgery import (
    ReplayTrie,
    SurgeryError,
    _step_fields,
    _zero_log_transform,
    build_from_trace,
    connected_sum,
    dissolve_knot_surgery_after_stabilization,
    fiber_sum,
    knot_surgery,
    loop_surgery,
    mandelbaum_gompf_hypotheses,
    sphere_surgery,
)

REPORT_FORMAT = "exolink/report/v3"

# The TRUSTED entries of a report, one row each: id -> (claim, citation,
# hypotheses, rules).  A TRUSTED entry fires a cited rule; its hypotheses name
# COMPUTED entries and its rules name other TRUSTED entries.
_TRUSTED = {
    "smooth_inequivalence": (
        "the 2-links are pairwise smoothly inequivalent",
        "distinct Seiberg-Witten elements obstruct any smooth equivalence of the "
        "2-links: diffeomorphism invariance of the basic classes up to sign and "
        "conjugation (Witten; Taubes), knot-surgery product formula "
        "(Fintushel-Stern)",
        ("sw_pairwise_distinct",),
        (),
    ),
    "ambient_diffeomorphism": (
        "the stabilized records are diffeomorphic to the reference connected sum",
        "invariant-level agreement upgrades to a diffeomorphism with the "
        "stabilized model: dissolution of knot-surgered pieces after loop "
        "surgeries (Akbulut; Auckly; Baykur) and stable classification of simply "
        "connected 4-manifolds (Wall)",
        ("ambient_tuples_match",),
        (),
    ),
    "topological_isotopy": (
        "the 2-links are pairwise topologically isotopic and componentwise "
        "topologically unknotted",
        "pairwise topological isotopy and componentwise topological unknotting "
        "of the links: topological classification of simply connected "
        "4-manifolds (Freedman), realization of form isomorphisms (Wall), "
        "topological isotopy of homeomorphisms (Quinn; Perron)",
        ("ambient_tuples_match", "ambient_simply_connected", "forms_indefinite",
         "fixture_complement_flags"),
        (),
    ),
    "symmetry": (
        "each family member is a smoothly symmetric 2-link",
        "ambient symmetry permuting the framed loop set: mapping classes of the "
        "base surface act by fiber-preserving diffeomorphisms of the block "
        "(Thurston; Lickorish)",
        ("symmetry_relabeling",),
        (),
    ),
    "mg_rewrite_rule": (
        "with those hypotheses, one stabilization rewrites the fiber sum as "
        "a connected sum with the pushoff-surgered block",
        "one stabilization turns the fiber sum into a connected sum with the "
        "pushoff-surgered block (Mandelbaum; Gompf; Moishezon decomposition)",
        ("mg_hypotheses",),
        (),
    ),
    "framing_two_per_loop": (
        "each loop surgery has exactly two framings, so a pair of loop "
        "surgeries produces at most four diffeomorphism types",
        "a framed loop in an orientable 4-manifold admits exactly two framings, "
        "pi_1(SO(3)) = Z/2 (Wallace; Milnor)",
        (),
        (),
    ),
    "brunnian": (
        "a subfamily of the stated size is pairwise Brunnianly exotic",
        "sublinks of the stabilized families become smoothly equivalent, giving "
        "the Brunnian-type conclusion (Mandelbaum-Gompf rewriting plus the "
        "dissolution rule of Akbulut; Auckly; Baykur)",
        ("stabilization_dissolve", "mg_hypotheses", "brunnian_pigeonhole",
         "symmetry_relabeling", "sw_pairwise_distinct"),
        ("mg_rewrite_rule", "framing_two_per_loop", "smooth_inequivalence"),
    ),
}


class ConfigError(ValueError):
    """A recipe configuration violates its own invariants."""


class CertificateError(RuntimeError):
    """A COMPUTED certificate check failed; carries the completed report."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class RecipeConfig:
    """Inputs to `run_recipe`, validated on construction."""

    spec_text: str
    group_kind: str  # "free" | "surface"
    genus: int
    knots: tuple[KnotRecord, ...]

    def __post_init__(self) -> None:
        if self.group_kind not in GROUP_BLOCKS:
            raise ConfigError(f"group kind must be free or surface, got {self.group_kind!r}")
        if self.genus < 1:
            raise ConfigError(f"genus must be >= 1, got {self.genus}")
        if self.genus > MAX_GENUS:
            raise ConfigError(f"genus must be <= {MAX_GENUS}, got {self.genus}")
        if not self.knots:
            raise ConfigError("knot family is empty")
        first = self.knots[0]
        if first.alexander != GroupRingElement.one(first.alexander.nvars):
            raise ConfigError(
                "knot family must start with the unknot (Alexander polynomial 1); "
                f"first entry {first.name!r} has "
                f"{ring_to_text(first.alexander)}"
            )
        names = [k.name for k in self.knots]
        if len(set(names)) != len(names):
            raise ConfigError("knot names must be distinct")

    @property
    def loop_count(self) -> int:
        return len(_loop_labels(self))


def parse_group_arg(text: str) -> tuple[str, int]:
    """Parse "free:2" / "surface:1" into (kind, genus)."""
    kind, sep, g_text = text.partition(":")
    if not sep:
        raise ConfigError(f"group must look like free:G or surface:G, got {text!r}")
    try:
        genus = int(g_text)
    except ValueError as exc:
        raise ConfigError(f"bad genus {g_text!r}") from exc
    return kind.strip(), genus


def parse_knots_arg(text: str) -> tuple[KnotRecord, ...]:
    """Parse "twist:A..B" (or any `knot_from_spec` form) or "name=braid;..."."""
    text = text.strip()
    try:
        if "=" not in text:
            return knot_from_spec(text)
        records = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, sep, braid = chunk.partition("=")
            if not sep:
                raise ValueError(f"bad knot entry {chunk!r}; expected name=braid")
            records.append(KnotRecord.from_braid(name.strip(), braid.strip()))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not records:
        raise ConfigError("explicit knot list is empty")
    return tuple(records)


# -- report reading ---------------------------------------------------------------


def _record_reader(report: dict, store: ObjectStore | None = None):
    """``(names, read)``: the record names of a v1, v2 or v3 report, and a
    function that returns one record in its `record_to_json` form.
    ``store`` is the `ObjectStore` that wrote the report's objects, if any.

    A v1 report stores records in that form; v2 and v3 store the key of
    each record's object (see `ObjectStore`), which ``read`` expands, with
    the Gram matrix made dense again.  What ``read`` returns shares values
    with the report, so copy a value before editing it in place.  It
    raises ValueError naming the record when the record is not an object,
    its trace is not a list of objects, or it does not resolve: a key names
    no object, or an object does not hash to its key (ObjectMismatch,
    naming that key).  Raises ValueError at once when ``records`` is
    missing, when it or a v2 or v3 report's ``objects`` is not an object, or
    when ``format`` names no v1, v2 or v3 report; a report without a
    ``format`` is read as v1.
    """
    if "records" not in report:
        raise ValueError("malformed report: no 'records'")
    records = report["records"]
    if not isinstance(records, dict):
        raise ValueError("report 'records' must be an object")
    fmt = report.get("format", "exolink/report/v1")
    if fmt not in ("exolink/report/v1", "exolink/report/v2", REPORT_FORMAT):
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt != "exolink/report/v1":
        objects = report.get("objects")
        if not isinstance(objects, dict):
            raise ValueError("report 'objects' must be an object")
        if store is None or store.objects is not objects:
            store = ObjectStore(objects)

        def load(name: str):
            return store.record(records[name])

    else:
        load = records.__getitem__

    def read(name: str) -> dict:
        try:
            stored = load(name)
        except ValueError as exc:
            raise type(exc)(f"record {name!r} does not resolve: {exc}") from exc
        if not isinstance(stored, dict):
            raise ValueError(f"record {name!r} is not an object")
        trace = stored.get("trace", [])
        if not isinstance(trace, list) or not all(isinstance(s, dict) for s in trace):
            raise ValueError(f"record {name!r}: trace must be a list of objects")
        return stored

    return list(records), read


def report_records(report: dict) -> dict[str, dict]:
    """Every record of a v1, v2 or v3 report by name, in its `record_to_json` form.

    ``report render`` reads records through it; `verify_trace_report` and
    `validate_certificate_partition` read them one by one through the same
    reader, so that a record that does not resolve fails alone.  Raises
    ValueError naming the first record that does not resolve.
    """
    names, read = _record_reader(report)
    return {name: read(name) for name in names}


def validate_certificate_partition(report: dict, store: ObjectStore | None = None) -> list[str]:
    """Schema-level soundness of the COMPUTED / TRUSTED split.

    COMPUTED entries may depend only on COMPUTED entries and must point at
    something re-derivable (a record with a trace, a dependency, or inline
    data).  TRUSTED entries must carry a citation, and every hypothesis
    they list must resolve to a COMPUTED entry; chained rules must resolve
    to TRUSTED entries.  Returns the violation list (empty means valid); an
    entry pointing at a record that does not resolve is a violation.
    ``store`` is the `ObjectStore` that wrote the report's objects, whose
    keys need no check.
    """
    violations: list[str] = []
    names, read = _record_reader(report, store)
    records, unresolved = {}, {}
    for name in names:
        try:
            records[name] = read(name)
        except ValueError as exc:
            unresolved[name] = str(exc)
    entries = report.get("entries", [])
    by_id: dict[str, dict] = {}
    for entry in entries:
        eid = entry.get("id")
        if eid in by_id:
            violations.append(f"duplicate entry id {eid!r}")
        by_id[eid] = entry
    for entry in entries:
        eid, status = entry.get("id"), entry.get("status")
        if status not in ("COMPUTED", "TRUSTED"):
            violations.append(f"{eid}: unknown status {status!r}")
            continue
        for dep in entry.get("depends", []):
            target = by_id.get(dep)
            if target is None:
                violations.append(f"{eid}: depends on unknown entry {dep!r}")
            elif status == "COMPUTED" and target.get("status") != "COMPUTED":
                violations.append(
                    f"{eid}: COMPUTED entry depends on non-computed entry {dep!r}"
                )
        for name in entry.get("records", []):
            stored = records.get(name)
            if name in unresolved:
                violations.append(f"{eid}: {unresolved[name]}")
            elif stored is None:
                violations.append(f"{eid}: references unknown record {name!r}")
            elif not stored.get("trace"):
                violations.append(f"{eid}: record {name!r} has no replayable trace")
        if status == "COMPUTED":
            if entry.get("citation"):
                violations.append(f"{eid}: COMPUTED entry carries a citation")
            if not (entry.get("records") or entry.get("depends") or "data" in entry):
                violations.append(f"{eid}: COMPUTED entry is not re-derivable")
        else:
            if not entry.get("citation"):
                violations.append(f"{eid}: TRUSTED entry lacks a citation")
            for hyp in entry.get("hypotheses", []):
                target = by_id.get(hyp)
                if target is None:
                    violations.append(f"{eid}: unknown hypothesis {hyp!r}")
                elif target.get("status") != "COMPUTED":
                    violations.append(
                        f"{eid}: hypothesis {hyp!r} is not a COMPUTED entry"
                    )
            for rule in entry.get("rules", []):
                target = by_id.get(rule)
                if target is None:
                    violations.append(f"{eid}: unknown rule {rule!r}")
                elif target.get("status") != "TRUSTED":
                    violations.append(f"{eid}: rule {rule!r} is not a TRUSTED entry")
    return violations


# -- the recipe --------------------------------------------------------------------


def _loop_labels(cfg: RecipeConfig) -> tuple[str, ...]:
    return GROUP_BLOCKS[cfg.group_kind].loop_labels(cfg.genus)


def _spec(base: ManifoldRecord) -> dict:
    """The spec document a base record was built from: its base step's,
    parsed once by `admissible_from_spec`."""
    return _step_fields("base", base.trace[0], {"args": {"spec": dict}})["args"]["spec"]


def _recipe_records(cfg: RecipeConfig) -> dict[str, ManifoldRecord]:
    """Every record of a run by its report name, in the order the report
    stores them: ``M``, ``B_G``, ``Z[k]`` and ``Zstar[k]`` for each knot k,
    then ``ambient_reference``.  The order is output: a trace object's
    ``parent`` is the longest proper prefix stored before it."""
    base = admissible_from_spec(cfg.spec_text)
    roles = _spec(base)["admissible"]
    block = GROUP_BLOCKS[cfg.group_kind].build(cfg.genus)
    records = {"M": base, "B_G": block}
    for knot in cfg.knots:
        z = fiber_sum(knot_surgery(base, roles["T1"], knot), roles["T2"], block, "T")
        records[f"Z[{knot.name}]"] = z
        for label in _loop_labels(cfg):
            z = loop_surgery(z, label)
        records[f"Zstar[{knot.name}]"] = z
    ambient = base
    for _ in range(cfg.loop_count):
        ambient = connected_sum(ambient, standard_block("S2xS2"))
    records["ambient_reference"] = ambient
    return records


def run_recipe(cfg: RecipeConfig) -> dict:
    """Execute the construction over the knot family and certify the claims.

    Returns the completed report; raises CertificateError (which carries
    that same report) if any COMPUTED check fails, naming the failing
    clause and, for the SW check, each group of colliding knots.
    """
    records = _recipe_records(cfg)
    store = ObjectStore()
    report: dict = {
        "format": REPORT_FORMAT,
        "config": {
            "admissible_spec": store.put(_spec(records["M"])),
            "group": f"{cfg.group_kind}:{cfg.genus}",
            "knots": [{"name": k.name, "braid": braid_to_text(k.braid)} for k in cfg.knots],
        },
        "records": {name: store.put_record(record) for name, record in records.items()},
        "objects": store.objects,
        "link_components": {
            k.name: [f"belt[{label}]" for label in _loop_labels(cfg)] for k in cfg.knots
        },
        "certificates": {},
        "entries": [],
        "checks": [],
    }
    # one replay trie for this run: sphere surgery and dissolution replay
    # their shared trace prefixes once (see `build_from_trace`)
    run = _Run(cfg, records, lambda name: store.record(report["records"][name]), ReplayTrie())
    for section in _SECTIONS:
        certificates, entries, checks = section(run)
        report["certificates"].update(certificates)
        report["entries"] += entries
        report["checks"] += checks

    partition = validate_certificate_partition(report, store)
    description = "certificate partition validates (computed never rests on a citation)"
    report["checks"].append(_check("partition", description, not partition))
    if partition:
        report["certificates"]["partition_violations"] = partition

    failed = [c for c in report["checks"] if not c["pass"]]
    report["verdict"] = "pass" if not failed else "fail"
    if failed:
        raise CertificateError("; ".join(c["description"] for c in failed), report)
    return report


# -- the certificate sections ---------------------------------------------------------
#
# Each section is a function of one `_Run` alone and returns
# ``(certificates, entries, checks)``: the report's ``certificates`` keys it
# sets, and its entries and checks in report order.  It writes nothing, so
# folding `_SECTIONS` over records read back from a report gives the report's
# sections again.


@dataclass(frozen=True)
class _Run:
    """What the sections read: the config, the records by report name,
    ``stored(name)`` (a record as the report stores it, in its
    `record_to_json` form) and the run's replay trie."""

    cfg: RecipeConfig
    records: dict[str, ManifoldRecord]
    stored: Callable[[str], dict]
    memo: ReplayTrie

    def family(self, kind: str) -> dict[str, ManifoldRecord]:
        """The record ``kind[k]`` of each knot k, by knot name, in family order."""
        return {k.name: self.records[f"{kind}[{k.name}]"] for k in self.cfg.knots}


def _computed(entry_id: str, claim: str, records=(), data=None) -> dict:
    entry = dict(id=entry_id, status="COMPUTED", claim=claim, depends=[], records=list(records))
    return entry if data is None else {**entry, "data": data}


def _trusted(entry_id: str) -> dict:
    """The entry of the `_TRUSTED` row ``entry_id``."""
    claim, citation, hypotheses, rules = _TRUSTED[entry_id]
    entry = dict(id=entry_id, status="TRUSTED", claim=claim, depends=[], records=[])
    return {**entry, "citation": citation, "hypotheses": list(hypotheses), "rules": list(rules)}


def _check(check_id: str, description: str, passed: bool) -> dict:
    return {"id": check_id, "description": description, "pass": passed}


def _admissible_base(run: _Run):
    entry = _computed(
        "admissible_base",
        "the base record satisfies every admissibility clause",
        ("M",),
        invariant_tuple(run.records["M"]),
    )
    return {}, [entry], []


def _link_group(run: _Run):
    cfg = run.cfg
    if cfg.group_kind == "free":
        expected = f"free group of rank {cfg.genus}"
    else:
        expected = f"genus-{cfg.genus} surface group"
    per_knot, checks = {}, []
    for name, z in run.family("Z").items():
        if cfg.group_kind == "free":
            rank = recognize_free(z.pi1)
            ok = rank == cfg.genus
            per_knot[name] = {"recognized": ok, "rank": rank}
        else:
            ok = recognize_surface(z.pi1, cfg.genus)
            per_knot[name] = {"recognized": ok}
        checks.append(
            _check(f"link_group/{name}", f"2-link group of {name} recognized as the {expected}", ok)
        )
    entry = _computed(
        "link_group",
        f"every family member's 2-link group is recognized as the {expected}",
        tuple(f"Z[{n}]" for n in per_knot),
        {"expected": expected},
    )
    return {"link_group": {"expected": expected, "per_knot": per_knot}}, [entry], checks


def _smooth_inequivalence(run: _Run):
    z_records = run.family("Z")
    collisions = unit_collisions({n: z.sw for n, z in z_records.items()})
    check = _check(
        "sw_pairwise_distinct",
        "sw elements differ pairwise up to units"
        + "".join(f"; collision: {', '.join(group)}" for group in collisions),
        not collisions,
    )
    entries = [
        _computed(
            "sw_pairwise_distinct",
            "the tracked sw elements are pairwise distinct up to units",
            tuple(f"Z[{n}]" for n in z_records),
        ),
        _trusted("smooth_inequivalence"),
    ]
    return {"smooth_inequivalence": {"collisions": collisions}}, entries, [check]


def _ambient(run: _Run):
    ambient = run.records["ambient_reference"]
    target = invariant_tuple(ambient)
    per_knot, checks = {}, []
    for name, zs in run.family("Zstar").items():
        tup = invariant_tuple(zs)
        same_tuple = tup == target
        form_iso = indefinite_unimodular_iso(zs.form, ambient.form)
        per_knot[name] = {
            "invariants": tup,
            "matches_reference": same_tuple,
            "form_isomorphic": form_iso,
        }
        checks.append(
            _check(
                f"ambient/{name}",
                f"Zstar[{name}] matches the stabilized reference at invariant level",
                same_tuple and form_iso,
            )
        )
    certificate = {
        "reference": target,
        "stabilizations": run.cfg.loop_count,
        "per_knot": per_knot,
    }
    entries = [
        _computed(
            "ambient_tuples_match",
            "every stabilized record matches the reference connected sum: equal "
            "invariant tuples and isomorphic indefinite unimodular forms",
            tuple(f"Zstar[{n}]" for n in per_knot) + ("ambient_reference",),
            {"reference": target},
        ),
        _trusted("ambient_diffeomorphism"),
    ]
    return {"ambient": certificate}, entries, checks


def _topological_isotopy(run: _Run):
    zstar_records = run.family("Zstar")
    zstar_names = tuple(f"Zstar[{n}]" for n in zstar_records)
    base = run.records["M"]
    trivial = {name: simplifies_trivial(zs.pi1) for name, zs in zstar_records.items()}
    indefinite = {name: invariants(zs.form).indefinite for name, zs in zstar_records.items()}
    flags_ok = all(
        "complement_simply_connected" in m.flags for m in base.marks if m.kind == "torus"
    )
    checks = [
        _check(
            "ambient_simply_connected",
            "every stabilized record's group simplifies to the trivial presentation",
            all(trivial.values()),
        ),
        _check(
            "forms_indefinite",
            "every stabilized intersection form is indefinite",
            all(indefinite.values()),
        ),
        _check(
            "fixture_complement_flags",
            "both base tori carry the simply-connected-complement flag",
            flags_ok,
        ),
    ]
    rule = _trusted("topological_isotopy")
    entries = [
        _computed(
            "ambient_simply_connected",
            "every stabilized record is certified simply connected",
            zstar_names,
            trivial,
        ),
        _computed(
            "forms_indefinite",
            "every stabilized intersection form is indefinite, so form "
            "isomorphisms are realizable",
            zstar_names,
            indefinite,
        ),
        _computed(
            "fixture_complement_flags",
            "the base record's marked tori carry simply connected complements",
            ("M",),
            {"ok": flags_ok},
        ),
        rule,
    ]
    certificate = {"citation": rule["citation"], "computed_prerequisites": list(rule["hypotheses"])}
    return {"topological_isotopy": certificate}, entries, checks


def _surgery_consistency(run: _Run):
    belts = [f"belt[{label}]" for label in _loop_labels(run.cfg)]
    per_knot, checks = {}, []
    for name, zs in run.family("Zstar").items():
        current = sphere_surgery(zs, *belts, memo=run.memo)
        # Z[k] as the report stores it, read back rather than rendered again
        same = same_json(record_to_json(current), run.stored(f"Z[{name}]"))
        per_knot[name] = same
        checks.append(
            _check(
                f"surgery_consistency/{name}",
                f"surgering all of {name}'s link components reproduces Z[{name}] "
                "field for field",
                same,
            )
        )
    entry = _computed(
        "surgery_consistency",
        "reversing every component's loop surgery reproduces the ancestor "
        "record byte for byte",
        tuple(f"Z[{n}]" for n in per_knot) + tuple(f"Zstar[{n}]" for n in per_knot),
        {"per_knot": per_knot},
    )
    return {"surgery_consistency": {"per_knot": per_knot}}, [entry], checks


def _symmetry(run: _Run):
    block = run.records["B_G"]
    loops = _loop_labels(run.cfg)
    zstar_records = run.family("Zstar")
    framings = [block.mark(label).framing for label in loops]
    words = [block.mark(label).pi1_words for label in loops]
    single_generators = all(
        len(ws) == 1 and ws[0] in block.pi1.generators for ws in words
    )
    distinct = len(set(words)) == len(words)
    same_framing = len(set(framings)) <= 1
    belts_uniform = True
    for zs in zstar_records.values():
        belt_marks = [zs.mark(f"belt[{label}]") for label in loops]
        shapes = {
            (m.kind, m.framing, m.flags, m.homology_class) for m in belt_marks
        }
        belts_uniform = belts_uniform and len(shapes) == 1
    interchangeable = single_generators and distinct and same_framing and belts_uniform
    check = _check(
        "symmetry_relabeling",
        "the marked loops are interchangeable by relabeling the block's "
        "generators",
        interchangeable,
    )
    rule = _trusted("symmetry")
    entries = [
        _computed(
            "symmetry_relabeling",
            "the block's loop marks share one framing tag and are distinct "
            "single generators, and all belt components are congruent",
            ("B_G",) + tuple(f"Zstar[{n}]" for n in zstar_records),
            {
                "framings": framings,
                "words": [list(w) for w in words],
                "belts_uniform": belts_uniform,
            },
        ),
        rule,
    ]
    certificate = {"interchangeable_by_relabeling": interchangeable, "citation": rule["citation"]}
    return {"symmetry": certificate}, entries, [check]


def _brunnian(run: _Run):
    """The Brunnian-type section.

    For a surface group configuration the strong conclusion is not
    available and the section says so; for a free configuration it
    records the stabilization byte-identity, the rewrite-rule hypothesis
    branch, and the explicit pigeonhole over framing buckets.
    """
    cfg = run.cfg
    if cfg.group_kind != "free":
        note = (
            "surface-group configuration: disregarding a pair of components "
            "yields smoothly equivalent sublinks, the weaker paired-component "
            "property only"
        )
        entry = _computed(
            "brunnian_scope",
            "the Brunnian-type conclusion is restricted to free-group "
            "configurations; this run is a surface configuration",
            data={"group": f"{cfg.group_kind}:{cfg.genus}"},
        )
        certificate = {"status": "weaker paired-component property only", "note": note}
        return {"brunnian": certificate}, [entry], []

    # stabilization clause: after one connected sum with S2xS2 the knot
    # surgery dissolves, and the result is one record independent of the knot
    z_records = run.family("Z")
    cores = []
    for z in z_records.values():
        stabilized = connected_sum(z, standard_block("S2xS2"))
        dissolved = dissolve_knot_surgery_after_stabilization(stabilized, run.memo)
        cores.append({k: v for k, v in record_to_json(dissolved).items() if k != "trace"})
    identical = bool(cores) and all(same_json(cores[0], core) for core in cores[1:])

    t2_label = _spec(run.records["M"])["admissible"]["T2"]
    try:
        branch, detail = mandelbaum_gompf_hypotheses(run.records["M"], t2_label)
        mg = {"certified": True, "branch": branch, "detail": detail}
    except SurgeryError as exc:
        mg = {"certified": False, "blocked_by": str(exc)}
    checks = [
        _check(
            "brunnian_stabilization",
            "one stabilization dissolves the knot surgery to a single record "
            "shared by every family member",
            identical,
        ),
        _check(
            "brunnian_mg_hypotheses",
            "the fiber-sum-to-connected-sum rewrite hypotheses are certified on "
            "the base record",
            mg["certified"],
        ),
    ]

    knot_count = len(cfg.knots)
    buckets = 4
    bound = math.ceil(knot_count / buckets)
    entries = [
        _computed(
            "stabilization_dissolve",
            "connected sum with one S2xS2 followed by the dissolution rewrite "
            "yields byte-identical records (traces aside) for every knot",
            tuple(f"Z[{n}]" for n in z_records),
            {"identical": identical},
        ),
        _computed(
            "mg_hypotheses",
            "the base record satisfies the rewrite rule's hypotheses "
            f"({mg.get('branch', 'uncertified')} branch)",
            ("M",),
            mg,
        ),
        _trusted("mg_rewrite_rule"),
        _trusted("framing_two_per_loop"),
        _computed(
            "brunnian_pigeonhole",
            f"pigeonhole over at most {buckets} framing buckets keeps a "
            f"subfamily of at least {bound} of the {knot_count} knots",
            data={"knots": knot_count, "buckets": buckets, "bound": bound},
        ),
        _trusted("brunnian"),
    ]
    certificate = {
        "stabilization_identical": identical,
        "mg_hypotheses": mg,
        "framing_buckets": buckets,
        "family_size": knot_count,
        "subfamily_bound": bound,
        "note": (
            "framings are opaque tags, so equal tags do not certify equal "
            "framings; the bound is the worst case over the four buckets and "
            "sharper framing tracking could raise it to the full family"
        ),
    }
    return {"brunnian": certificate}, entries, checks


# the sections in report order
_SECTIONS = (
    _admissible_base,
    _link_group,
    _smooth_inequivalence,
    _ambient,
    _topological_isotopy,
    _surgery_consistency,
    _symmetry,
    _brunnian,
)


# -- block lemma suite --------------------------------------------------------------


def _tuple_check(name: str, left_label: str, left: dict, right_label: str, right: dict) -> dict:
    return {
        "name": name,
        "pass": left == right,
        left_label: left,
        right_label: right,
    }


def lemma_free_quotient(p: GroupPresentation, genus: int) -> dict:
    """Check that killing x and y in the block group leaves a rank-g free group."""
    quotient = p.quotient_by_normal_closure([p.word("x"), p.word("y")])
    rank = recognize_free(quotient)
    return {
        "name": f"free_quotient_g{genus}",
        "pass": rank == genus,
        "recognized_rank": rank,
        "expected_rank": genus,
    }


def verify_lemma_suite(gmax: int) -> dict:
    """Invariant-level verification of the block identities for g = 1..gmax.

    Every compared tuple is recomputed from constructors and operations;
    no value is hand-entered.  Returns a report with per-check tuples;
    "pass" is the conjunction.
    """
    if gmax < 1:
        raise ConfigError(f"gmax must be >= 1, got {gmax}")
    checks: list[dict] = []
    t2xs2 = standard_block("T2xS2")

    def stabilized_reference(copies: int) -> ManifoldRecord:
        ref = t2xs2
        for _ in range(copies):
            ref = connected_sum(ref, standard_block("S2xS2"))
        return ref

    for g in range(1, gmax + 1):
        product = product_T2_Sigma_g(g)

        # zero log transforms along both Lagrangian directions of every
        # handle reduce the product block to T2 x S2
        bhat = product
        for i in range(1, g + 1):
            bhat = _zero_log_transform(bhat, f"xa{i}")
            bhat = _zero_log_transform(bhat, f"xb{i}")
        checks.append(
            _tuple_check(
                f"bhat_g{g}",
                "transformed",
                invariant_tuple(bhat),
                "reference",
                invariant_tuple(t2xs2),
            )
        )

        # direct route: loop surgeries along all 2g loops of the product,
        # compared with the connected sum rebuilt from standard blocks
        direct = product
        for i in range(1, g + 1):
            direct = loop_surgery(direct, f"loop_a{i}")
            direct = loop_surgery(direct, f"loop_b{i}")
        checks.append(
            _tuple_check(
                f"bstar_direct_g{g}",
                "surgered",
                invariant_tuple(direct),
                "reference",
                invariant_tuple(stabilized_reference(2 * g)),
            )
        )

        # Moishezon route: stabilize the transformed block 2g times with
        # certified nullhomotopic loops; must agree with the direct route
        moishezon = bhat
        for i in range(1, 2 * g + 1):
            moishezon = loop_surgery(
                moishezon, f"c{i}", word="1", nullhomotopic=True
            )
        checks.append(
            _tuple_check(
                f"bstar_moishezon_g{g}",
                "moishezon",
                invariant_tuple(moishezon),
                "direct",
                invariant_tuple(direct),
            )
        )

        # the free-group block: surger every b-loop out of N_g
        block = kodaira_thurston_block(g)
        nstar = block
        for i in range(1, g + 1):
            nstar = loop_surgery(nstar, f"loop_b{i}")
        checks.append(
            _tuple_check(
                f"nstar_g{g}",
                "surgered",
                invariant_tuple(nstar),
                "reference",
                invariant_tuple(stabilized_reference(g)),
            )
        )

        checks.append(lemma_free_quotient(block.pi1, g))

        # iterated fiber sum of g copies of the g=1 block matches the
        # direct constructor, tracked invariants and sw alike
        iterated = kodaira_thurston_block(1)
        for _ in range(g - 1):
            iterated = fiber_sum(iterated, "T", kodaira_thurston_block(1), "T")
        same_form = iterated.form.rows == block.form.rows
        same_sw = iterated.sw == block.sw
        checks.append(
            {
                "name": f"iterated_fiber_sum_g{g}",
                "pass": invariant_tuple(iterated) == invariant_tuple(block)
                and same_form
                and same_sw,
                "iterated": invariant_tuple(iterated),
                "reference": invariant_tuple(block),
                "same_form": same_form,
                "same_sw": same_sw,
            }
        )

    return {
        "format": "exolink/lemma-report/v1",
        "gmax": gmax,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


# -- trace verification ---------------------------------------------------------------


def verify_trace_report(report: dict, step: int | None = None) -> dict:
    """Replay every record trace in a report.

    Full replay (default) compares the rebuilt record byte for byte with
    the stored one; a record that differs lists the top-level fields that
    diverged under ``differs``.  With ``step`` = k, only the first k steps are
    replayed (clamped to each record's trace length) and the
    intermediate invariants are reported; no byte comparison is possible
    mid-trace.

    The replays share one trie of replayed prefixes (see
    `build_from_trace`), so a record whose trace extends another's, like
    ``M`` inside every ``Z[k]`` and ``Z[k]`` inside ``Zstar[k]``, resumes
    from it, whichever of the two replays first.  The stored records are
    only ever compared with, never replayed from.

    Reads v1, v2 and v3 reports alike (see `report_records`), and checks a
    pre-v3 record's ``rel_sw`` texts against the rebuilt sw.  Raises
    ValueError when ``records`` is missing or not an object, and, naming
    the record, when a record, its trace or a trace step is not the JSON
    shape a report writes, or a key names no object.  A record that
    reaches an object whose content does not hash to its key is not
    replayed; the key is named in that record's ``error`` entry, as is the
    ValueError of a replay (a malformed step names its op and field, see
    `_replay_step`).  Any other exception of a replay is a program fault.
    """
    if step is not None and step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    names, read = _record_reader(report)
    results = {}
    memo = ReplayTrie()
    for name in sorted(names):
        try:
            stored = read(name)
        except ObjectMismatch as exc:
            results[name] = {"error": str(exc), "identical": False}
            continue
        trace = stored.get("trace", [])
        entry: dict = {"steps": len(trace)}
        try:
            rebuilt = build_from_trace(trace[:step], memo=memo)
            if step is None:
                rebuilt_json = record_to_json(rebuilt)
                if "rel_sw" in stored:
                    rebuilt_json["rel_sw"] = {
                        label: ring_to_text(rebuilt.rel_factor(label))
                        for label in rebuilt_json.pop("rel_tori")
                    }
                entry["identical"] = same_json(rebuilt_json, stored)
                if not entry["identical"]:
                    entry["differs"] = sorted(
                        key
                        for key in rebuilt_json.keys() | stored.keys()
                        if key not in rebuilt_json
                        or key not in stored
                        or not same_json(rebuilt_json[key], stored[key])
                    )
            else:
                entry["replayed_steps"] = min(step, len(trace))
                entry["invariants"] = invariant_tuple(rebuilt)
        except ValueError as exc:
            entry["error"] = str(exc)
            entry["identical"] = False
        results[name] = entry
    ok = all(
        e.get("identical", True) and "error" not in e for e in results.values()
    )
    return {
        "format": "exolink/trace-report/v1",
        "records": results,
        "pass": ok,
    }

