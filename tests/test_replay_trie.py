"""The replay trie shared by one command: the rules that keep its checks real.

A trie of replayed prefixes lets `run_recipe` and `verify_trace_report`
replay each distinct trace prefix once.  A shared trie must give the
records a fresh one gives, in any replay order; it must never hold a
stored or forward-built record, so a tampered record still fails; and a
knot-dependent step left in a dissolved trace must still break the
Brunnian check.
"""
import copy
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from exolink import manifold, surgery
from exolink.knots import twist_knot_family
from exolink.manifold import ObjectStore, record_to_json, same_json
from exolink.pipeline import (
    CertificateError,
    RecipeConfig,
    report_records,
    run_recipe,
    verify_trace_report,
)
from exolink.surgery import ReplayTrie, build_from_trace
from specs import spec_text

SMALL_FAMILY = 3
# M, B_G, ambient_reference, and Z[k] and Zstar[k] per knot
SMALL_RECORDS = 3 + 2 * SMALL_FAMILY
LONGEST_TRACE = 4  # Zstar[k]: base, knot surgery, fiber sum, one loop surgery


def _config(count, genus=1):
    return RecipeConfig(
        spec_text=spec_text("even"),
        group_kind="free",
        genus=genus,
        knots=twist_knot_family(count),
    )


@cache
def _small_report() -> dict:
    return run_recipe(_config(SMALL_FAMILY))


@cache
def _small_records() -> dict:
    return report_records(_small_report())


@cache
def _fresh_trie(name: str, steps: int) -> dict:
    trace = _small_records()[name]["trace"][:steps]
    return record_to_json(build_from_trace(trace))


@settings(max_examples=25, deadline=None)
@given(
    st.permutations(range(SMALL_RECORDS)),
    st.lists(
        st.integers(1, LONGEST_TRACE), min_size=SMALL_RECORDS, max_size=SMALL_RECORDS
    ),
)
def test_shared_trie_replays_like_no_trie_in_any_order(order, prefixes):
    records = _small_records()
    names = sorted(records)
    memo = ReplayTrie()
    for index, steps in zip(order, prefixes):
        name = names[index]
        trace = records[name]["trace"][:steps]
        rebuilt = record_to_json(build_from_trace(trace, memo=memo))
        assert same_json(rebuilt, _fresh_trie(name, steps)), (name, steps)


def test_knot_step_left_in_the_dissolved_trace_fails_brunnian(monkeypatch):
    real = surgery._without_knot_step

    def keep_knot_step(trace):
        found = real(trace)
        if found is None:
            return None
        index, _, removed = found
        return index, tuple(dict(s) for s in trace), removed

    monkeypatch.setattr(surgery, "_without_knot_step", keep_knot_step)
    with pytest.raises(CertificateError) as failure:
        run_recipe(_config(SMALL_FAMILY))
    failed = [c["id"] for c in failure.value.report["checks"] if not c["pass"]]
    assert failed == ["brunnian_stabilization"]


def _failing(result: dict) -> dict:
    return {
        name: entry.get("differs")
        for name, entry in result["records"].items()
        if not entry["identical"]
    }


def _edited(edits: dict) -> dict:
    """A copy of the small report whose named records take the given fields
    (``trace`` given as its steps), stored again under their new keys."""
    edited = copy.deepcopy(_small_report())
    store = ObjectStore(edited["objects"])
    for name, changes in edits.items():
        record = {**edited["objects"][edited["records"][name]], **changes}
        if "trace" in changes:
            record["trace"] = store.put_trace(changes["trace"])
        edited["records"][name] = store.put(record)
    return edited


def test_tampered_record_fails_alone():
    report = _small_report()
    assert verify_trace_report(report)["pass"]
    records = report_records(report)

    # a stored field: only Z[k] is compared with it
    edited = _edited({"Z[twist_1]": {"euler": records["Z[twist_1]"]["euler"] + 2}})
    assert _failing(verify_trace_report(edited)) == {"Z[twist_1]": ["euler"]}

    # a stored label of a torus with a relative factor
    edited = _edited({"Z[twist_1]": {"rel_tori": records["Z[twist_1]"]["rel_tori"][1:]}})
    assert _failing(verify_trace_report(edited)) == {"Z[twist_1]": ["rel_tori"]}

    # the knot step of Z[twist_1]'s trace, made equal to twist_2's step: the
    # trie replays it as twist_2, and only Z[twist_1] is compared with that
    knot_step = records["Z[twist_2]"]["trace"][1]
    traces = {}
    for name in ("Z[twist_1]", "Zstar[twist_1]"):
        trace = list(records[name]["trace"])
        trace[1] = knot_step
        traces[name] = {"trace": trace}
    edited = _edited({"Z[twist_1]": traces["Z[twist_1]"]})
    assert set(_failing(verify_trace_report(edited))) == {"Z[twist_1]"}

    # the same edit in every trace that holds the step: Z[twist_1] and
    # Zstar[twist_1], and no other knot's records
    edited = _edited(traces)
    # (the stored traces hold the edit; the stored fields still name twist_1)
    assert _failing(verify_trace_report(edited)) == {
        "Z[twist_1]": ["marks", "name", "sw"],
        "Zstar[twist_1]": ["marks", "name"],
    }


def test_readme_report_replays_each_prefix_once(monkeypatch):
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # replay looks these names up in their own modules; the recipe's forward
    # construction calls its own bindings, so only replays are counted
    counted(manifold, "admissible_from_spec")
    counted(surgery, "knot_surgery")
    counted(surgery, "fiber_sum")
    report = run_recipe(_config(5, genus=2))  # the README configuration
    # five sphere surgeries and one dissolution for all five knots
    assert calls == {"admissible_from_spec": 1, "knot_surgery": 5, "fiber_sum": 6}
    for step in (None, 3):
        calls.clear()
        verify_trace_report(report, step=step)
        # M inside every Z[k], and Z[k] inside Zstar[k], replayed once
        assert calls == {"admissible_from_spec": 1, "knot_surgery": 5, "fiber_sum": 5}
