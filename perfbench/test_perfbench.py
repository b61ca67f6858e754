"""Tests of the benchmark's own parts: seeded inputs and the outside-in tracer.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys

import pytest

import gen
import run
import tracer
from layers import LAYER_METRICS

ROOT = run.ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))


def test_same_seed_same_inputs():
    assert gen.make_inputs(7) == gen.make_inputs(7)
    assert gen.make_inputs(7) != gen.make_inputs(8)


def test_seeds_reorder_the_same_work():
    a, b = gen.make_inputs(7), gen.make_inputs(8)
    for name in ("recipe", "replay_even", "replay_odd", "wide"):
        first, second = getattr(a, name), getattr(b, name)
        assert sorted(k.alexander for k in first) == sorted(k.alexander for k in second), name


@pytest.mark.parametrize("seed", range(5))
def test_families_start_with_unknot_and_are_alexander_distinct(seed):
    inputs = gen.make_inputs(seed)
    for family, size in (
        (inputs.recipe, gen.RECIPE_FAMILY_SIZE),
        (inputs.replay_even, gen.REPLAY_EVEN_SIZE),
        (inputs.replay_odd, gen.REPLAY_ODD_SIZE),
    ):
        assert len(family) == size
        assert family[0].alexander == (1,)
        gen.check_distinct(family)
    assert len(inputs.recipe) > len(gen.TWIST_BRAIDS)
    widths = sorted(int(k.braid.split(":")[0]) for k in inputs.wide)
    assert widths == sorted(gen.KNOTS_STRANDS * gen.KNOTS_PER_STRANDS)
    assert len({k.name for k in inputs.wide}) == len(inputs.wide)


def test_closed_forms_agree_with_fox_calculus():
    from exolink.knots import fox_alexander, parse_braid

    small = [gen.chained_sum("s", [(2, 3), (3, 4)]), gen.twist_knot(0)]
    for knot in gen.recipe_pool() + small:
        got = [[e[0], c] for e, c in fox_alexander(parse_braid(knot.braid)).terms]
        assert got == gen.poly_terms(knot.alexander), knot.name


def test_torus_closed_form_examples():
    assert gen.torus_alexander(2, 3) == (1, -1, 1)
    assert gen.torus_alexander(3, 4) == (1, -1, 0, 1, 0, -1, 1)
    assert gen.twist_alexander(2) == (-1, 3, -1)


def test_tail_is_the_sample_with_ten_above_it_but_not_below_the_median():
    values = [float(v) for v in range(1, 31)]
    assert run.tail_of(values) == (20.0, 100.0 * 20 / 30)
    assert run.tail_of([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0)


def test_host_clock_scales_a_step_by_the_calibrations_around_it(monkeypatch):
    loops = iter([0.04, 0.06, 0.02])
    monkeypatch.setattr(run.HostClock, "calibrate", lambda self: next(loops))
    clock = run.HostClock()
    assert clock.scale(1.0) == pytest.approx(run.CAL_REF_S / 0.05)
    assert clock.scale(2.0) == pytest.approx(2.0 * run.CAL_REF_S / 0.04)
    assert clock.calibrations == [0.04, 0.06, 0.02]


def test_host_clock_calibrates_in_about_the_reference_time():
    clock = run.HostClock()
    assert 0.2 * run.CAL_REF_S < clock.calibrate() < 5 * run.CAL_REF_S


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    spans = {name for _, _, name, _, _ in tracer.TARGETS} | {"trace"}
    assert {row[0].rsplit(".", 1)[0] for row in LAYER_METRICS} <= spans


def test_install_rebinds_every_import_of_a_target():
    code = (
        "import sys, tracer\n"
        "t = tracer.Tracer(0)\n"
        "import exolink.pipeline, exolink.lattice, exolink.cli\n"
        "orig = exolink.lattice.invariants\n"
        "tracer.install(t)\n"
        "mods = [m for k, m in sys.modules.items() if k.startswith('exolink')]\n"
        "assert not any(v is orig for m in mods for v in vars(m).values())\n"
        "assert exolink.pipeline.invariants is exolink.lattice.invariants\n"
        "assert exolink.pipeline.invariants.__wrapped__ is orig\n"
    )
    paths = [os.path.join(ROOT, "src"), os.path.dirname(run.CHILD)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_traced_run_writes_the_same_report(tmp_path):
    family = [gen.twist_knot(0), gen.twist_knot(1), gen.torus_knot(2, 5)]
    outputs = []
    for traced in (False, True):
        report = tmp_path / f"report{int(traced)}.json"
        argv = run._recipe_argv("M_odd.json", "free:1", family, str(report))
        trace = ["--trace", "3"] if traced else []
        prefix = str(tmp_path / f"op{int(traced)}")
        subprocess.run([sys.executable, run.CHILD, prefix, *trace, *argv], check=True,
                       capture_output=True)
        outputs.append(report.read_bytes())
    assert outputs[0] == outputs[1]
    run.check_recipe(family)(outputs[1])

    assert int((tmp_path / "op0.rss").read_text()) > 0
    stats = json.loads((tmp_path / "op1.stats.json").read_text())
    for name in ("cli.main", "pipeline.run_recipe", "lattice.smith_verify", "manifold.validate",
                 "grouppres.abelianization", "groupring.mul", "knots.alexander_poly"):
        assert stats[name]["calls"] > 0, name
    assert stats["manifold.canonical_json"]["bytes"] >= len(outputs[1]) - 1  # report, no newline
    abelianization = stats["grouppres.abelianization"]
    assert 0 < abelianization["distinct"] <= abelianization["calls"]

    with gzip.open(tmp_path / "op1.spans.json.gz", "rt") as handle:
        doc = json.load(handle)
    spans = doc["spans"]
    assert doc["op"] == 3 and len(spans) == sum(s["calls"] for s in stats.values())
    for name_id, start, end, parent, op in spans:
        assert op == 3 and start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    total = sum(s["self_s"] for s in stats.values())
    assert total <= stats["cli.main"]["total_s"] + 1e-6


def test_gates_reject_wrong_output():
    knots = [gen.torus_knot(2, 5)]
    good = json.dumps([["T2_5", gen.poly_terms(knots[0].alexander)]]).encode()
    assert run.check_knots(knots)(good) == 1
    with pytest.raises(run.GateError):
        run.check_knots(knots)(json.dumps([["T2_5", [[0, 1]]]]).encode())
    replay = {"pass": True, "records": {"M": {"identical": True}, "Z": {"identical": False}}}
    with pytest.raises(run.GateError):
        run.check_replay(2)(json.dumps(replay).encode())
