"""The v2 report format: a content-addressed object table, with v1 still read.

A v2 report stores every record, trace and spec once in ``objects``, under
the sha256 of its compact rendering, and ``records`` maps each name to a
key.  These tests pin the reader on the committed v1 report of the README
configuration, the shape and integrity of the table, the single rendering
of the file, and that the report `run_recipe` returns shares no mutable
value.
"""
import copy
import gzip
import hashlib
import json
from functools import cache
from pathlib import Path

import pytest

from exolink.cli import main
from exolink.knots import twist_knot_family
from exolink.manifold import ObjectStore, compact_json, record_from_json
from exolink.pipeline import (
    RecipeConfig,
    report_records,
    run_recipe,
    validate_certificate_partition,
    verify_trace_report,
)
from specs import spec_text
from test_report_golden import (
    VERIFY_TRACE_SHA256,
    VERIFY_TRACE_STEP3_SHA256,
    _readme_report,
    _sha256,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
V1_FIXTURE = REPO_ROOT / "tests" / "fixtures" / "readme_report_v1.json.gz"
# the README report's digest while the format was exolink/report/v1
V1_REPORT_SHA256 = "4a7f80e6f0f918d927838adc0cd61872e39d42d2a4bcf5fa2b5f34b30f340844"
MISSING = "0" * 64


def _config() -> RecipeConfig:
    return RecipeConfig(
        spec_text=spec_text("even"),
        group_kind="free",
        genus=1,
        knots=twist_knot_family(3),
    )


@cache
def _small_report() -> dict:
    return run_recipe(_config())


def _edited_report() -> dict:
    return copy.deepcopy(_small_report())


def _trace_key(report: dict, name: str) -> str:
    return report["objects"][report["records"][name]]["trace"]


def _write(tmp_path, report: dict) -> Path:
    path = tmp_path / "report.json"
    path.write_text(compact_json(report) + "\n", encoding="utf-8")
    return path


def _containers(value) -> list:
    """Every dict and list inside a JSON value, the value included."""
    found, stack = [], [value]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            found.append(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            found.append(item)
            stack.extend(item)
    return found


def test_v1_report_is_still_read(tmp_path, capsys):
    data = gzip.decompress(V1_FIXTURE.read_bytes())
    assert _sha256(data) == V1_REPORT_SHA256
    v1 = tmp_path / "v1.json"
    v1.write_bytes(data)
    assert main(["verify-trace", str(v1)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_TRACE_SHA256
    assert main(["verify-trace", str(v1), "--step", "3"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_TRACE_STEP3_SHA256
    assert main(["report", "render", str(v1)]) == 0
    assert "recipe report (exolink/report/v1)" in capsys.readouterr().out
    # the format bumps moved no record's content
    old = report_records(json.loads(data))
    fresh = report_records(json.loads(_readme_report(tmp_path).read_bytes()))
    assert list(old) == list(fresh)
    for name in fresh:
        assert record_from_json(old[name]) == record_from_json(fresh[name]), name


def test_objects_are_content_addressed_and_traces_point_to_parents():
    report = _small_report()
    objects = report["objects"]
    for key, value in objects.items():
        assert hashlib.sha256(compact_json(value).encode()).hexdigest() == key
    assert objects[_trace_key(report, "M")]["parent"] is None
    for knot in ("twist_0", "twist_1", "twist_2"):
        z_trace = _trace_key(report, f"Z[{knot}]")
        assert objects[z_trace]["parent"] == _trace_key(report, "M")
        assert objects[_trace_key(report, f"Zstar[{knot}]")]["parent"] == z_trace
        # the block's trace is stored once, as B_G's and as the fiber sum's
        knot_step, fiber_step = objects[z_trace]["steps"]
        assert knot_step["op"] == "knot_surgery"
        assert fiber_step["other_trace"] == _trace_key(report, "B_G")
    # one spec object, named by the config and by M's base step
    spec = report["config"]["admissible_spec"]
    assert objects[spec] == json.loads(spec_text("even"))
    assert objects[_trace_key(report, "M")]["steps"][0]["args"] == {"spec": spec}
    # the Gram matrix is stored sparse: the nonzero entries on and above the diagonal
    dense = report_records(report)["M"]["gram"]
    assert objects[report["records"]["M"]]["gram"] == {
        "n": len(dense),
        "entries": [
            [i, j, x] for i, row in enumerate(dense) for j, x in enumerate(row) if j >= i and x
        ],
    }


def test_report_shares_no_mutable_value(monkeypatch):
    written = []
    real = ObjectStore.put_record

    def keep(store, record):
        written.append(record)
        return real(store, record)

    monkeypatch.setattr(ObjectStore, "put_record", keep)
    report = run_recipe(_config())
    owner: dict[int, str] = {}
    for key, value in report["objects"].items():
        for item in _containers(value):
            assert owner.setdefault(id(item), key) == key, "a value shared by two objects"
    traces = {id(item) for record in written for item in _containers(list(record.trace))}
    assert len(written) == 9 and traces
    assert not traces & {id(item) for item in _containers(report)}

    # nested step values edited in a copy change no other object, and
    # nothing of the original
    before = {key: compact_json(value) for key, value in report["objects"].items()}
    edited = copy.deepcopy(report)
    z_trace = _trace_key(report, "Z[twist_1]")
    knot_step, fiber_step = edited["objects"][z_trace]["steps"]
    knot_step["knot"]["braid"] = "2: s1^5"
    fiber_step["delta"]["chi"] += 1
    for key, value in edited["objects"].items():
        assert key == z_trace or compact_json(value) == before[key], key
    assert {key: compact_json(value) for key, value in report["objects"].items()} == before
    # the original records still replay to themselves
    assert verify_trace_report(report)["pass"]

    # nor is any value shared with state that outlives the run: scrambling
    # every value of the report leaves the next run's report as it was
    rendered = compact_json(report)
    for item in _containers(report):
        if isinstance(item, dict):
            item["scrambled"] = True
        else:
            item.append("scrambled")
    assert compact_json(run_recipe(_config())) == rendered


def test_recipe_run_prints_the_file_it_writes(tmp_path, capsys):
    spec = REPO_ROOT / "fixtures" / "M_even.json"
    argv = ["recipe", "run", "--spec", str(spec), "--group", "free:1", "--knots", "twist:0..2"]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    written = out.read_bytes()
    assert printed == written
    # one compact line, ended by exactly one newline
    assert written.endswith(b"}\n") and written.count(b"\n") == 1


def test_object_that_does_not_hash_to_its_key_fails_its_records(tmp_path, capsys):
    # M's record object: only M reaches it
    report = _edited_report()
    key = report["records"]["M"]
    report["objects"][key]["euler"] += 2
    assert main(["verify-trace", str(_write(tmp_path, report))]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["pass"] is False
    assert key in result["records"]["M"]["error"]
    assert not result["records"]["M"]["identical"]
    others = [entry for name, entry in result["records"].items() if name != "M"]
    assert others and all(entry["identical"] for entry in others)

    # the spec object: every record built on M reaches it, the block does not
    report = _edited_report()
    spec = report["config"]["admissible_spec"]
    report["objects"][spec]["euler"] += 2
    assert main(["verify-trace", str(_write(tmp_path, report))]) == 1
    result = json.loads(capsys.readouterr().out)
    failed = {name for name, entry in result["records"].items() if "error" in entry}
    assert failed == set(result["records"]) - {"B_G"}
    assert all(spec in result["records"][name]["error"] for name in failed)
    assert result["records"]["B_G"]["identical"]


def _dangling(where: str) -> dict:
    """A report holding a key that names no object, in ``where``."""
    report = _edited_report()
    if where == "records":
        report["records"]["M"] = MISSING
        return report
    store = ObjectStore(report["objects"])
    name = "Zstar[twist_1]" if where == "parent" else "ambient_reference"
    record = copy.deepcopy(report["objects"][report["records"][name]])
    trace = copy.deepcopy(report["objects"][record["trace"]])
    if where == "parent":
        trace["parent"] = MISSING
    else:
        (step,) = trace["steps"]  # the connected sum with S2xS2
        step["other_trace"] = MISSING
    record["trace"] = store.put(trace)
    report["records"][name] = store.put(record)
    return report


@pytest.mark.parametrize("where", ["records", "parent", "other_trace"])
def test_dangling_key_exits_2(tmp_path, capsys, where):
    path = _write(tmp_path, _dangling(where))
    for command in (["verify-trace"], ["report", "render"]):
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and MISSING in captured.err
        assert "Traceback" not in captured.err


def test_partition_validator_reports_a_record_that_does_not_resolve():
    report = _dangling("records")
    violations = validate_certificate_partition(report)
    assert any(
        v.startswith("admissible_base: record 'M' does not resolve") and MISSING in v
        for v in violations
    )
    report = _edited_report()
    key = report["records"]["Zstar[twist_1]"]
    report["objects"][key]["euler"] += 2
    violations = validate_certificate_partition(report)
    assert violations and all("'Zstar[twist_1]'" in v and key in v for v in violations)



def _with_m_record(make) -> dict:
    """A report whose ``M`` is the object ``make(store, record)`` returns,
    stored under its key: a shape error, not a hash check, must catch it."""
    report = _edited_report()
    store = ObjectStore(report["objects"])
    record = copy.deepcopy(report["objects"][report["records"]["M"]])
    report["records"]["M"] = store.put(make(store, record))
    return report


MALFORMED = {
    "objects": lambda: {**_edited_report(), "objects": [1]},
    "record key": lambda: {**_edited_report(), "records": {"M": [1]}},
    "record object": lambda: _with_m_record(lambda store, record: 5),
    "gram": lambda: _with_m_record(lambda store, record: {**record, "gram": 1}),
    "trace object": lambda: _with_m_record(
        lambda store, record: {**record, "trace": store.put({"steps": "x"})}
    ),
    "parent key": lambda: _with_m_record(
        lambda store, record: {**record, "trace": store.put({"parent": [1], "steps": []})}
    ),
    "step": lambda: _with_m_record(
        lambda store, record: {**record, "trace": store.put({"parent": None, "steps": [5]})}
    ),
}


@pytest.mark.parametrize("shape", MALFORMED)
def test_malformed_v2_report_exits_2(tmp_path, capsys, shape):
    path = _write(tmp_path, MALFORMED[shape]())
    for command in (["verify-trace"], ["report", "render"]):
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
