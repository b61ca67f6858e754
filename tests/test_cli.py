"""Command-line behavior: exit codes, JSON output, rendering, file handling."""

import gzip
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from exolink.cli import main
from exolink.knots import twist_knot_family
from exolink.manifold import ObjectStore, compact_json
from exolink.pipeline import RecipeConfig, run_recipe
from specs import spec_text
from test_report_golden import VERIFY_TRACE_SHA256

REPO_ROOT = Path(__file__).resolve().parents[1]
V2_PAIRS_FIXTURE = REPO_ROOT / "tests" / "fixtures" / "readme_report_v2_pairs.json.gz"


@pytest.fixture()
def even_spec_file(tmp_path):
    path = tmp_path / "M_even.json"
    path.write_text(spec_text("even"), encoding="utf-8")
    return path


def test_knots_poly_trefoil(capsys):
    assert main(["knots", "poly", "2: s1^3"]) == 0
    assert capsys.readouterr().out.strip() == "t - 1 + t^-1"


def test_knots_poly_bad_braid_exits_2(capsys):
    assert main(["knots", "poly", "2: s9"]) == 2
    assert "error:" in capsys.readouterr().err
    # a two-component closure is a link, not a knot; asked twice in one
    # process, so a memoized Alexander polynomial cannot hide the error
    for _ in range(2):
        assert main(["knots", "poly", "3: s1"]) == 2
        assert "error:" in capsys.readouterr().err


def test_blocks_lists_invariants(capsys):
    assert main(["blocks"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["standard"]["S2xS2"]["euler"] == 4
    assert payload["standard"]["S2xS2"]["parity"] == "even"
    assert payload["standard"]["S2xS2_twisted"]["parity"] == "odd"
    assert payload["parametric"]["kodaira_thurston_block"]["example_g1"]["b1"] == 3


def test_recipe_run_with_out_file(tmp_path, even_spec_file, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "recipe",
            "run",
            "--spec",
            str(even_spec_file),
            "--group",
            "free:1",
            "--knots",
            "twist:0..2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == "pass"
    assert summary["checks"]["failed"] == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["format"] == "exolink/report/v3"
    assert report["verdict"] == "pass"


def test_recipe_run_prints_report_without_out(even_spec_file, capsys):
    code = main(
        [
            "recipe",
            "run",
            "--spec",
            str(even_spec_file),
            "--group",
            "free:1",
            "--knots",
            "twist:0..1",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["format"] == "exolink/report/v3"


def test_recipe_run_usage_errors(tmp_path, even_spec_file, capsys):
    missing = tmp_path / "nope.json"
    assert (
        main(
            ["recipe", "run", "--spec", str(missing), "--group", "free:1", "--knots", "twist:0..1"]
        )
        == 2
    )
    assert "cannot read spec file" in capsys.readouterr().err
    assert (
        main(
            ["recipe", "run", "--spec", str(even_spec_file), "--group", "free", "--knots", "twist:0..1"]
        )
        == 2
    )
    assert (
        main(
            ["recipe", "run", "--spec", str(even_spec_file), "--group", "free:1", "--knots", "twist:5..1"]
        )
        == 2
    )
    # sw elements are compared one way only, so there is no --compare option
    argv = ["recipe", "run", "--spec", str(even_spec_file), "--group", "free:1"]
    assert main([*argv, "--knots", "twist:0..1", "--compare", "strict"]) == 2
    assert "--compare" in capsys.readouterr().err
    # Tietze simplification runs to its fixpoint, so there is no budget option
    for command in (
        [*argv, "--knots", "twist:0..1", "--budget-tietze", "5"],
        ["verify", "lemmas", "--gmax", "1", "--budget-tietze", "5"],
    ):
        assert main(command) == 2
        assert "--budget-tietze" in capsys.readouterr().err


@pytest.mark.parametrize("knots", ["twist:3..5", "twist:0..11", "twist:11"])
def test_twist_spec_out_of_range_exits_2(even_spec_file, capsys, knots):
    # a range must start at the unknot, and the twist table ends at twist_10
    argv = ["recipe", "run", "--spec", str(even_spec_file), "--group", "free:1"]
    assert main([*argv, "--knots", knots]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    # the message names the request and the twist table, not a count
    assert knots.removeprefix("twist:") in captured.err
    assert "0..10" in captured.err and "1..11" not in captured.err


def test_surface_genus_five_runs_to_pass(even_spec_file, capsys):
    # the surface recognizer has no genus bound, so surface:5 is certified
    argv = ["recipe", "run", "--spec", str(even_spec_file), "--knots", "twist:0..3"]
    assert main([*argv, "--group", "surface:5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert report["config"]["group"] == "surface:5"
    checks = {check["id"]: check["pass"] for check in report["checks"]}
    assert len(checks) == 18 and all(checks.values())
    assert checks["link_group/twist_3"]


def test_recipe_run_failing_check_exits_1_but_writes_report(
    tmp_path, even_spec_file, capsys
):
    out = tmp_path / "failing.json"
    code = main(
        [
            "recipe",
            "run",
            "--spec",
            str(even_spec_file),
            "--group",
            "free:1",
            "--knots",
            "u=1:; k=2: s1^3; k2=2: s1^3",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "failed checks" in captured.err
    summary = json.loads(captured.out)
    assert summary["verdict"] == "fail"
    assert summary["checks"]["failed"] == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["verdict"] == "fail"
    assert main(["report", "render", str(out)]) == 0
    text = capsys.readouterr().out
    assert "sw collisions: 1 among 3 knots" in text
    assert "FAIL sw_pairwise_distinct: " in text and "collision: k, k2" in text


def test_verify_lemmas_green(capsys):
    assert main(["verify", "lemmas", "--gmax", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"]
    assert payload["gmax"] == 1


def write_report(tmp_path) -> Path:
    cfg = RecipeConfig(
        spec_text=spec_text("even"),
        group_kind="free",
        genus=1,
        knots=twist_knot_family(2),
    )
    report = run_recipe(cfg)
    path = tmp_path / "report.json"
    path.write_text(compact_json(report) + "\n", encoding="utf-8")
    return path


def test_verify_trace_full_and_stepped(tmp_path, capsys):
    path = write_report(tmp_path)
    assert main(["verify-trace", str(path)]) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["pass"]
    assert main(["verify-trace", str(path), "--step", "2"]) == 0
    stepped = json.loads(capsys.readouterr().out)
    assert all("invariants" in e for e in stepped["records"].values())


def test_verify_trace_catches_tampering(tmp_path, capsys):
    path = write_report(tmp_path)
    report = json.loads(path.read_text(encoding="utf-8"))
    # edit M's stored euler, and store its object again under its new key
    record = report["objects"][report["records"]["M"]]
    record = {**record, "euler": record["euler"] + 2}
    report["records"]["M"] = ObjectStore(report["objects"]).put(record)
    path.write_text(json.dumps(report), encoding="utf-8")
    assert main(["verify-trace", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["records"]["M"]["identical"]
    assert payload["records"]["M"]["differs"] == ["euler"]
    # records that replay identically carry no differs entry
    others = [e for name, e in payload["records"].items() if name != "M"]
    assert others and all(e["identical"] and "differs" not in e for e in others)


@pytest.mark.parametrize("command", [["report", "render"], ["verify-trace"]])
def test_closed_stdout_exits_1_without_traceback(tmp_path, command):
    path = write_report(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "exolink.cli", *command, str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    # closed while the interpreter starts, so before the command prints
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_verify_trace_bad_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["verify-trace", str(missing)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["verify-trace", str(garbled)]) == 2
    assert "not JSON" in capsys.readouterr().err
    array = tmp_path / "array.json"
    array.write_text("[]", encoding="utf-8")
    for command in (["verify-trace"], ["report", "render"]):
        assert main([*command, str(array)]) == 2
        assert "error:" in capsys.readouterr().err
    report = write_report(tmp_path)
    for step in ("0", "-1"):
        assert main(["verify-trace", str(report), "--step", step]) == 2
        assert "error:" in capsys.readouterr().err
    malformed = tmp_path / "malformed.json"
    for records, named in (
        ({"a": 1}, "'a'"),
        ([1], "records"),
        ({"a": {"trace": [1]}}, "'a'"),
        ({"a": {"trace": 5}}, "'a'"),
    ):
        malformed.write_text(json.dumps({"records": records}), encoding="utf-8")
        assert main(["verify-trace", str(malformed)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and named in err and "Traceback" not in err
    # a wrong-typed field inside a step is that record's error, not a crash
    base = {"op": "base", "constructor": "standard_block", "args": []}
    malformed.write_text(json.dumps({"records": {"a": {"trace": [base]}}}), encoding="utf-8")
    assert main(["verify-trace", str(malformed)]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["pass"] is False and "error" in result["records"]["a"]
    # an op the replay engine does not know fails that record after a valid base
    base = {"op": "base", "constructor": "standard_block", "args": {"name": "S4"}}
    steps = [base, {"op": "bogus"}]
    malformed.write_text(json.dumps({"records": {"a": {"trace": steps}}}), encoding="utf-8")
    assert main(["verify-trace", str(malformed)]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["pass"] is False
    assert "unknown trace op 'bogus'" in result["records"]["a"]["error"]


def test_report_render_human_summary(tmp_path, capsys):
    path = write_report(tmp_path)
    assert main(["report", "render", str(path)]) == 0
    text = capsys.readouterr().out
    assert "verdict: pass" in text
    assert "link group: free group of rank 1" in text
    assert "trusted:" in text
    assert "brunnian subfamily bound:" in text
    assert "sw collisions: 0 among 2 knots" in text
    assert "compare:" not in text


def test_odd_s2_square_fails_only_the_rewrite_hypotheses(tmp_path, capsys):
    # admissibility leaves S2.S2 free; an odd square makes the non-spin
    # witness hunt refuse, which a free run reports as one failed check
    spec = json.loads(spec_text("odd"))
    s2 = spec["basis"].index(spec["admissible"]["S2"])
    spec["gram"][s2][s2] = 1
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["recipe", "run", "--spec", str(spec_file), "--knots", "twist:0..2"]
    free, surface = tmp_path / "free.json", tmp_path / "surface.json"

    assert main([*argv, "--group", "free:1", "--out", str(free)]) == 1
    capsys.readouterr()
    report = json.loads(free.read_text(encoding="utf-8"))
    assert report["verdict"] == "fail"
    assert [c["id"] for c in report["checks"] if not c["pass"]] == ["brunnian_mg_hypotheses"]
    mg = next(e for e in report["entries"] if e["id"] == "mg_hypotheses")
    assert mg["data"] == {
        "certified": False,
        "blocked_by": "non-spin witness hunt refused: S2 must have even square",
    }
    assert main(["verify-trace", str(free)]) == 0
    assert main(["report", "render", str(free)]) == 0
    assert "FAIL brunnian_mg_hypotheses: " in capsys.readouterr().out

    # a surface run never reaches the rewrite hypotheses
    assert main([*argv, "--group", "surface:1", "--out", str(surface)]) == 0
    capsys.readouterr()
    assert main(["report", "render", str(surface)]) == 0
    text = capsys.readouterr().out
    assert "verdict: pass" in text
    assert "brunnian: weaker paired-component property only" in text


def test_report_render_reads_reports_with_pair_tables(tmp_path, capsys):
    # a v2 report written while smooth inequivalence was a k(k-1)/2 pair
    # table: the README configuration, with its digest of that time
    data = gzip.decompress(V2_PAIRS_FIXTURE.read_bytes())
    assert hashlib.sha256(data).hexdigest() == (
        "9d2fadc75b17f5e692a11f9042eaade5951bfecfffefe96a90facac6ed99cb97"
    )
    path = tmp_path / "pairs.json"
    path.write_bytes(data)
    assert main(["report", "render", str(path)]) == 0
    text = capsys.readouterr().out
    assert "recipe report (exolink/report/v2)" in text
    assert "checks:  32/32 passed" in text
    assert "sw collisions" not in text
    # its records replay to the bytes pinned for the current README report
    assert main(["verify-trace", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_TRACE_SHA256


def test_stored_pre_v3_relative_factor_is_still_checked(tmp_path, capsys):
    # the pair-table report stores its relative factors as rel_sw texts: one
    # set to sw, stored again under its new key, fails its record alone
    report = json.loads(gzip.decompress(V2_PAIRS_FIXTURE.read_bytes()))
    record = dict(report["objects"][report["records"]["Z[twist_1]"]])
    record["rel_sw"] = {**record["rel_sw"], "T1": record["sw"]}
    report["records"]["Z[twist_1]"] = ObjectStore(report["objects"]).put(record)
    path = tmp_path / "pairs.json"
    path.write_text(compact_json(report) + "\n", encoding="utf-8")
    assert main(["verify-trace", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    failed = {
        name: entry.get("differs")
        for name, entry in payload["records"].items()
        if not entry["identical"]
    }
    assert failed == {"Z[twist_1]": ["rel_sw"]}


def test_report_render_malformed_report_exits_2(tmp_path, capsys):
    path = tmp_path / "malformed.json"
    for report in (
        {"checks": [{"id": "x"}]},
        {"entries": [{"id": "e"}]},
        {"config": {"knots": [1]}},
        # with records present, the mistyped field itself is what is refused
        {"records": {}, "checks": [{"id": "x"}]},
        {"records": {}, "entries": [{"id": "e"}]},
        {"records": {}, "config": {"knots": [1]}},
    ):
        path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["report", "render", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed report") and "Traceback" not in err


@pytest.mark.parametrize("command", [["verify-trace"], ["report", "render"]])
def test_a_file_without_records_is_not_a_report(tmp_path, capsys, command):
    # a manifold spec and an empty object used to verify as "pass": true
    spec = tmp_path / "M_even.json"
    spec.write_text(spec_text("even"), encoding="utf-8")
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    for path in (spec, empty):
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "records" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("fmt", ["exolink/report/v9", 3])
@pytest.mark.parametrize("command", [["verify-trace"], ["report", "render"]])
def test_unknown_report_format_is_named(tmp_path, capsys, command, fmt):
    # a report of another format is not read as v1: the error names the format
    path = write_report(tmp_path)
    report = json.loads(path.read_text(encoding="utf-8"))
    report["format"] = fmt
    path.write_text(json.dumps(report), encoding="utf-8")
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown report format") and repr(fmt) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "path, value",
    [
        (("sw",), 5),
        (("admissible",), [1, 2]),
        (("marks", 0, "complement"), ["x"]),
        # int() would truncate it to 0, and the run would pass on another form
        (("gram", 0, 0), 0.5),
        ((), None),  # the whole document wrapped in a list
        (("marks", 0, "kind"), ["torus"]),
        # parse_word would call .strip() on an int: a traceback, not exit 2
        (("marks", 0, "pi1_words"), [1, 2]),
        # taken as they come, these would run to "pass" ...
        (("marks", 0, "framing"), ["a"]),
        (("marks", 0, "class"), [True] + [0] * 21),
        (("name",), ["a"]),
        # ... and str() or set() would turn these into a misleading violation
        (("marks", 0, "flags"), "complement_simply_connected"),
        (("basis", 0), 1),
        (("admissible", "T1"), 1),
    ],
    ids=[
        "sw-int",
        "admissible-list",
        "short-complement",
        "fractional-gram",
        "top-level-list",
        "kind-list",
        "pi1-words-int",
        "framing-list",
        "class-bool",
        "name-list",
        "flags-string",
        "basis-int",
        "admissible-int",
    ],
)
def test_malformed_spec_exits_2(tmp_path, capsys, path, value):
    spec = json.loads(spec_text("even"))
    if path:
        *parents, last = path
        node = spec
        for key in parents:
            node = node[key]
        node[last] = value
    else:
        spec = [spec]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["recipe", "run", "--spec", str(spec_file), "--group", "free:1", "--knots", "twist:0..1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed spec: ") and "Traceback" not in captured.err
    assert not captured.out


# every subcommand that reads input, with one bad input each: argv uses
# {spec} for the shipped even spec and {tmp} for the test's directory, which
# holds not_utf8.json, not_json.json and list.json
BAD_INPUT_CASES = {
    "poly-link": (["knots", "poly", "2: s1^2"], "closure has 2 components; need a knot"),
    "poly-text": (["knots", "poly", "x"], "missing ':'"),
    "spec-missing": (["recipe", "run", "--spec", "{tmp}/nope.json"], "cannot read spec file"),
    "spec-not-utf8": (["recipe", "run", "--spec", "{tmp}/not_utf8.json"], "cannot read spec file"),
    "spec-not-json": (["recipe", "run", "--spec", "{tmp}/not_json.json"], "spec is not valid JSON"),
    "group-no-genus": (["recipe", "run", "--group", "free"], "free:G or surface:G"),
    "knots-list-link": (
        ["recipe", "run", "--knots", "a=2: s1^2"],
        "closure has 2 components; need a knot",
    ),
    "knots-past-table": (["recipe", "run", "--knots", "twist:0..11"], "twist table is 0..10"),
    "out-missing-dir": (
        ["recipe", "run", "--out", "{tmp}/missing/report.json"],
        "cannot write report file",
    ),
    "lemmas-gmax-0": (["verify", "lemmas", "--gmax", "0"], "gmax must be >= 1"),
    "trace-missing": (["verify-trace", "{tmp}/nope.json"], "cannot read report file"),
    "trace-not-utf8": (["verify-trace", "{tmp}/not_utf8.json"], "cannot read report file"),
    "trace-not-json": (["verify-trace", "{tmp}/not_json.json"], "report file is not JSON"),
    "trace-list": (["verify-trace", "{tmp}/list.json"], "must hold a JSON object"),
    "trace-spec": (["verify-trace", "{spec}"], "no 'records'"),
    "render-missing": (["report", "render", "{tmp}/nope.json"], "cannot read report file"),
    "render-not-utf8": (["report", "render", "{tmp}/not_utf8.json"], "cannot read report file"),
    "render-not-json": (["report", "render", "{tmp}/not_json.json"], "report file is not JSON"),
    "render-list": (["report", "render", "{tmp}/list.json"], "must hold a JSON object"),
    "render-spec": (["report", "render", "{spec}"], "no 'records'"),
}


@pytest.mark.parametrize("argv, message", BAD_INPUT_CASES.values(), ids=BAD_INPUT_CASES)
def test_bad_input_exits_2_with_one_error_line(tmp_path, even_spec_file, capsys, argv, message):
    (tmp_path / "not_utf8.json").write_bytes(b'{"name": "M\xe9"}')
    (tmp_path / "not_json.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "list.json").write_text("[]", encoding="utf-8")
    argv = [arg.format(tmp=tmp_path, spec=even_spec_file) for arg in argv]
    if argv[:2] == ["recipe", "run"]:
        # the one bad option of the case, the others good
        good = {"--spec": str(even_spec_file), "--group": "free:1", "--knots": "twist:0..1"}
        argv += [arg for option, value in good.items() if option not in argv for arg in (option, value)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert message in captured.err and "Traceback" not in captured.err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "exolink" in capsys.readouterr().out


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


SCRIPT_CASES = [
    (["knots", "poly", "2: s1^3"], 0),
    (["knots", "poly", "2: s9"], 2),
]


def declared_console_script(name: str) -> str:
    """Return the ``module:attr`` that ``[project.scripts]`` names for ``name``."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib

        scripts = tomllib.loads(text).get("project", {}).get("scripts", {})
    else:
        # no TOML parser in the 3.10 stdlib: read the name = "module:attr"
        # lines of the one table
        scripts = {}
        table = None
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                table = line
            elif table == "[project.scripts]" and "=" in line:
                key, value = (part.strip() for part in line.split("=", 1))
                scripts[key.strip("\"'")] = value.strip("\"'")
    assert name in scripts, f"[project.scripts] declares no {name} entry"
    return scripts[name]


def check_script_runs(command: list[str], **kwargs) -> None:
    for args, code in SCRIPT_CASES:
        proc = subprocess.run(
            [*command, *args], capture_output=True, text=True, check=False, **kwargs
        )
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stdout.strip() == "t - 1 + t^-1"
        else:
            assert any(
                line.startswith("error:") for line in proc.stderr.splitlines()
            ), proc.stderr


def test_console_script_installed(tmp_path):
    # check the declared entry point, run the way the generated script runs
    # it, with this interpreter and this tree; nothing needs to be installed
    module, _, attr = declared_console_script("exolink").partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    check_script_runs([sys.executable, "-c", launcher], cwd=tmp_path, env=env)


@pytest.mark.skipif(
    shutil.which("exolink") is None,
    reason="exolink console script not installed (pip install -e .)",
)
def test_console_script_on_path():
    check_script_runs([shutil.which("exolink")])
