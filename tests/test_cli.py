"""Command-line behavior: exit codes, JSON output, rendering, file handling."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from exolink.cli import main
from exolink.fixtures import spec_text
from exolink.knots import twist_knot_family
from exolink.manifold import ObjectStore, compact_json
from exolink.pipeline import RecipeConfig, run_recipe

REPO_ROOT = Path(__file__).resolve().parents[1]


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
    assert report["format"] == "exolink/report/v2"
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
    assert report["format"] == "exolink/report/v2"


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


def test_report_render_malformed_report_exits_2(tmp_path, capsys):
    path = tmp_path / "malformed.json"
    for report in (
        {"checks": [{"id": "x"}]},
        {"entries": [{"id": "e"}]},
        {"config": {"knots": [1]}},
    ):
        path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["report", "render", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed report") and "Traceback" not in err


def test_negative_tietze_budget_exits_2(even_spec_file, capsys):
    recipe = ["recipe", "run", "--spec", str(even_spec_file), "--group", "free:1"]
    for command in (
        [*recipe, "--knots", "twist:0..1", "--budget-tietze", "-3"],
        ["verify", "lemmas", "--gmax", "1", "--budget-tietze", "-1"],
    ):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert "Tietze budget must be >= 0" in captured.err and not captured.out


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


def test_shipped_spec_files_match_generators():
    for which in ("even", "odd"):
        shipped = (REPO_ROOT / "fixtures" / f"M_{which}.json").read_text(
            encoding="utf-8"
        )
        assert shipped == spec_text(which)
