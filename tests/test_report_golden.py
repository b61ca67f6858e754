"""Recipe reports and their replays, pinned byte for byte by sha256.

Three configurations are pinned: the README's (the even base under a free
group block), the odd base under the genus-1 product block, and a run that
fails its SW check because two knots share a braid.

For a fixed configuration a report stays byte-identical unless the report
format is bumped on purpose, so a change that moves a digest changes what
the README commands give their users.  The digests were taken with
Python 3.11.
"""
import hashlib
from pathlib import Path

from exolink.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

REPORT_SHA256 = "7a700c5dc829168c213d36f41cde3d5a2d5f10c2493844a6d3700d84fc8cea62"
VERIFY_TRACE_SHA256 = "156b9fd7389dfa11c1a37dac96a2a125192bdf8c177b84f83b3457f3f3986a38"
VERIFY_TRACE_STEP3_SHA256 = "316c934a68bd929609a0211cea05bacb9af82ed1b587f55ddfe7118afc13b93b"
# recipe run --spec fixtures/M_odd.json --group surface:1 --knots twist:0..3
ODD_REPORT_SHA256 = "428657f7db187893cc09135522c9ddd23c38377150b4196107304f5c77133977"
ODD_VERIFY_TRACE_SHA256 = "f971442a726289f4e29bad3422fbdf0284f08a54eb7f2914efbbdec3abb38a1f"
# recipe run --spec fixtures/M_even.json --group free:1 --knots FAILING_KNOTS (exit 1)
FAILING_KNOTS = "u=1:; k=2: s1^3; k2=2: s1^3"
FAILING_REPORT_SHA256 = "53e70e8324a5da3db600395103078b987dd416403ca3f8f95fd5bd3937bddbf2"
FAILING_VERIFY_TRACE_SHA256 = "81fecfcbb436c0904df1dd936cda737fd12c7557133662f0ef6362398d5f0801"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _readme_report(tmp_path) -> Path:
    out = tmp_path / "report.json"
    spec = REPO_ROOT / "fixtures" / "M_even.json"
    argv = ["recipe", "run", "--spec", str(spec), "--group", "free:2", "--knots", "twist:0..4"]
    assert main([*argv, "--out", str(out)]) == 0
    return out


def test_readme_report_and_verify_trace_digests(tmp_path, capsys):
    report = _readme_report(tmp_path)
    capsys.readouterr()
    assert _sha256(report.read_bytes()) == REPORT_SHA256
    # the size the README quotes for this report
    size = len(report.read_bytes())
    assert f"{size:,}" in (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert main(["verify-trace", str(report)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_TRACE_SHA256
    # partial replay: Z[k] and Zstar[k] share their first three steps
    assert main(["verify-trace", str(report), "--step", "3"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_TRACE_STEP3_SHA256


def test_odd_base_product_block_digests(tmp_path, capsys):
    out = tmp_path / "report.json"
    spec = REPO_ROOT / "fixtures" / "M_odd.json"
    argv = ["recipe", "run", "--spec", str(spec), "--group", "surface:1", "--knots", "twist:0..3"]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == ODD_REPORT_SHA256
    assert main(["verify-trace", str(out)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == ODD_VERIFY_TRACE_SHA256


def test_failing_run_digests(tmp_path, capsys):
    # a failed check still writes the whole report, and its records replay
    out = tmp_path / "report.json"
    spec = REPO_ROOT / "fixtures" / "M_even.json"
    argv = ["recipe", "run", "--spec", str(spec), "--group", "free:1", "--knots", FAILING_KNOTS]
    assert main([*argv, "--out", str(out)]) == 1
    assert "collision: k, k2" in capsys.readouterr().err
    assert _sha256(out.read_bytes()) == FAILING_REPORT_SHA256
    assert main(["verify-trace", str(out)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == FAILING_VERIFY_TRACE_SHA256


def test_readme_report_ignores_the_environment(tmp_path, monkeypatch, capsys):
    # the report's config is the whole input: a setting read from outside
    # it, such as a Tietze move limit, would change the verdict without the
    # report saying so
    monkeypatch.setenv("EXOLINK_TIETZE_BUDGET", "1")
    assert _sha256(_readme_report(tmp_path).read_bytes()) == REPORT_SHA256
