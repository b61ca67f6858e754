"""Recipe reports and their replays, pinned byte for byte by sha256.

Two configurations are pinned: the README's (the even base under a free
group block) and the odd base under the genus-1 product block.

For a fixed configuration a report stays byte-identical unless the report
format is bumped on purpose, so a change that moves a digest changes what
the README commands give their users.  The digests were taken with
Python 3.11.
"""
import hashlib
from pathlib import Path

from exolink.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

REPORT_SHA256 = "df47ccc64837282cd895fccc0cb2f50a9cda9acb546fbda57583059caa540ea8"
VERIFY_TRACE_SHA256 = "156b9fd7389dfa11c1a37dac96a2a125192bdf8c177b84f83b3457f3f3986a38"
VERIFY_TRACE_STEP3_SHA256 = "316c934a68bd929609a0211cea05bacb9af82ed1b587f55ddfe7118afc13b93b"
# recipe run --spec fixtures/M_odd.json --group surface:1 --knots twist:0..3
ODD_REPORT_SHA256 = "032e2e8592912d1e0acdcde039d2dc1d06f3172bb67c768713240c10495f105f"
ODD_VERIFY_TRACE_SHA256 = "f971442a726289f4e29bad3422fbdf0284f08a54eb7f2914efbbdec3abb38a1f"


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


def test_readme_report_ignores_the_environment(tmp_path, monkeypatch, capsys):
    # the report's config is the whole input: a setting read from outside
    # it, such as a Tietze move limit, would change the verdict without the
    # report saying so
    monkeypatch.setenv("EXOLINK_TIETZE_BUDGET", "1")
    assert _sha256(_readme_report(tmp_path).read_bytes()) == REPORT_SHA256
