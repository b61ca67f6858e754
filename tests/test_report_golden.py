"""Recipe reports and their replays, pinned byte for byte by sha256.

Four configurations are pinned: the README's (the even base under a free
group block), the bench configuration (the even base under the rank-4 free
block over eleven twist knots), the odd base under the genus-1 product
block, and a run that fails its SW check because two knots share a braid.
So are the outputs of `verify lemmas` and `blocks`, which no report holds,
and, in `PINNED`, the product blocks of genus 2 and 3 on the even base and
the rank-1 free block on the odd base.

For a fixed configuration a report stays byte-identical unless the report
format is bumped on purpose, so a change that moves a digest changes what
the README commands give their users.  The digests were taken with
Python 3.11.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
# recipe run --spec fixtures/M_even.json --group free:4 --knots twist:0..10
BENCH_REPORT_SHA256 = "34e68d8e1eb85293cc7884c0faa3955f9f75373b39aec10beb1da8edf22d3206"
BENCH_VERIFY_TRACE_SHA256 = "fe5fd495d2a8b4b085798f4b3b14bcc240c5615f7550134965b2188696018e95"
LEMMAS_GMAX3_SHA256 = "eb7506d92668c068cb05ad16f7dd51f3798fff3e0dd7d73b3000fa4b7562862a"
BLOCKS_SHA256 = "9c8357d6fb97b077621f85d2cb35c239fe8483f282334af24ddb830ea18dad1f"

# (spec fixture, --group, --knots) of a `recipe run`
SURFACE2 = ("M_even.json", "surface:2", "twist:0..4")
SURFACE3 = ("M_even.json", "surface:3", "twist:0..4")
ODD_FREE1 = ("M_odd.json", "free:1", "twist:0..10")
# (configuration, command run on its report, sha256): the command's stdout,
# or the report itself where the command is `recipe run`
PINNED = [
    (SURFACE2, ["recipe", "run"], "ac9c5afd73798c695e203973f179a7dac8916ee3517e614ff8cdf0fd2614613c"),
    (SURFACE2, ["verify-trace"], "83f5f8bd59dc0979228cf16f13bbf28d545604d328234e1c4c32526ad9ba98cb"),
    (SURFACE2, ["verify-trace", "--step", "2"], "a98064a7c53f772f0ab8704a446f14bda3a9f1350c61e45467e7f8d3a01537be"),
    (SURFACE2, ["report", "render"], "9286e9f91ba8a4a4d8dc57e4c5fe9126c76655a7ba76d7692a57a463a7df5adf"),
    (SURFACE3, ["recipe", "run"], "d71f68ac7093582a704389f9322ed2b3433f40f6a1496852f2ff2763e7b728c2"),
    (SURFACE3, ["verify-trace"], "ac43f52df78c78f383246682a73b13edfaa8b0097cd3e39ad748bf82394ebc87"),
    (ODD_FREE1, ["recipe", "run"], "ff4eff4be1087d622e875c6b277924133f265f3efd14f9d44ed4bb507d92b739"),
    (ODD_FREE1, ["verify-trace"], "ef89000730752ed5024cb1ce7453542cebff9b1cbb25c81bfe7b5a1ac881d967"),
]


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


def test_bench_configuration_digests(tmp_path, capsys):
    out = tmp_path / "report.json"
    spec = REPO_ROOT / "fixtures" / "M_even.json"
    argv = ["recipe", "run", "--spec", str(spec), "--group", "free:4", "--knots", "twist:0..10"]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == BENCH_REPORT_SHA256
    assert main(["verify-trace", str(out)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == BENCH_VERIFY_TRACE_SHA256


def test_lemma_suite_and_blocks_digests(capsys):
    assert main(["verify", "lemmas", "--gmax", "3"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == LEMMAS_GMAX3_SHA256
    assert main(["blocks"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == BLOCKS_SHA256


@pytest.fixture(scope="module")
def report_of(tmp_path_factory):
    """The report file of a configuration, written once per module."""
    written = {}

    def report(config) -> Path:
        if config not in written:
            spec, group, knots = config
            out = tmp_path_factory.mktemp("report") / "report.json"
            argv = ["recipe", "run", "--spec", str(REPO_ROOT / "fixtures" / spec),
                    "--group", group, "--knots", knots, "--out", str(out)]
            assert main(argv) == 0
            written[config] = out
        return written[config]

    return report


@pytest.mark.parametrize(
    "config, command, digest", PINNED, ids=[f"{c[1]}-{' '.join(a)}" for c, a, _ in PINNED]
)
def test_pinned_digests(report_of, capsys, config, command, digest):
    report = report_of(config)
    capsys.readouterr()
    if command == ["recipe", "run"]:
        assert _sha256(report.read_bytes()) == digest
        return
    assert main([*command, str(report)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == digest


def test_readme_report_ignores_the_hash_seed():
    # string hashing is salted per process; no set or dict order may reach
    # the report, so two seeds print one report
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    spec = REPO_ROOT / "fixtures" / "M_even.json"
    argv = ["recipe", "run", "--spec", str(spec), "--group", "free:2", "--knots", "twist:0..4"]
    digests = set()
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "exolink.cli", *argv],
            capture_output=True,
            env=env,
            timeout=120,
            check=True,
        )
        digests.add(_sha256(proc.stdout))
    assert digests == {REPORT_SHA256}
