"""The shipped admissible base specs, `fixtures/M_even.json` and `M_odd.json`,
read as text: the tests use the same files as the CLI and the README."""
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def spec_text(which: str) -> str:
    """Text of the shipped spec ``M_<which>.json`` ("even" or "odd")."""
    return (FIXTURES / f"M_{which}.json").read_text(encoding="utf-8")
