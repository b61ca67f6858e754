"""One benchmark operation, run in a fresh interpreter by run.py.

    child.py PREFIX [--trace OP] cli ARG...     exolink.cli.main(ARG...)
    child.py PREFIX [--trace OP] knots LIST     exolink.pipeline.parse_knots_arg(LIST)

`knots` prints one JSON list of [name, [[exponent, coeff], ...]] pairs, in
list order.  When the operation ends, PREFIX.rss receives its peak resident
set in KiB (VmHWM: unlike the spawner's ru_maxrss, it leaves out the memory
of the parent the child was spawned from).  With --trace the layers are
wrapped before the operation, and the counters (PREFIX.stats.json) and the
spans of operation OP (PREFIX.spans.json.gz) are written when it ends.
"""
from __future__ import annotations

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# An operation that hangs is killed (SIGALRM) and counts as failed, so that a
# whole benchmark run still ends within its time limit.
OP_TIMEOUT_S = 100


def _knots(text: str) -> int:
    import exolink.pipeline

    records = exolink.pipeline.parse_knots_arg(text)
    polys = [[k.name, [[e[0], c] for e, c in k.alexander.terms]] for k in records]
    print(json.dumps(polys, separators=(",", ":")))
    return 0


def _peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    signal.alarm(OP_TIMEOUT_S)
    prefix, argv = argv[0], argv[1:]
    active = None
    if argv[0] == "--trace":
        import tracer

        active = tracer.Tracer(int(argv[1]))
        argv = argv[2:]
        tracer.install(active)
    kind, args = argv[0], argv[1:]
    try:
        if kind == "cli":
            import exolink.cli

            return exolink.cli.main(args)
        if kind == "knots":
            return _knots(args[0])
        raise SystemExit(f"unknown operation kind {kind!r}")
    finally:
        with open(f"{prefix}.rss", "w", encoding="ascii") as handle:
            handle.write(str(_peak_rss_kib()))
        if active is not None:
            with open(f"{prefix}.stats.json", "w", encoding="utf-8") as handle:
                json.dump(active.summary(), handle)
            active.dump_spans(f"{prefix}.spans.json.gz")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
