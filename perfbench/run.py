"""exolink benchmark: cold time to verdict on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs nothing but the standard library
and the sources under src/.  Each operation runs in a fresh child interpreter
(child.py), one at a time, with no worker pool, so every operation pays the
cold cost a CLI user pays and no state carries from one operation to the next.
The loop is closed: the next operation starts when the previous one exits,
until the operations have taken --seconds in all.

Workloads (inputs from gen.py, fixed by the seed):

  recipe  `exolink recipe run` on M_even at free:4 over a 16-knot family (write path)
  replay  `exolink verify-trace` on two reports built during set-up: surface:2
          on M_even and free:1 on M_odd (read path)
  knots   `parse_knots_arg` on 20 wide braids; only knots and groupring run (control)

Every operation passes a correctness gate and must reproduce, byte for byte,
the output of the first operation on the same input.  The last line of
stdout is one JSON object: the end-to-end metrics with --trace 0; with
--trace 1 the operations alternate untraced and traced and it carries the
per-layer metrics of layers.py.  Spans of a traced run are written under
.perfbench/trace/.

The end-to-end times (set-up, time to verdict, items per second) are scaled
to a host of fixed speed: fixed calibration probes run before and after
every timed step, and the step's time is scaled by the probes' time around
it (HostClock).  The times as measured are printed above the result line.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

import gen
from layers import LAYER_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REQUIRED = ("src/exolink/cli.py", "fixtures/M_even.json", "fixtures/M_odd.json")

WORKLOADS = ("recipe", "replay", "knots")
# Set-up runs again between measured cycles while its total time stays under
# SETUP_SHARE of the measured time, and at least SETUP_MIN times in all, so
# that its median samples the same stretch of time as the operations do.
SETUP_SHARE = 0.125
SETUP_MIN = 3
TAIL_BEYOND = 10
# Host-speed calibration (see HostClock): steps of each probe, the size of
# the memory probe's list, runs of each probe per calibration, and the
# calibration time the scaled times refer to.
CAL_STEPS = 20_000
CAL_INTS = 400_000
CAL_REPEATS = 3
CAL_REF_S = 0.025

END_TO_END = (
    ("setup_s", "s"),
    ("time_to_verdict_s.p50", "s"),
    ("time_to_verdict_s.tail", "s"),
    ("items_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("report_bytes", "bytes"),
)


class GateError(Exception):
    """An operation's output failed the correctness gate."""


class SetupError(Exception):
    """Set-up could not produce the workload's inputs."""


@dataclass
class Op:
    """One command a workload repeats; `check` returns the items it verified.

    Its output is the file ``report`` when set, else its standard output;
    ``source`` is the report file it reads, if any."""

    label: str
    argv: list[str]
    check: Callable[[bytes], int]
    report: str | None = None
    source: str | None = None


@dataclass
class Sample:
    op: int
    cycle: int
    traced: bool
    wall_s: float  # as measured
    time_s: float  # scaled to the reference host speed
    rss_kib: int
    ok: bool
    items: int
    out_bytes: int


def _wait(pid: int) -> int:
    """Exit code of child ``pid``; the child is killed if the wait is cut."""
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status)


def spawn(prefix: str, argv: list[str]) -> tuple[float, int]:
    """Run child.py with ``argv``, its output files named ``prefix``.*;
    return (wall seconds from start to exit, exit code)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, f"{prefix}.stdout", flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{prefix}.stderr", flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, CHILD, prefix, *argv], os.environ, file_actions=actions
    )
    code = _wait(pid)
    return time.perf_counter() - start, code


class HostClock:
    """Scales the time of each timed step to a host of fixed speed.

    On a shared host the speed of a core can halve, or double, for seconds
    at a time, which moves the time of an unchanged program by more
    than the changes the benchmark must resolve.  So fixed calibration
    probes run before and after every timed step (set-up or operation), and
    the step's time is multiplied by CAL_REF_S over the mean of the two
    calibration times: the time the step would have taken on a host where
    the probes take CAL_REF_S.  Each probe stands for one kind of cost an
    operation pays: integer arithmetic, reads scattered over a large heap,
    allocation of small objects, and starting an interpreter.  The probes
    share no code with exolink, so a change to exolink moves the scaled
    times as much as the measured ones."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._ints = [rng.getrandbits(40) for _ in range(CAL_INTS)]
        self._index = [rng.randrange(CAL_INTS) for _ in range(CAL_STEPS)]
        self.last = self.calibrate()
        self.calibrations = [self.last]

    def calibrate(self) -> float:
        """Seconds the probes take now: for each probe, the median of
        CAL_REPEATS runs; summed over the probes."""
        probes = (_probe_arithmetic, self._probe_memory, _probe_allocation, _probe_interpreter)
        total = 0.0
        for probe in probes:
            times = []
            for _ in range(CAL_REPEATS):
                start = time.perf_counter()
                probe()
                times.append(time.perf_counter() - start)
            total += statistics.median(times)
        return total

    def scale(self, wall_s: float) -> float:
        """Scaled time of a step of ``wall_s`` seconds that ended just now,
        with no other timed step since the previous call."""
        before, self.last = self.last, self.calibrate()
        self.calibrations.append(self.last)
        return wall_s * CAL_REF_S * 2 / (before + self.last)

    def _probe_memory(self) -> int:
        acc = 0
        for i in self._index:
            acc = (acc + self._ints[i]) & 0xFFFFFFFF
        return acc


def _probe_arithmetic() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(CAL_STEPS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc


def _probe_allocation() -> int:
    table = {(i, i & 7): [i * 12_345_678_901_234_567, (i,)] for i in range(CAL_STEPS // 3)}
    return sum(v[0] * v[0] for v in table.values()) & 1


def _probe_interpreter() -> int:
    """Start an interpreter that does nothing, and wait for it to exit."""
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-S", "-c", "pass"], os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )  # fmt: skip
    return _wait(pid)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _tail(path: str) -> str:
    try:
        return _read(path).decode("utf-8", "replace").strip().splitlines()[-1]
    except (OSError, IndexError):
        return "(no output)"


# -- correctness gates ------------------------------------------------------------


def check_recipe(family: list[gen.Knot]) -> Callable[[bytes], int]:
    from exolink.pipeline import validate_certificate_partition

    names = [k.name for k in family]

    def check(data: bytes) -> int:
        report = json.loads(data)
        if report.get("verdict") != "pass":
            raise GateError(f"verdict is {report.get('verdict')!r}")
        failed = [c["id"] for c in report["checks"] if not c["pass"]]
        if failed:
            raise GateError(f"failed checks: {failed}")
        violations = validate_certificate_partition(report)
        if violations:
            raise GateError(f"partition violations: {violations[:3]}")
        if [k["name"] for k in report["config"]["knots"]] != names:
            raise GateError("report certifies another knot family")
        return len(names)

    return check


def check_replay(records: int) -> Callable[[bytes], int]:
    def check(data: bytes) -> int:
        result = json.loads(data)
        if result.get("pass") is not True:
            raise GateError("verify-trace did not pass")
        rows = result["records"]
        if len(rows) != records:
            raise GateError(f"replayed {len(rows)} of {records} records")
        differing = [name for name, row in rows.items() if row.get("identical") is not True]
        if differing:
            raise GateError(f"records not identical: {differing[:3]}")
        return records

    return check


def check_knots(knots: list[gen.Knot]) -> Callable[[bytes], int]:
    want = [[k.name, gen.poly_terms(k.alexander)] for k in knots]

    def check(data: bytes) -> int:
        got = json.loads(data)
        if got != want:
            bad = next((w[0] for g, w in zip(got, want) if g != w), "list length")
            raise GateError(f"Alexander polynomial differs from its closed form: {bad}")
        return len(want)

    return check


# -- set-up -----------------------------------------------------------------------


def _recipe_argv(spec: str, group: str, knots: list[gen.Knot], out: str) -> list[str]:
    return [
        "cli", "recipe", "run",
        "--spec", os.path.join(ROOT, "fixtures", spec),
        "--group", group,
        "--knots", gen.knots_arg(knots),
        "--out", out,
    ]  # fmt: skip


def _build_report(work: str, name: str, spec: str, group: str, knots: list[gen.Knot]) -> Op:
    path = os.path.join(work, f"{name}.json")
    prefix = os.path.join(work, name)
    _, code = spawn(prefix, _recipe_argv(spec, group, knots, path))
    if code != 0:
        raise SetupError(f"building the {name} report exited {code}: {_tail(prefix + '.stderr')}")
    data = _read(path)
    check_recipe(knots)(data)
    records = len(json.loads(data)["records"])
    return Op(f"replay:{name}", ["cli", "verify-trace", path], check_replay(records), source=path)


def setup(workload: str, seed: int, work: str) -> list[Op]:
    """Make the workload's inputs, and for replay its reports, in ``work``."""
    os.makedirs(work)
    inputs = gen.make_inputs(seed)
    if workload == "recipe":
        out = os.path.join(work, "report.json")
        argv = _recipe_argv("M_even.json", "free:4", inputs.recipe, out)
        return [Op("recipe", argv, check_recipe(inputs.recipe), report=out)]
    if workload == "replay":
        return [
            _build_report(work, "even", "M_even.json", "surface:2", inputs.replay_even),
            _build_report(work, "odd", "M_odd.json", "free:1", inputs.replay_odd),
        ]
    return [Op("knots", ["knots", gen.knots_arg(inputs.wide)], check_knots(inputs.wide))]


def _fingerprint(ops: list[Op], work: str) -> list:
    """What set-up produced, with the repeat's own directory factored out."""
    return [
        (op.label, [a.replace(work, "<work>") for a in op.argv], op.source and _read(op.source))
        for op in ops
    ]


# -- measurement --------------------------------------------------------------------


def run_op(op: Op, index: int, cycle: int, traced: bool, n: int, work: str, trace_dir: str,
           reference: dict[int, bytes], clock: HostClock) -> Sample:
    prefix = os.path.join(trace_dir, f"op{n}") if traced else os.path.join(work, "op")
    output = op.report or f"{prefix}.stdout"
    if os.path.exists(output):
        os.remove(output)
    wall, code = spawn(prefix, (["--trace", str(n)] if traced else []) + op.argv)
    scaled = clock.scale(wall)
    ok, items, size, rss = False, 0, 0, 0
    try:
        if code != 0:
            raise GateError(f"exit code {code}: {_tail(prefix + '.stderr')}")
        rss = int(_read(f"{prefix}.rss"))
        data = _read(output)
        size = len(data)
        items = op.check(data)
        if reference.setdefault(index, data) != data:
            raise GateError("output differs from the first operation on the same input")
        ok = True
    except Exception as exc:  # every failure is counted, the run goes on
        print(f"operation {n} ({op.label}{', traced' if traced else ''}) failed: {exc!r}",
              file=sys.stderr)
    return Sample(index, cycle, traced, wall, scaled, rss, ok, items if ok else 0, size)


class SetupRuns:
    """Repeated set-ups of one workload: their times as measured (``walls``)
    and scaled (``times``), and the first one's ops."""

    def __init__(self, workload: str, seed: int, work: str, clock: HostClock):
        self.workload, self.seed, self.work, self.clock = workload, seed, work, clock
        self.walls: list[float] = []
        self.times: list[float] = []
        self.first: list | None = None
        self.ops = self.run()

    def run(self) -> list[Op]:
        repeat_dir = os.path.join(self.work, f"setup{len(self.times)}")
        start = time.perf_counter()
        ops = setup(self.workload, self.seed, repeat_dir)
        self.walls.append(time.perf_counter() - start)
        self.times.append(self.clock.scale(self.walls[-1]))
        fingerprint = _fingerprint(ops, repeat_dir)
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            raise SetupError("set-up is not deterministic for a fixed seed")
        return ops


def measure(setups: SetupRuns, seconds: float, trace: bool, work: str,
            trace_dir: str) -> list[Sample]:
    """Repeat the workload's operations until ``seconds`` of them have run."""
    samples: list[Sample] = []
    reference: dict[int, bytes] = {}
    measured = 0.0
    cycle = 0
    while measured < seconds:
        start = time.perf_counter()
        for index, op in enumerate(setups.ops):
            for traced in (False, True) if trace else (False,):
                samples.append(run_op(op, index, cycle, traced, len(samples), work, trace_dir,
                                      reference, setups.clock))
        measured += time.perf_counter() - start
        cycle += 1
        if sum(setups.walls) < SETUP_SHARE * measured:
            setups.run()
    while len(setups.times) < SETUP_MIN:
        setups.run()
    return samples


def tail_of(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and that
    percentile; the median when that percentile would lie below it (fewer
    than about 2 * TAIL_BEYOND samples)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < (len(ordered) - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _cycle_rates(samples: list[Sample]) -> list[float]:
    """Items verified per second of each cycle (one run of every operation),
    so that a stretch of slow operations moves the median less than a total."""
    items: dict[int, int] = {}
    times: dict[int, float] = {}
    for s in samples:
        items[s.cycle] = items.get(s.cycle, 0) + s.items
        times[s.cycle] = times.get(s.cycle, 0.0) + s.time_s
    return [items[c] / times[c] for c in times]


def end_to_end(samples: list[Sample], setups: SetupRuns) -> tuple[dict, list[str]]:
    ops = setups.ops
    times = [s.time_s for s in samples]
    walls = [s.wall_s for s in samples]
    tail, percentile = tail_of(times)
    per_op_bytes = [
        os.path.getsize(op.source) if op.source
        else max((s.out_bytes for s in samples if s.op == i), default=0)
        for i, op in enumerate(ops)
    ]
    failed = sum(not s.ok for s in samples)
    values = {
        "setup_s": statistics.median(setups.times),
        "time_to_verdict_s.p50": statistics.median(times),
        "time_to_verdict_s.tail": tail,
        "items_per_s": statistics.median(_cycle_rates(samples)),
        "success_rate": 1 - failed / len(samples),
        "peak_rss_mib": statistics.median([s.rss_kib for s in samples if s.ok] or [0]) / 1024,
        "report_bytes": sum(per_op_bytes),
    }
    calibrations = setups.clock.calibrations
    notes = [
        f"setup_s is the median of {len(setups.times)} set-ups",
        f"time_to_verdict_s.tail is p{percentile:.1f} of {len(times)} operations",
        f"error_rate = {failed / len(samples)} ({failed} of {len(samples)} operations failed)",
        f"times are scaled to a {CAL_REF_S} s calibration; it took "
        f"{min(calibrations):.5f} to {max(calibrations):.5f} s, "
        f"median {statistics.median(calibrations):.5f} s",
        f"as measured: setup_s = {statistics.median(setups.walls):.6g} s, "
        f"time_to_verdict_s.p50 = {statistics.median(walls):.6g} s, "
        f"time_to_verdict_s.tail = {tail_of(walls)[0]:.6g} s",
    ]
    if len(ops) > 1:
        notes += [
            f"{op.label} p50 = {statistics.median(s.time_s for s in samples if s.op == i):.4f} s"
            for i, op in enumerate(ops)
        ]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, notes


def per_layer(samples: list[Sample], trace_dir: str) -> tuple[dict, list[str]]:
    cycles: dict[int, dict[str, dict[str, float]]] = {}
    for n, s in enumerate(samples):
        if not (s.traced and s.ok):
            continue
        with open(os.path.join(trace_dir, f"op{n}.stats.json"), encoding="utf-8") as handle:
            stats = json.load(handle)
        totals = cycles.setdefault(s.cycle, {})
        for fn, row in stats.items():
            acc = totals.setdefault(fn, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + value
    overhead = [
        t.wall_s - u.wall_s for u, t in zip(samples[::2], samples[1::2]) if u.ok and t.ok
    ]

    def value(metric: str, totals: dict) -> float:
        fn, stat = metric.rsplit(".", 1)
        row = totals.get(fn, {})
        if stat == "distinct_ratio":
            return row["distinct"] / row["calls"] if row.get("calls") else 0.0
        return row.get(stat, 0)

    metrics = {}
    for name, unit, _better, _moves in LAYER_METRICS:
        if name == "trace.overhead_s":
            v = statistics.median(overhead) if overhead else 0.0
        else:
            v = statistics.median(value(name, t) for t in cycles.values()) if cycles else 0.0
        metrics[name] = {"value": v, "unit": unit}
    return metrics, [f"{len(cycles)} traced cycles; spans in {os.path.relpath(trace_dir, ROOT)}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an exolink checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Importing here writes the bytecode caches the children load, so that no
    # timed operation or set-up pays for compiling them.
    import exolink.cli  # noqa: F401
    import tracer  # noqa: F401

    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    trace_dir = os.path.join(OUT_DIR, "trace", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = SetupRuns(args.workload, args.seed, work, HostClock())
        if args.trace:
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
        samples = measure(setups, args.seconds, bool(args.trace), work, trace_dir)
        if args.trace:
            metrics, notes = per_layer(samples, trace_dir)
        else:
            metrics, notes = end_to_end(samples, setups)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    failed = sum(not s.ok for s in samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
