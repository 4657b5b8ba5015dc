"""sigrep benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pgm-512 --seed 1 --seconds 20 --trace 0

Run from the root of a sigrep source tree; the program is imported from
``src/`` of that tree (no install needed).  A run generates the workload's
inputs from the seed, does one untimed warm-up repetition, then repeats the
workload's ops in a closed loop (one client, one op at a time, garbage
collected between repetitions) until ``--seconds`` have been measured.
Every op's output is checked.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Human-readable ``name=value unit`` lines come before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, run_op  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_SAMPLES = 15   # fresh interpreters timed for setup_s


class Tally:
    """Attempted and failed ops over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


REF_ROUNDS = 50_000  # about 35 ms on a 2.1 GHz Xeon


def reference_loop() -> float:
    """Wall seconds of a fixed piece of pure-Python work.

    It mixes what sigrep spends its time on: integer arithmetic, dict and
    list traffic, small ``Fraction`` sums and int/str conversion.  Timed
    next to every op, it tells how fast the host runs at that moment, so
    that the host's slow drift cancels out of ``rep_time_ref``.
    """
    t0 = perf_counter()
    table: dict = {}
    items = []
    acc = Fraction(0)
    for i in range(REF_ROUNDS):
        v = (i * 2654435761) % 1009
        table[v] = table.get(v, 0) + 1
        items.append(int(str(v - 504)))
        if i % 16 == 0:
            acc += Fraction(v, 1 + i % 7)
    items.sort()
    if acc < 0 or len(table) != 1009:
        raise AssertionError("reference loop miscomputed")
    return perf_counter() - t0


class Rep(NamedTuple):
    """One repetition: its ops' summed wall time in seconds, and the same
    sum with each op's time divided by the reference loop's beside it."""
    seconds: float
    ref: float


def run_rep(wl: Workload, tally: Tally, times: dict = None,
            tracer=None) -> Rep:
    """One repetition; appends each op's wall time to ``times[op.name]``.

    The reference loop runs before the first op and after every op's
    check; an op's reference is the mean of the loops on either side.
    """
    seconds = rel = 0.0
    before = reference_loop()
    for op in wl.ops:
        if tracer is not None:
            tracer.op_id += 1
        res = run_op(op)
        tally.add(res.ok)
        if times is not None:
            times.setdefault(op.name, []).append(res.seconds)
        after = reference_loop()
        seconds += res.seconds
        rel += res.seconds * 2 / (before + after)
        before = after
    return Rep(seconds, rel)


def _spawn(argv, env) -> tuple:
    """Run a child to completion; (wall seconds, exit code, peak RSS KiB)."""
    with open(os.devnull, "wb") as null:
        t0 = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, null.fileno(), 1)])
        _pid, status, usage = os.wait4(pid, 0)
        seconds = perf_counter() - t0
    return seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class SetupTimer:
    """Wall time of fresh interpreters that run ``import sigrep.cli``,
    spread over the run so that they see the host as the ops do."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.env = child_env()
        self.samples: list = []
        self._spawn()  # untimed: fills the bytecode cache

    def _spawn(self) -> float:
        seconds, code, _rss = _spawn(["-c", "import sigrep.cli"], self.env)
        self.tally.add(code == 0)
        return seconds

    def keep_up(self, share: float) -> None:
        """Time children until ``share`` of SETUP_SAMPLES are done."""
        while len(self.samples) < min(1.0, share) * SETUP_SAMPLES:
            self.samples.append(self._spawn())


def measure_rss(wl: Workload, tally: Tally) -> float:
    """Peak RSS in MiB of the workload's heaviest op run as a CLI process."""
    _seconds, code, rss_kib = _spawn(["-m", "sigrep.cli"] + wl.heavy_argv,
                                     child_env())
    tally.add(code == 0)
    return rss_kib / 1024


def op_line(name: str, unit: str, per: int, seconds: list) -> str:
    scale = {"ns_per_sample": 1e9, "ms_per_segment": 1e3, "s": 1.0, "ms": 1e3}[unit]
    value = statistics.median(seconds) * scale / per
    unit_text = unit.replace("_per_", "/")
    return f"{name}_{unit}={value:.6g} {unit_text} (median, n={len(seconds)})"


def untraced_run(wl: Workload, seconds: float, tally: Tally) -> dict:
    setup = SetupTimer(tally)
    rss = measure_rss(wl, tally)
    run_rep(wl, tally)  # warm-up
    times: dict = {}
    reps = []
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        gc.collect()
        reps.append(run_rep(wl, tally, times))
        setup.keep_up((perf_counter() - start) / seconds if seconds else 1.0)
    setup.keep_up(1.0)
    for op in wl.ops:
        print(op_line(op.name, op.unit, op.per, times[op.name]))
    if wl.container_name:
        print(f"container_bytes_per_sample={wl.container_bytes() / wl.samples:.6g} B")
    print(f"failed_op_fraction={tally.failed}/{tally.attempted} ratio")
    rep_ms = statistics.median(r.seconds for r in reps) * 1e3
    print(f"rep_ms={rep_ms:.6g} ms (median wall time, n={len(reps)})")
    print(f"samples: rep_time_ref n={len(reps)}, setup_s n={len(setup.samples)}, "
          "peak_rss_mib n=1")
    return {
        "setup_s": (statistics.median(setup.samples), "s"),
        "rep_time_ref": (statistics.median(r.ref for r in reps), "ref"),
        "peak_rss_mib": (rss, "MiB"),
    }


def traced_run(wl: Workload, seconds: float, tally: Tally, span_path: Path,
               spec: dict) -> dict:
    """Alternate untraced and traced repetitions, swapping which goes first
    in each pair; per-layer stats come from the traced ones, the overhead
    from the difference of the two medians.  Reports the per-layer metrics
    that ``spec`` (BENCHMARK.json) lists."""
    tracer = Tracer()
    run_rep(wl, tally)  # warm-up
    plain, traced, per_rep = [], [], []

    def traced_rep():
        per_rep.append(tracer.trace(
            lambda: traced.append(run_rep(wl, tally, tracer=tracer))))

    def plain_rep():
        plain.append(run_rep(wl, tally))

    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        pair = (plain_rep, traced_rep) if len(traced) % 2 else (traced_rep, plain_rep)
        for rep in pair:
            gc.collect()
            rep()
    tracer.dump(span_path)
    # The overhead is taken from the reference-relative times, which the
    # host's drift moves less, and scaled to the untraced wall time.
    fraction = (statistics.median(r.ref for r in traced)
                / statistics.median(r.ref for r in plain) - 1)
    plain_ms = statistics.median(r.seconds for r in plain) * 1e3
    for raw in per_rep:
        raw["trace.overhead_ms"] = fraction * plain_ms
        raw["trace.overhead_fraction"] = fraction
    print(f"traced_reps={len(traced)} untraced_reps={len(plain)} spans={span_path}")
    return {m["name"]: (statistics.median(r.get(m["name"], 0) for r in per_rep),
                        m["unit"])
            for m in spec["per_layer"]}


def check_tree() -> None:
    """Refuse to run anywhere but the root of a sigrep source tree."""
    if not (SRC / "sigrep" / "cli.py").is_file():
        sys.exit(f"perfbench: no sigrep sources under {SRC}")
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    check_tree()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = HERE / "out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    tally = Tally()
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        print(f"workload={wl.name} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        if args.trace:
            span_path = out_dir / f"spans-{wl.name}.jsonl.gz"
            metrics = traced_run(wl, args.seconds, tally, span_path, spec)
        else:
            metrics = untraced_run(wl, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name}={value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
