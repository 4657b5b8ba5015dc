"""Tests of the benchmark itself: seeded generators and exact counts.

    python3 -m pytest perfbench/test_perfbench.py -q

Every generator must give the same inputs for the same seed and different
inputs for another seed, and the exact counts of a traced repetition
(container bytes and records, detector calls, sigma-algebra members, the
non-predecessor fraction) must repeat exactly for a given seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

GENERATORS = [W.make_pgm_rows, W.make_walk, W.make_segmented,
              W.make_algebra_case]

EXACT = ("container.bytes_per_sample", "container.records_per_sample",
         "container.deltas_per_record", "codec.non_predecessor_fraction",
         "signal.detect_translation.calls", "signal.detect_affine.calls",
         "signal.detect_amp_affine.calls", "signal.detector_hit_ratio",
         "measure.generate_sigma_algebra.calls", "measure.sigma_members",
         "cli.main.calls", "codec.encode.calls")


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
def test_generator_is_deterministic(gen):
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_inputs_have_the_advertised_shape():
    rows = W.make_pgm_rows(3)
    assert len(rows) == W.PGM_SIDE and {len(r) for r in rows} == {W.PGM_SIDE}
    walk, _origin = W.make_walk(3)
    assert len(walk) == W.CSV_SAMPLES
    assert all(abs(b - a) <= 3 for a, b in zip(walk, walk[1:]))
    samples, _origin, planted = W.make_segmented(3)
    assert len(samples) == W.SEGMENTS * W.SEG_LEN
    assert len(planted) == W.SEGMENTS - len(range(0, W.SEGMENTS, len(W.GROUP)))


def test_pgm_parser_reads_what_the_generator_writes():
    rows = W.make_pgm_rows(4)
    assert W.parse_pgm(W.pgm_bytes(rows)) == [v for r in rows for v in r]


def _traced_rep(wl) -> dict:
    tracer = Tracer()
    tally = run.Tally()
    raw = tracer.trace(lambda: run.run_rep(wl, tally, tracer=tracer))
    assert tally.attempted == len(wl.ops) and tally.failed == 0
    return raw


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced repetitions of every workload at seed 5."""
    out = {}
    for name, cls in sorted(W.WORKLOADS.items()):
        wl = cls(tmp_path_factory.mktemp(name), 5)
        out[name] = (_traced_rep(wl), _traced_rep(wl))
    return out


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_exact_counts_repeat_for_a_seed(name, traced_twice):
    first, second = traced_twice[name]
    for key in EXACT:
        assert first.get(key, 0) == second.get(key, 0), key


@pytest.mark.parametrize("name", ["pgm-512", "csv-200k"])
def test_codec_workloads_leave_the_detectors_idle(name, traced_twice):
    first, _ = traced_twice[name]
    assert first.get("signal.detector_calls", 0) == 0
    assert first["container.bytes_per_sample"] == pytest.approx(49, abs=0.01)


def test_every_per_layer_metric_is_measured(traced_twice):
    seen = set().union(*(first for first, _ in traced_twice.values()))
    # Set by the run loop, and counted only when an exception escapes.
    seen |= {"trace.overhead_ms", "trace.overhead_fraction"}
    seen |= {f"{layer}.raised" for layer in LAYERS}
    assert "quotient.raised" in traced_twice["law-verify"][0]
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in seen]
    assert not missing


def test_rep_reports_wall_and_reference_time():
    nap = W.Op("nap", lambda: time.sleep(0.02), lambda _: True, 1, "ms")
    tally = run.Tally()
    rep = run.run_rep(SimpleNamespace(ops=[nap, nap]), tally)
    assert tally.attempted == 2 and tally.failed == 0
    assert rep.seconds >= 0.04 and rep.ref > 0


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "detect-1d", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pgm-512",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_uninstall_restores_every_original():
    import sigrep.cli
    import sigrep.laws
    before = (sigrep.cli.main, sigrep.cli.read_pgm, sigrep.laws.ALL_SUITES)
    tracer = Tracer()
    tracer.install()
    assert sigrep.cli.main is not before[0]
    tracer.uninstall()
    assert (sigrep.cli.main, sigrep.cli.read_pgm, sigrep.laws.ALL_SUITES) == before
