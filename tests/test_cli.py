"""End-to-end runs of every CLI subcommand, in process via cli.main."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigrep
import sigrep.laws

from sigrep import (ALL_SUITES, ArrowRecord, EncodedSignal, read_csv_signal,
                    read_pgm, write_container_file, write_csv_signal,
                    write_pgm)
from sigrep.cli import main
from sigrep.laws import LawResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_green(capsys):
    code, out, err = run(capsys, "verify", "--seed", "3", "--instances", "2")
    assert code == 0
    assert err == ""
    assert "total:" in out and "0 failures" in out.splitlines()[-1]


def test_verify_green_on_the_benchmark_run(capsys):
    """The run the law-verify benchmark times: seed 0, 25 instances."""
    code, out, err = run(capsys, "verify", "--seed", "0", "--instances", "25")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "total: 19 suites, 0 failures"


def test_verify_bad_instances(capsys):
    code, _, err = run(capsys, "verify", "--instances", "0")
    assert code == 2
    assert err.startswith("error:")


def test_verify_prints_each_failure_and_exits_1(monkeypatch, capsys):
    def suite_fails(rng, instances):
        return LawResult("fails", instances,
                         ["first law broken", "second law broken"])

    def suite_holds(rng, instances):
        return LawResult("holds", instances)

    monkeypatch.setattr(sigrep.laws, "ALL_SUITES", (suite_fails, suite_holds))
    code, out, err = run(capsys, "verify", "--instances", "2")
    assert code == 1 and err == ""
    assert out == ("fails: 2 instances, 2 failures\n"
                   "    first law broken\n"
                   "    second law broken\n"
                   "holds: 2 instances, 0 failures\n"
                   "total: 2 suites, 2 failures\n")


def test_demo_prototype(capsys):
    code, out, _ = run(capsys, "demo-prototype")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "signal=1,2,3,4,5"
    assert "first_deltas=1,1,1,1" in lines
    assert "second_deltas=0,0,0" in lines
    assert lines[-1] == "exact=true"


def test_analyze_exact_match(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    write_csv_signal(sig, [5, 6, 7, 5, 6, 7], origin=0)
    code, out, _ = run(capsys, "analyze", str(sig), "--segment-len", "3")
    assert code == 0
    assert "entry.1.redundant=true" in out
    assert "entry.1.relation=observed isomorphism" in out
    assert "entry.1.source=[0,3)" in out
    assert "summary.redundant_count=1" in out
    assert "summary.redundant_fraction=1" in out


def test_analyze_tolerance_and_detectors(tmp_path, capsys):
    from fractions import Fraction
    sig = tmp_path / "sig.csv"
    # second segment = 2 * first + noise (-4/5, 3/5): orthogonal to the
    # source, so the fitted amplitude is exactly 2 and the residual norm 1
    write_csv_signal(sig, [3, 4, Fraction(26, 5), Fraction(43, 5)], origin=0)
    code, out, _ = run(capsys, "analyze", str(sig), "--segment-len", "2",
                       "--detectors", "translation")
    assert code == 0
    assert "entry.1.redundant=false" in out
    code, out, _ = run(capsys, "analyze", str(sig), "--segment-len", "2",
                       "--tol", "1", "--detectors", "amp")
    assert code == 0
    assert "entry.1.relation=within-tolerance match" in out
    assert "entry.1.amp=2" in out
    code, _, err = run(capsys, "analyze", str(sig), "--detectors", "sonar")
    assert code == 2 and "unknown detector" in err


@pytest.mark.parametrize("argv, message", [
    (("--segment-len", "0"), "--segment-len must be >= 1"),
    (("--detectors", ","), "no detectors selected"),
])
def test_analyze_refuses_bad_options(tmp_path, capsys, argv, message):
    sig = tmp_path / "sig.csv"
    write_csv_signal(sig, [1, 2, 3, 4])
    code, out, err = run(capsys, "analyze", str(sig), *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_encode_decode_csv(tmp_path, capsys):
    sig = tmp_path / "in.csv"
    enc = tmp_path / "sig.fsg"
    out_csv = tmp_path / "out.csv"
    write_csv_signal(sig, [9, 4, 4, 8], origin=-2)
    code, out, _ = run(capsys, "encode", str(sig), "-o", str(enc))
    assert code == 0
    assert "dimension=1 shape=4" in out
    code, _, _ = run(capsys, "decode", str(enc), "-o", str(out_csv))
    assert code == 0
    assert read_csv_signal(out_csv) == ([9, 4, 4, 8], -2)


def test_encode_decode_pgm(tmp_path, capsys):
    img = tmp_path / "in.pgm"
    enc = tmp_path / "img.fsg"
    out_img = tmp_path / "out.pgm"
    rows = [[0, 10, 10], [0, 10, 20]]
    write_pgm(img, rows)
    code, out, _ = run(capsys, "encode", str(img), "-o", str(enc))
    assert code == 0 and "dimension=2 shape=2x3" in out
    code, _, _ = run(capsys, "decode", str(enc), "-o", str(out_img))
    assert code == 0
    assert read_pgm(out_img)[0] == rows


def test_decode_extension_mismatch(tmp_path, capsys):
    sig = tmp_path / "in.csv"
    enc = tmp_path / "sig.fsg"
    write_csv_signal(sig, [1, 2, 3])
    run(capsys, "encode", str(sig), "-o", str(enc))
    code, _, err = run(capsys, "decode", str(enc), "-o",
                       str(tmp_path / "no.pgm"))
    assert code == 2 and "2-D container" in err
    img = tmp_path / "in.pgm"
    write_pgm(img, [[1, 2], [3, 4]])
    run(capsys, "encode", str(img), "-o", str(enc))
    code, out, err = run(capsys, "decode", str(enc), "-o",
                         str(tmp_path / "no.csv"))
    assert (code, out) == (2, "")
    assert err == ("error: CSV output needs a 1-D container; "
                   "name the output file *.pgm instead\n")


def test_stats(tmp_path, capsys):
    sig = tmp_path / "in.csv"
    enc = tmp_path / "sig.fsg"
    write_csv_signal(sig, [1, 2, 3, 4, 5])
    run(capsys, "encode", str(sig), "-o", str(enc))
    code, out, _ = run(capsys, "stats", str(sig), str(enc))
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["nonzero_delta_fraction"] == "1"
    assert lines["raw_entropy_bits_per_sample"] == "2.321928"
    assert lines["delta_entropy_bits_per_sample"] == "0.000000"
    assert int(lines["encoded_size_bytes"]) > 0
    # one left run: 47-byte header, one 41-byte record head, four deltas
    assert lines["records"] == "1"
    assert lines["header_bytes"] == "47"
    assert lines["arrow_param_bytes"] == "41"
    assert lines["residual_bytes"] == "32"
    assert int(lines["encoded_size_bytes"]) == 47 + 41 + 32
    assert (lines["records.translation"], lines["records.affine"],
            lines["records.amp_affine"]) == ("1", "0", "0")
    # the detected policy's arrow mix: 2, 4 and 3 are amplitude multiples of
    # the first sample, the last 2 is a translation of the earlier 2
    write_csv_signal(sig, [1, 2, 4, 3, 2])
    run(capsys, "encode", str(sig), "-o", str(enc), "--policy", "detected")
    code, out, _ = run(capsys, "stats", str(sig), str(enc))
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["records"] == "4"
    assert (lines["records.translation"], lines["records.affine"],
            lines["records.amp_affine"]) == ("1", "0", "3")


def test_stats_counts_the_kind_each_arrow_has(tmp_path, capsys):
    # an amplitude-3 record and a plain translation, hand-built: the counts
    # come from each record's S and amplitude
    sig = tmp_path / "in.csv"
    enc = tmp_path / "sig.fsg"
    write_csv_signal(sig, [1, 3, 3])
    write_container_file(enc, EncodedSignal(
        (3,), 0, "detected", (1,),
        (ArrowRecord(-1, 1, 3, 1, (0,)), ArrowRecord(-1, 1, 1, 1, (0,)))))
    code, out, _ = run(capsys, "stats", str(sig), str(enc))
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert (lines["records.translation"], lines["records.affine"],
            lines["records.amp_affine"]) == ("1", "0", "1")


def test_stats_image_split(tmp_path, capsys):
    img = tmp_path / "image.pgm"
    enc = tmp_path / "image.fsg"
    write_pgm(img, [[10, 10, 20, 20] for _ in range(4)])
    run(capsys, "encode", str(img), "-o", str(enc))
    code, out, _ = run(capsys, "stats", str(img), str(enc))
    assert code == 0
    assert out.splitlines() == [
        "nonzero_delta_fraction=4/15",
        "raw_entropy_bits_per_sample=1.000000",
        "delta_entropy_bits_per_sample=0.836641",
        "encoded_size_bytes=462",
        "records=7",
        "header_bytes=55",
        "arrow_param_bytes=287",
        "residual_bytes=120",
        "records.translation=7",
        "records.affine=0",
        "records.amp_affine=0",
    ]


def test_stats_refuses_a_raw_file_of_another_shape(tmp_path, capsys):
    sig = tmp_path / "in.csv"
    img = tmp_path / "in.pgm"
    enc = tmp_path / "in.fsg"
    write_csv_signal(sig, [1, 2, 3, 4])
    write_pgm(img, [[1, 2], [3, 4]])
    run(capsys, "encode", str(img), "-o", str(enc))
    code, out, err = run(capsys, "stats", str(sig), str(enc))
    assert (code, out) == (2, "")
    assert err == ("error: raw input has shape (4,) but the container has "
                   "shape (2, 2)\n")
    run(capsys, "encode", str(sig), "-o", str(enc))
    code, out, err = run(capsys, "stats", str(img), str(enc))
    assert (code, out) == (2, "")
    assert err == ("error: raw input has shape (2, 2) but the container has "
                   "shape (4,)\n")


def test_io_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "encode", str(tmp_path / "missing.csv"),
                       "-o", str(tmp_path / "x.fsg"))
    assert code == 2 and err.startswith("error:")
    bad = tmp_path / "bad.fsg"
    bad.write_bytes(b"not a container")
    code, _, err = run(capsys, "decode", str(bad), "-o",
                       str(tmp_path / "y.csv"))
    assert code == 2 and "magic" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_encode_refuses_rational_samples(tmp_path, capsys):
    from fractions import Fraction
    sig = tmp_path / "half.csv"
    write_csv_signal(sig, [1, Fraction(1, 2), 2])
    code, _, err = run(capsys, "encode", str(sig), "-o", str(tmp_path / "h.fsg"))
    assert code == 2
    assert "integer samples only" in err and "rational sample 1/2" in err
    # the rational's place does not change the message
    write_csv_signal(sig, [Fraction(-1, 2), 3])
    code, _, err = run(capsys, "encode", str(sig), "-o", str(tmp_path / "h.fsg"))
    assert code == 2 and "rational sample -1/2" in err
    # analyze still takes rationals
    code, _, _ = run(capsys, "analyze", str(sig), "--segment-len", "1")
    assert code == 0


def test_failed_encode_leaves_output_alone(tmp_path, capsys):
    good = tmp_path / "good.csv"
    huge = tmp_path / "huge.csv"
    out = tmp_path / "sig.fsg"
    write_csv_signal(good, [1, 2, 3])
    write_csv_signal(huge, [0, 1 << 63])   # does not fit the container
    code, _, err = run(capsys, "encode", str(huge), "-o", str(out))
    assert code == 2 and "64-bit" in err
    assert not out.exists()
    assert run(capsys, "encode", str(good), "-o", str(out))[0] == 0
    before = out.read_bytes()
    code, _, _ = run(capsys, "encode", str(huge), "-o", str(out))
    assert code == 2
    assert out.read_bytes() == before


_PHASES = {
    "encode": ("read", "encode", "container_write"),
    "decode": ("container_read", "decode", "write"),
    "stats": ("read", "container_read"),
    "analyze": ("read", "detect"),
    "verify": tuple(fn.__name__ for fn in ALL_SUITES),
}


def test_timings_flag(tmp_path, capsys):
    sig, enc, out_csv = (tmp_path / n for n in ("in.csv", "sig.fsg", "out.csv"))
    write_csv_signal(sig, [9, 4, 4, 8], origin=-2)
    cases = {"encode": (str(sig), "-o", str(enc)),
             "decode": (str(enc), "-o", str(out_csv)),
             "stats": (str(sig), str(enc)),
             "analyze": (str(sig),),
             "verify": ("--instances", "1")}

    def written():
        return [p.read_bytes() for p in (enc, out_csv) if p.exists()]

    for command, argv in cases.items():
        code, out, err = run(capsys, command, *argv)
        files = written()
        assert code == 0 and err == ""
        code, timed_out, timed_err = run(capsys, "--timings", command, *argv)
        assert code == 0 and timed_out == out and written() == files
        keys, values = zip(*(line.split("=") for line in timed_err.splitlines()))
        assert keys == tuple(f"timing.{p}_ms" for p in _PHASES[command])
        assert all(float(v) >= 0 for v in values)
    # a failing phase is not timed; the phases before it are
    bad = tmp_path / "bad.fsg"
    bad.write_bytes(b"not a container")
    code, _, err = run(capsys, "--timings", "stats", str(sig), str(bad))
    assert code == 2
    assert err.splitlines()[0] == "error: bad magic"
    assert [line.split("=")[0] for line in err.splitlines()[1:]] == [
        "timing.read_ms"]


# analyze's whole stdout on one small input, captured before the report was
# written with a single print: every line, their order and the final newline
_SMALL = [1, 2, 4, 1, 2, 4, 4, 2, 1, 3, 6, 12, 7, 0, 9, 1, 2, 5]
_SMALL_REPORT = """\
signal.path={path}
signal.origin=-2
signal.length=18
segment.count=6
tol=1
detectors=translation,affine,amp_affine
entry.1.target=[1,4)
entry.1.redundant=true
entry.1.source=[-2,1)
entry.1.detector=translation
entry.1.relation=observed isomorphism
entry.1.stride=1
entry.1.shift=-3
entry.1.amp=1
entry.1.residual_sq=0
entry.2.target=[4,7)
entry.2.redundant=true
entry.2.source=[-2,1)
entry.2.detector=affine
entry.2.relation=observed isomorphism
entry.2.stride=-1
entry.2.shift=4
entry.2.amp=1
entry.2.residual_sq=0
entry.3.target=[7,10)
entry.3.redundant=true
entry.3.source=[-2,1)
entry.3.detector=amp_affine
entry.3.relation=observed isomorphism
entry.3.stride=1
entry.3.shift=-9
entry.3.amp=3
entry.3.residual_sq=0
entry.4.target=[10,13)
entry.4.redundant=false
entry.5.target=[13,16)
entry.5.redundant=true
entry.5.source=[-2,1)
entry.5.detector=amp_affine
entry.5.relation=within-tolerance match
entry.5.stride=1
entry.5.shift=-15
entry.5.amp=25/21
entry.5.residual_sq=5/21
summary.redundant_count=4
summary.redundant_fraction=4/5
"""


def test_analyze_stdout_byte_for_byte(tmp_path, capsys):
    sig = tmp_path / "small.csv"
    write_csv_signal(sig, _SMALL, origin=-2)
    code, out, err = run(capsys, "analyze", str(sig), "--segment-len", "3",
                         "--tol", "1")
    assert (code, err) == (0, "")
    assert out == _SMALL_REPORT.format(path=sig)


@pytest.mark.parametrize("bad", ["abc", "-inf", "-1", "nan", "1/0", ""])
def test_bad_tol_names_what_tol_accepts(tmp_path, capsys, bad):
    sig = tmp_path / "sig.csv"
    write_csv_signal(sig, [1, 2])
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(sig), f"--tol={bad}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "sigrep analyze: error: argument --tol: takes an exact rational >= 0 "
        f"(such as 0, 3/2 or 0.25) or inf, not {bad!r}")


@pytest.mark.parametrize("tol, line", [("3/2", "tol=3/2"), ("0.25", "tol=1/4"),
                                       ("INF", "tol=inf"), ("0", "tol=0")])
def test_good_tol_values(tmp_path, capsys, tol, line):
    sig = tmp_path / "sig.csv"
    write_csv_signal(sig, [1, 2])
    code, out, _ = run(capsys, "analyze", str(sig), "--tol", tol)
    assert code == 0 and line in out.splitlines()


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    write_csv_signal(sig, _SMALL, origin=-2)
    plain = run(capsys, "analyze", str(sig), "--segment-len", "3")
    assert plain[0] == 0 and "tol=0" in plain[1]
    code, out, err = run(capsys, "--timings", "analyze", str(sig),
                         "--segment-len", "3", "--tol", "inf",
                         "--detectors", "translation")
    assert code == 0 and "detectors=translation" in out and "timing." in err
    assert run(capsys, "analyze", str(sig), "--segment-len", "3") == plain

    enc = tmp_path / "sig.fsg"
    assert run(capsys, "encode", str(sig), "-o", str(enc))[0] == 0
    predecessor = enc.read_bytes()
    code, out, _ = run(capsys, "encode", str(sig), "-o", str(enc),
                       "--policy", "detected")
    assert code == 0 and "policy=detected" in out
    code, out, _ = run(capsys, "encode", str(sig), "-o", str(enc))
    assert code == 0 and "policy=predecessor" in out
    assert enc.read_bytes() == predecessor

    # a usage error leaves nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(sig), "--segment-len"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "analyze", str(sig), "--segment-len", "3") == plain


def test_the_parser_is_built_on_the_first_call_only():
    # counted in a fresh interpreter: importing the CLI builds no parser,
    # the first main() call builds it, and later calls reuse it
    script = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import sigrep.cli
assert built == [], built
assert sigrep.cli.main(["demo-prototype"]) == 0
first = len(built)
assert first > 0
for argv in (["demo-prototype"], ["--timings", "demo-prototype"]):
    assert sigrep.cli.main(argv) == 0
assert len(built) == first, built
"""
    env = dict(os.environ,
               PYTHONPATH=str(Path(sigrep.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
