"""Command-line surface.

Subcommands
-----------
verify          run every randomized law suite; exit 1 on any failure
analyze         redundancy report for a CSV signal, as key=value lines
encode          CSV signal or PGM image -> FSG1 container
decode          FSG1 container -> CSV or PGM (chosen by the output extension)
demo-prototype  worked unit-segment decomposition of 1,2,3,4,5
stats           sparsity/entropy metrics for a raw file vs its container,
                the container's size split by layout, and its records by
                arrow kind

The global ``--timings`` flag prints the wall time of each phase a command
runs to stderr as ``timing.<phase>_ms=`` lines, after the command's own
output: read, encode, container_write for encode; container_read, decode,
write for decode; read, container_read for stats; read, detect for analyze;
one phase per law suite, named by its function (suite_sigma_closure, ...),
for verify.

analyze finds exact arrows by lookups in an index of the earlier segments
at every tolerance; with ``--tol`` above 0, only a segment without one
scans every earlier segment, in time that grows with their count.

Each command imports only the layers it runs: encode, decode and stats load
the codec stack (``codec``, ``container``, ``formats``); analyze and
demo-prototype add ``signal``; verify imports ``laws``, and with it every
layer.

``main(argv)`` may be called repeatedly in one process: it builds its
parser once, on the first call, and every call parses into a fresh
namespace.

Exit codes: 0 success, 1 verification failure, 2 input or format error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import cache, partial
from math import gcd
from time import perf_counter

from . import codec
from .container import (KIND_NAMES, _write_container_file, container_layout,
                        read_container_file)
from .errors import SigrepError, _as_weight
from .formats import _write_pgm, read_csv_signal, read_pgm, write_csv_signal

_DETECTOR_ALIASES = {**{name: name for name in KIND_NAMES},
                     "amp": "amp_affine", "amp-affine": "amp_affine"}


def _parse_tol(text: str):
    """``--tol``: an exact rational >= 0, or 'inf'."""
    if text.strip().lower() in ("inf", "infinity"):
        return float("inf")
    try:
        return _as_weight(Fraction(text), "tolerances")
    except (ValueError, ZeroDivisionError):  # '-1', 'nan', '1/0'
        pass
    raise argparse.ArgumentTypeError(
        "takes an exact rational >= 0 (such as 0, 3/2 or 0.25) or inf, "
        f"not {text!r}")


def _parse_detectors(text: str):
    names = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in _DETECTOR_ALIASES:
            raise ValueError(f"unknown detector {tok!r} "
                             "(choose from translation, affine, amp)")
        name = _DETECTOR_ALIASES[tok]
        if name not in names:
            names.append(name)
    if not names:
        raise ValueError("no detectors selected")
    return tuple(names)


@contextmanager
def _phase(args, name: str):
    """Record the wall milliseconds of the ``with`` body as phase ``name``."""
    t0 = perf_counter()
    yield
    args.phase_ms[name] = (perf_counter() - t0) * 1e3


def _is_pgm(path: str) -> bool:
    return str(path).lower().endswith(".pgm")


def _read_raw(path: str):
    """Payload of a CSV signal or PGM image (by extension): (payload, origin)."""
    if _is_pgm(path):
        rows, _maxval = read_pgm(path)
        return rows, 0
    samples, origin = read_csv_signal(path)
    return samples, origin


def cmd_verify(args) -> int:
    from .laws import run_all
    if args.instances < 1:
        raise ValueError("--instances must be >= 1")
    failed = 0
    results = run_all(seed=args.seed, instances=args.instances,
                      phase=partial(_phase, args))
    for res in results:
        print(f"{res.name}: {res.checked} instances, "
              f"{len(res.failures)} failures")
        for msg in res.failures:
            print(f"    {msg}")
        failed += len(res.failures)
    print(f"total: {len(results)} suites, {failed} failures")
    return 1 if failed else 0


def cmd_analyze(args) -> int:
    from .signal import redundancy_report, segment_signal
    if args.segment_len < 1:
        raise ValueError("--segment-len must be >= 1")
    with _phase(args, "read"):
        samples, origin = read_csv_signal(args.input)
    step = args.segment_len
    breakpoints = list(range(origin + step, origin + len(samples), step))
    segments = segment_signal(samples, origin, breakpoints)
    detectors = _parse_detectors(args.detectors)
    with _phase(args, "detect"):
        report = redundancy_report(segments, tol=args.tol,
                                   detectors=detectors)

    lines = [f"signal.path={args.input}",
             f"signal.origin={origin}",
             f"signal.length={len(samples)}",
             f"segment.count={len(segments)}",
             f"tol={report.tol}",
             f"detectors={','.join(detectors)}"]
    for e in report.entries:
        n = e.target_index
        tgt = segments[n]
        lines += [f"entry.{n}.target=[{tgt.start},{tgt.end})",
                  f"entry.{n}.redundant={'true' if e.redundant else 'false'}"]
        if not e.redundant:
            continue
        src = segments[e.source_index]
        arr = e.arrow
        relation = ("observed isomorphism" if e.residual_sq == 0
                    else "within-tolerance match")
        lines += [f"entry.{n}.source=[{src.start},{src.end})",
                  f"entry.{n}.detector={e.detector}",
                  f"entry.{n}.relation={relation}",
                  f"entry.{n}.stride={arr.stride}",
                  f"entry.{n}.shift={arr.shift}",
                  f"entry.{n}.amp={arr.amp}",
                  f"entry.{n}.residual_sq={e.residual_sq}"]
    candidates = max(len(report.entries), 1)
    lines += [f"summary.redundant_count={report.redundant_count}",
              "summary.redundant_fraction="
              f"{Fraction(report.redundant_count, candidates)}"]
    print("\n".join(lines))
    return 0


def cmd_encode(args) -> int:
    with _phase(args, "read"):
        payload, origin = _read_raw(args.input)
    if not _is_pgm(args.input):
        # the FSG1 container stores 64-bit integers; refuse before encoding.
        # A CSV sample is an int or a Fraction, and gcd raises TypeError at
        # the first Fraction, in C; only then is the payload scanned
        try:
            gcd(*payload)
        except TypeError:
            rational = [v for v in payload if v.denominator != 1]
            if rational:
                raise ValueError("encode stores integer samples only; "
                                 f"{args.input} holds the rational sample "
                                 f"{rational[0]}") from None
    # read_pgm's rows hold ints, and a CSV payload that got past gcd ints or
    # integral Fractions, never a bool: the codec and packer cores skip the
    # public functions' sample rules
    with _phase(args, "encode"):
        enc = codec._encode(payload, args.policy, origin)
    del payload  # enc holds no reference to it: free it before packing
    with _phase(args, "container_write"):
        _write_container_file(args.output, enc)
    shape = "x".join(str(d) for d in enc.shape)
    print(f"wrote {args.output}: dimension={enc.dimension} shape={shape} "
          f"policy={enc.policy} records={len(enc.records)}")
    return 0


def cmd_decode(args) -> int:
    with _phase(args, "container_read"):
        enc = read_container_file(args.input)
    # the output kind is known from the header: refuse before decoding
    pgm = _is_pgm(args.output)
    if pgm and enc.dimension != 2:
        raise ValueError("PGM output needs a 2-D container; this one is 1-D")
    if not pgm and enc.dimension != 1:
        raise ValueError("CSV output needs a 1-D container; "
                         "name the output file *.pgm instead")
    with _phase(args, "decode"):
        payload = codec.decode(enc)
    with _phase(args, "write"):
        if pgm:  # decode returns no bool: the PGM core skips the type scan
            _write_pgm(args.output, payload)
        else:
            write_csv_signal(args.output, payload, origin=enc.origin)
    print(f"wrote {args.output}")
    return 0


def cmd_demo(args) -> int:
    from .signal import prototype_decomposition
    signal = [1, 2, 3, 4, 5]
    demo = prototype_decomposition(signal, origin=1)
    print(f"signal={','.join(str(v) for v in signal)}")
    print(f"origin={demo['origin']}")
    print(f"seed={demo['seed']}")
    for k, arr in enumerate(demo["arrows"], start=1):
        print(f"arrow.{k}: [{arr.source.start},{arr.source.end}) -> "
              f"[{arr.target.start},{arr.target.end}) S={arr.stride} "
              f"T={arr.shift} c={arr.amp} delta={arr.delta[0]}")
    print(f"first_deltas={','.join(str(d) for d in demo['first_deltas'])}")
    print(f"second_deltas={','.join(str(d) for d in demo['second_deltas'])}")
    print(f"reconstruction={','.join(str(v) for v in demo['reconstruction'])}")
    print(f"exact={'true' if demo['exact'] else 'false'}")
    return 0


def cmd_stats(args) -> int:
    with _phase(args, "read"):
        payload, _origin = _read_raw(args.raw)
    with _phase(args, "container_read"):
        enc = read_container_file(args.encoded)
    m = codec.metrics(payload, enc)
    print(f"nonzero_delta_fraction={m.nonzero_delta_fraction}")
    print(f"raw_entropy_bits_per_sample={m.raw_entropy:.6f}")
    print(f"delta_entropy_bits_per_sample={m.delta_entropy:.6f}")
    print(f"encoded_size_bytes={m.encoded_size}")
    for name, value in container_layout(enc)._asdict().items():
        print(f"{name}={value}")
    kinds = Counter(rec.kind for rec in enc.records)
    for kind, name in enumerate(KIND_NAMES):
        print(f"records.{name}={kinds[kind]}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sigrep`` parser, built on the first call.

    Every later call returns the same parser, which ``main`` shares across
    its calls: callers must not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="sigrep",
        description="Structure-arrow signal representation toolkit: "
                    "measure-space laws, segment arrows, lossless coding.")
    parser.add_argument("--timings", action="store_true",
                        help="print each phase's wall time to stderr as "
                             "timing.<phase>_ms= lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all randomized law suites")
    p.add_argument("--seed", type=int, default=0,
                   help="base RNG seed (default 0)")
    p.add_argument("--instances", type=int, default=25,
                   help="random instances per suite (default 25)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze",
                       help="redundancy report for a CSV signal")
    p.add_argument("input", help="CSV signal, one sample per line")
    p.add_argument("--segment-len", type=int, default=8, dest="segment_len",
                   help="segment length in samples (default 8)")
    p.add_argument("--tol", type=_parse_tol, default=Fraction(0),
                   help="residual l2-norm tolerance; exact rational or 'inf' "
                        "(default 0)")
    p.add_argument("--detectors", default="translation,affine,amp",
                   help="comma list of translation, affine, amp "
                        "(default: all three)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("encode",
                       help="encode a CSV signal or PGM image to a container")
    p.add_argument("input", help="*.pgm image or CSV signal")
    p.add_argument("-o", "--output", required=True, help="container file")
    p.add_argument("--policy", choices=codec.POLICIES,
                   default="predecessor",
                   help="predictor policy (default predecessor)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a container")
    p.add_argument("input", help="container file")
    p.add_argument("-o", "--output", required=True,
                   help="*.pgm for images, anything else is written as CSV")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("demo-prototype",
                       help="worked decomposition of the 1,2,3,4,5 signal")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("stats",
                       help="compare a raw file against its encoded container")
    p.add_argument("raw", help="original CSV signal or PGM image")
    p.add_argument("encoded", help="container produced by encode")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.phase_ms = {}
    try:
        return args.func(args)
    except (SigrepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.timings:
            for name, ms in args.phase_ms.items():
                print(f"timing.{name}_ms={ms:.3f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
