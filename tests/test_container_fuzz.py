"""Fuzzing the strict reader: damaged containers fail only in the documented ways.

Valid containers -- run layout and one record per sample, predecessor and
detected policy, 1-D and 2-D -- are truncated, spliced and byte-mutated with a
fixed-seed ``random.Random``.  ``read_container`` followed by ``decode`` must
either succeed or raise ``CorruptContainer`` / ``PolicyMismatch``, and every
damaged container that reads must rewrite to the same bytes: the reader takes
no field, the kind byte included, that the writer would not write.
"""

import random
import struct

from sigrep import (CorruptContainer, PolicyMismatch, decode, encode,
                    read_container, write_container)

MUTATIONS_PER_BASE = 1500
# 64-bit values that hit the reader's bounds and the decoder's index checks
EDGE_Q = (0, 1, 2, 3, -1, -2, -3, 7, 8, 41, 1 << 31, (1 << 63) - 1, -(1 << 63))


def _per_sample(enc):
    return enc._replace(records=tuple(rec._replace(delta=(d,))
                                      for rec in enc.records
                                      for d in rec.delta))


def _bases(rng):
    sig = [rng.randint(-50, 50) for _ in range(12)]
    rows = [[rng.randint(0, 255) for _ in range(4)] for _ in range(3)]
    runs_1d = encode(sig, origin=rng.randint(-3, 3))
    runs_2d = encode(rows)
    detected = encode(sig[:8], policy="detected", origin=2)
    bases = {
        "1-D predecessor runs": runs_1d,
        "1-D predecessor per sample": _per_sample(runs_1d),
        "1-D detected per sample": detected,
        "1-D detected runs": runs_1d._replace(policy="detected"),
        "2-D predecessor runs": runs_2d,
        "2-D predecessor per sample": _per_sample(runs_2d),
        "2-D detected runs": runs_2d._replace(policy="detected"),
        "2-D detected per sample": _per_sample(runs_2d)._replace(policy="detected"),
    }
    for name, enc in bases.items():  # every base is itself valid
        decode(read_container(write_container(enc)))
    return {name: write_container(enc) for name, enc in bases.items()}


def _mutate(rng, blob: bytes) -> bytes:
    data = bytearray(blob)
    op = rng.randrange(5)
    if op == 0:    # truncate
        return bytes(data[:rng.randrange(len(data))])
    if op == 1:    # overwrite a few random bytes
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    elif op == 2:  # overwrite one 64-bit field with an edge value
        off = rng.randrange(len(data) - 7)
        data[off:off + 8] = struct.pack("<q", rng.choice(EDGE_Q))
    elif op == 3:  # delete a run of bytes
        off = rng.randrange(len(data))
        del data[off:off + rng.randint(1, 16)]
    else:          # insert random bytes
        off = rng.randrange(len(data) + 1)
        data[off:off] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 16)))
    return bytes(data)


def test_damaged_containers_raise_only_documented_errors():
    rng = random.Random(20240917)
    escaped, rewritten = [], []
    for name, blob in _bases(rng).items():
        for _ in range(MUTATIONS_PER_BASE):
            damaged = _mutate(rng, blob)
            try:
                enc = read_container(damaged)
                if write_container(enc) != damaged:
                    rewritten.append(f"{name}: {damaged.hex()}")
                decode(enc)
            except (CorruptContainer, PolicyMismatch):
                pass
            except Exception as exc:  # noqa: BLE001 -- collected and reported
                escaped.append(f"{name}: {type(exc).__name__}: {exc} "
                               f"on {damaged.hex()}")
    assert not escaped, escaped[:5]
    assert not rewritten, rewritten[:5]
