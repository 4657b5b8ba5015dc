"""Outside-in tracing of sigrep: wrap each layer's public functions in spans.

Nothing in the program changes.  ``Tracer.install`` replaces every public
function of each layer module with a wrapper, on every ``sigrep`` module
that binds it by name (``cli`` imports the formats and container functions
by name, ``codec`` the detectors, ``laws`` most layers), and swaps the
suites in ``laws.ALL_SUITES``, which ``run_all`` iterates.  A few methods
named by the per-layer metrics are wrapped on their classes.
``Tracer.uninstall`` puts every original back.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``; spans stay in
memory until ``dump`` writes them out.  A span's self time is its duration
minus the durations of its direct children (calls are nested, single
threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List

LAYERS = ("cli", "formats", "codec", "container", "signal", "measure",
          "quotient", "fnspace", "partial", "laws")

# cli's other functions are the steps of ``main`` (argparse, dispatch,
# printing), which ``cli.main.self_ms`` is meant to cover.
ONLY = {"cli": ("main",)}

# Methods wrapped on their class: (class, attribute); a class name alone
# wraps construction (``__init__``).
METHODS = {
    "measure": (("MeasurableMap", "flags"), ("FiniteMeasureSpace", "null_mask")),
    "quotient": (("MeasureAlgebra", None), ("BooleanHom", "is_hom")),
}

DETECTORS = ("detect_translation", "detect_affine", "detect_amp_affine")


def _is_predecessor(rec, width: int) -> bool:
    return (rec.kind == 0 and rec.stride == 1 and rec.amp_num == rec.amp_den
            and rec.shift in (-1, -width))


def _on_encode(counts, args, enc):
    width = enc.shape[1] if enc.dimension == 2 else 1
    counts["codec.records"] += len(enc.records)
    counts["codec.non_predecessor_records"] += sum(
        1 for rec in enc.records if not _is_predecessor(rec, width))
    if enc.policy == "detected":
        counts["signal.segments"] += enc.total_samples


def _on_write_container(counts, args, blob):
    enc = args[0]
    counts["container.samples"] += enc.total_samples
    counts["container.records"] += len(enc.records)
    counts["container.deltas"] += sum(len(r.delta) for r in enc.records)
    counts["container.bytes"] += len(blob)


def _on_detector(counts, args, arrow):
    counts["signal.detector_calls"] += 1
    counts["signal.detector_hits"] += arrow is not None


def _on_report(counts, args, report):
    counts["signal.segments"] += report.segment_count


def _on_sigma(counts, args, sigma):
    counts["measure.sigma_members_total"] += len(sigma)


# Counts taken from a wrapped call's arguments and result.
HOOKS: Dict[str, Callable] = {
    "codec.encode": _on_encode,
    "container.write_container": _on_write_container,
    "signal.redundancy_report": _on_report,
    "measure.generate_sigma_algebra": _on_sigma,
    **{f"signal.{d}": _on_detector for d in DETECTORS},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ratios(counts: Counter) -> Dict[str, float]:
    """The per-layer ratios, from the counts of one traced repetition."""
    c = counts
    return {
        "codec.non_predecessor_fraction":
            _ratio(c["codec.non_predecessor_records"], c["codec.records"]),
        "container.records_per_sample":
            _ratio(c["container.records"], c["container.samples"]),
        "container.deltas_per_record":
            _ratio(c["container.deltas"], c["container.records"]),
        "container.bytes_per_sample":
            _ratio(c["container.bytes"], c["container.samples"]),
        "signal.detector_calls_per_segment":
            _ratio(c["signal.detector_calls"], c["signal.segments"]),
        "signal.detector_hit_ratio":
            _ratio(c["signal.detector_hits"], c["signal.detector_calls"]),
        "measure.sigma_members":
            _ratio(c["measure.sigma_members_total"],
                   c["measure.generate_sigma_algebra.calls"]),
    }


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._patches = []  # (owner, attribute, original)

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1,
                    self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{layer}.raised"] += 1
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _targets(self):
        """(span name, original callable) for every function to wrap."""
        for layer in LAYERS:
            mod = importlib.import_module(f"sigrep.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer in ONLY and attr not in ONLY[layer]:
                    continue
                yield f"{layer}.{attr}", obj

    def install(self) -> None:
        wrappers = {}
        for name, fn in self._targets():
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "sigrep" and not modname.startswith("sigrep."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)][1])
        laws = sys.modules["sigrep.laws"]
        self._patch(laws, "ALL_SUITES", tuple(
            wrappers[id(fn)][1] for fn in laws.ALL_SUITES))
        for layer, members in METHODS.items():
            mod = sys.modules[f"sigrep.{layer}"]
            for cls_name, attr in members:
                cls = getattr(mod, cls_name)
                if attr is None:
                    self._patch(cls, "__init__", self._wrap(
                        f"{layer}.{cls_name}", cls.__init__))
                else:
                    prop = cls.__dict__[attr]
                    self._patch(cls, attr, property(self._wrap(
                        f"{layer}.{cls_name}.{attr}", prop.fget)))

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- results

    def trace(self, fn: Callable[[], object]) -> Dict[str, float]:
        """Call ``fn`` with the wrappers installed; return the per-name calls
        and self times of the spans it recorded, with its counts and ratios."""
        first, before = len(self.spans), Counter(self.counts)
        self.install()
        try:
            fn()
        finally:
            self.uninstall()
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= first:
                child_ns[span[3] - first] += span[2] - span[1]
        out: Counter = Counter()
        for span, child in zip(spans, child_ns):
            out[f"{span[0]}.calls"] += 1
            out[f"{span[0]}.self_ms"] += (span[2] - span[1] - child) / 1e6
        out.update(self.counts - before)
        out["trace.spans_per_rep"] = len(spans)
        return {**out, **ratios(out)}

    def dump(self, path) -> None:
        """Write the spans as gzip'd JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
