"""Finite-scale signal representation toolkit.

Finite measure spaces and their sigma-algebras, measure-algebra quotients
with Boolean homomorphisms, exact function-class spaces with pullback /
covariant operators and the duality bridge between them, partial injections,
segment arrows with redundancy detection, and a lossless differential codec
with an exact binary container.

Everything is computed exactly (ints and fractions); randomized law suites
live in :mod:`sigrep.laws` and behind ``sigrep verify``.

Importing the package loads none of its modules: each exported name is
imported from its home module on first access (PEP 562), so a program loads
only the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "errors": ("BadBreakpoints", "CorruptContainer", "DegenerateMeasure",
               "EmptySignal", "INFINITY", "IntervalMismatch", "MapNotTotal",
               "NonConstantOnAtom", "NotADirectSum", "NotHom", "NotIMP",
               "NotNonsingular", "PolicyMismatch", "SigrepError",
               "SpaceMismatch"),
    "measure": ("FiniteCarrier", "FiniteMeasureSpace",
                "MeasurableMap", "SigmaAlgebra", "atoms", "compose_maps",
                "counting_space", "direct_sum", "generate_sigma_algebra",
                "identity_map", "power_set_algebra"),
    "quotient": ("BooleanAlgebra", "BooleanHom", "HomLawReport",
                 "MeasureAlgebra", "check_hom_laws", "compose_homs",
                 "identity_hom", "induced_hom", "quotient_measure_algebra"),
    "fnspace": ("DualElement", "FnClass", "canonical_class", "covariant_l2_op",
                "covariant_op", "dual_norm2_sq", "duality_bridge",
                "duality_bridge_inverse", "indicator", "inf", "inner",
                "join_direct_sum", "leq_ae", "norm2_sq", "pullback", "scale",
                "split_direct_sum", "sup"),
    "partial": ("PartialInjection", "compose", "dagger", "identity_injection",
                "l2_partial", "restriction"),
    "signal": ("RedundancyEntry", "RedundancyReport", "Segment",
               "SegmentArrow", "compose_arrows", "delta", "detect_affine",
               "detect_amp_affine", "detect_translation", "identity_arrow",
               "prototype_decomposition", "redundancy_report",
               "segment_signal"),
    "container": ("ArrowRecord", "EncodedSignal", "read_container",
                  "read_container_file", "write_container",
                  "write_container_file"),
    "formats": ("read_csv_signal", "read_pgm", "write_csv_signal", "write_pgm"),
    "codec": ("Metrics", "decode", "encode", "metrics",
              "zeroth_order_entropy"),
    "laws": ("ALL_SUITES", "LawResult", "run_all"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
