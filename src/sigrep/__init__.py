"""Finite-scale signal representation toolkit.

Finite measure spaces and their sigma-algebras, measure-algebra quotients
with Boolean homomorphisms, exact function-class spaces with pullback /
covariant operators and the duality bridge between them, partial injections,
segment arrows with redundancy detection, and a lossless differential codec
with an exact binary container.

Everything is computed exactly (ints and fractions); randomized law suites
live in :mod:`sigrep.laws` and behind ``sigrep verify``.
"""

from .errors import (BadBreakpoints, CorruptContainer, DegenerateMeasure,
                     EmptySignal, IntervalMismatch, MapNotTotal,
                     NonConstantOnAtom, NotADirectSum, NotHom, NotIMP,
                     NotNonsingular, PolicyMismatch, SigrepError,
                     SpaceMismatch)
from .measure import (INFINITY, FiniteCarrier, FiniteMeasureSpace,
                      MeasurableMap, SigmaAlgebra, atoms, compose_maps,
                      counting_space, direct_sum, generate_sigma_algebra,
                      identity_map, power_set_algebra)
from .quotient import (BooleanAlgebra, BooleanHom, HomLawReport,
                       MeasureAlgebra, check_hom_laws, compose_homs,
                       identity_hom, induced_hom, quotient_measure_algebra)
from .fnspace import (DualElement, FnClass, canonical_class, covariant_l2_op,
                      covariant_op, dual_norm2_sq, duality_bridge,
                      duality_bridge_inverse, indicator, inf, inner,
                      join_direct_sum, leq_ae, norm2_sq, pullback, scale,
                      split_direct_sum, sup)
from .partial import (PartialInjection, compose, dagger, identity_injection,
                      l2_partial, restriction)
from .signal import (RedundancyEntry, RedundancyReport, Segment,
                     SegmentArrow, compose_arrows, delta, detect_affine,
                     detect_amp_affine, detect_translation, identity_arrow,
                     prototype_decomposition, redundancy_report,
                     segment_signal)
from .container import (ArrowRecord, EncodedSignal, read_container,
                        read_container_file, write_container,
                        write_container_file)
from .formats import (read_csv_signal, read_pgm, write_csv_signal, write_pgm)
from .codec import Metrics, decode, encode, metrics, zeroth_order_entropy
from .laws import ALL_SUITES, LawResult, run_all

__version__ = "0.1.0"

__all__ = [
    "ALL_SUITES", "ArrowRecord", "BadBreakpoints", "BooleanAlgebra",
    "BooleanHom", "CorruptContainer", "DegenerateMeasure", "DualElement",
    "EmptySignal", "EncodedSignal", "FiniteCarrier", "FiniteMeasureSpace",
    "FnClass", "HomLawReport", "INFINITY",
    "IntervalMismatch", "LawResult", "MapNotTotal", "MeasurableMap",
    "MeasureAlgebra", "Metrics", "NonConstantOnAtom", "NotADirectSum",
    "NotHom", "NotIMP", "NotNonsingular", "PartialInjection", "PolicyMismatch",
    "RedundancyEntry", "RedundancyReport", "Segment", "SegmentArrow",
    "SigmaAlgebra", "SigrepError", "SpaceMismatch", "atoms", "canonical_class",
    "check_hom_laws", "compose", "compose_arrows", "compose_homs",
    "compose_maps", "counting_space", "covariant_l2_op", "covariant_op",
    "dagger", "decode", "delta", "detect_affine", "detect_amp_affine",
    "detect_translation", "direct_sum", "dual_norm2_sq", "duality_bridge",
    "duality_bridge_inverse", "encode", "generate_sigma_algebra",
    "identity_arrow", "identity_hom", "identity_injection", "identity_map",
    "indicator", "inf", "inner", "induced_hom", "join_direct_sum",
    "l2_partial", "leq_ae", "metrics", "norm2_sq",
    "power_set_algebra", "prototype_decomposition", "pullback",
    "quotient_measure_algebra", "read_container", "read_container_file",
    "read_csv_signal", "read_pgm", "redundancy_report", "restriction",
    "run_all", "scale", "segment_signal", "split_direct_sum", "sup",
    "write_container", "write_container_file", "write_csv_signal", "write_pgm",
    "zeroth_order_entropy",
]
