"""The public API: one name per operation."""

import pytest

import sigrep
from sigrep import fnspace, measure, signal


def test_every_exported_name_resolves_once():
    assert len(sigrep.__all__) == len(set(sigrep.__all__))
    for name in sigrep.__all__:
        assert hasattr(sigrep, name), name


@pytest.mark.parametrize("module, name", [
    (sigrep, "transfer"),           # SegmentArrow.predict
    (signal, "transfer"),
    (sigrep, "amplitude_op"),       # scale
    (fnspace, "amplitude_op"),
    (fnspace, "add"),               # f + g
    (fnspace, "PullbackOperator"),  # pullback
    (sigrep, "classify_map"),       # MeasurableMap.flags
    (measure, "classify_map"),
    (sigrep, "null_ideal"),         # FiniteMeasureSpace.null_ideal()
    (measure, "null_ideal"),
])
def test_deleted_aliases_are_gone(module, name):
    assert not hasattr(module, name)
    assert name not in sigrep.__all__
