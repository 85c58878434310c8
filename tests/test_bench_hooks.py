"""The benchmark's traced run patches sasfork by attribute name.

``bench/tracing.py`` wraps each ``(owner, attr)`` it lists by looking the
attribute up in ``owner.__dict__``; a renamed or moved function would
only break the traced benchmark run.  This test makes it break here.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def hooks(tracing):
    return [(owner, attr) for owner, attr, _ in tracing._SPANS + tracing._COUNTS]


def test_every_patched_attribute_exists_on_its_owner(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in hooks(tracing)
        if attr not in vars(owner)
    ]
    assert not missing, f"benchmark hooks name missing attributes: {missing}"


def test_every_patched_attribute_is_callable(tracing):
    assert all(callable(vars(owner)[attr]) for owner, attr in hooks(tracing))
