"""Backend registry resolution and fail-fast validation."""

from __future__ import annotations

import pytest

from repro.core.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    make_processor,
    processor_class,
    resolve_backend,
)
from repro.core.processor import Processor


def test_default_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend() == DEFAULT_BACKEND
    assert resolve_backend(None) == DEFAULT_BACKEND


def test_explicit_argument_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "vectorized")
    assert resolve_backend("reference") == "reference"


def test_env_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert resolve_backend() == "reference"
    monkeypatch.setenv("REPRO_BACKEND", "  Vectorized ")
    assert resolve_backend() == "vectorized"
    monkeypatch.setenv("REPRO_BACKEND", "")
    assert resolve_backend() == DEFAULT_BACKEND
    monkeypatch.setenv("REPRO_BACKEND", "   ")
    assert resolve_backend() == DEFAULT_BACKEND


def test_unknown_name_fails_fast_listing_valid():
    with pytest.raises(ValueError) as exc:
        resolve_backend("vectroized")
    msg = str(exc.value)
    assert "vectroized" in msg
    for name in BACKENDS:
        assert name in msg


def test_unknown_env_value_fails_fast_naming_source(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "numba")
    with pytest.raises(ValueError) as exc:
        resolve_backend()
    msg = str(exc.value)
    assert "REPRO_BACKEND" in msg
    assert "numba" in msg


def test_run_simulation_rejects_unknown_backend(config, ilp_trace, ilp_trace_b):
    from repro.core.simulator import run_simulation

    with pytest.raises(ValueError, match="valid backends"):
        run_simulation(config, "icount", [ilp_trace, ilp_trace_b], backend="nope")


def test_processor_classes():
    from repro.core.vectorized import VectorizedProcessor

    assert processor_class("reference") is Processor
    assert processor_class("vectorized") is VectorizedProcessor
    assert issubclass(VectorizedProcessor, Processor)


def test_registry_shape():
    """One oracle, one pure fallback, one compiled engine (the default),
    which falls back onto the pure engine it subclasses."""
    from repro.core.cloop import CloopProcessor
    from repro.core.vectorized import VectorizedProcessor

    assert BACKENDS == ("reference", "vectorized", "cloop")
    assert DEFAULT_BACKEND == "cloop"
    assert processor_class("cloop") is CloopProcessor
    assert CloopProcessor.__mro__[1] is VectorizedProcessor


def test_make_processor_resolves_env(monkeypatch, config, ilp_trace, ilp_trace_b):
    from repro.policies import make_policy

    monkeypatch.setenv("REPRO_BACKEND", "reference")
    proc = make_processor(None, config, make_policy("icount"),
                          [ilp_trace, ilp_trace_b])
    assert type(proc) is Processor
