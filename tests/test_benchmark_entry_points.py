"""The repository benchmark traces the program from outside.

``perfbench/layers.py`` patches named entry points (the SpMV dispatch
``repro.parallel.spmv._kernel_call``, ``ParallelSpmvEngine.apply``, the
operator's four products, ``repro.core.preprocess.build_ell`` and more)
where their callers look them up.  Renaming one would make a traced
run fail.  This test installs every patch on the current program and
puts the originals back, so a rename fails here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("layers", "tracer"):
        sys.modules.pop(name, None)


def test_every_traced_entry_point_exists(perfbench_modules):
    from layers import Layers
    from tracer import Tracer

    from repro.core import MemXCTOperator
    from repro.parallel import spmv

    kernel_call = spmv._kernel_call
    forward = MemXCTOperator.forward
    with Tracer("entry-points") as tracer:
        Layers(tracer).install()
        assert spmv._kernel_call is not kernel_call
    assert spmv._kernel_call is kernel_call
    assert MemXCTOperator.forward is forward
