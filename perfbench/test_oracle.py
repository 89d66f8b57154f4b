"""Tests of the output oracle.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import ReferencePlan, chord_lengths  # noqa: E402


@pytest.fixture(scope="module")
def plan():
    from repro.core import OperatorConfig, preprocess
    from repro.geometry import ParallelBeamGeometry

    geometry = ParallelBeamGeometry(16, 16)
    op, _ = preprocess(geometry, config=OperatorConfig(kernel="ell"))
    return geometry, op, ReferencePlan(geometry, op)


def test_chords_of_axis_aligned_rays_span_the_grid():
    from repro.geometry import ParallelBeamGeometry

    geometry = ParallelBeamGeometry(4, 8)
    chords = chord_lengths(geometry).reshape(4, 8)
    # At 0 and 90 degrees every channel crosses the full 8-pixel width.
    assert np.allclose(chords[0], 8.0)
    assert np.allclose(chords[2], 8.0)


def test_correct_plan_matches_and_projects_like_the_operator(plan):
    geometry, op, reference = plan
    assert reference.valid
    assert reference.matches(op)
    image = np.random.default_rng(0).random(geometry.grid.shape)
    assert np.allclose(reference.project_sinogram(image),
                       op.project_image(image), rtol=1e-5, atol=1e-5)
    x = reference.image_to_ordered(image)
    assert np.array_equal(reference.ordered_to_image(x), image)


def test_a_changed_value_or_dropped_entry_does_not_match(plan):
    from repro.sparse import CSRMatrix

    geometry, op, reference = plan

    class Changed:
        transpose = op.transpose

        def __init__(self, matrix):
            self.matrix = CSRMatrix.from_scipy(matrix)

    scaled = op.matrix.to_scipy().copy()
    scaled.data[7] *= 1.001
    assert not reference.matches(Changed(scaled))
    dropped = op.matrix.to_scipy().copy()
    dropped.data[7] = 0.0
    dropped.eliminate_zeros()
    assert not reference.matches(Changed(dropped))
    assert reference.matches(Changed(op.matrix.to_scipy()))
