"""Output oracles that share nothing with the kernels under test.

:class:`ReferencePlan` rebuilds the ordered matrix a plan must hold
with plain numpy/scipy indexing: a fresh trace of the geometry, checked
ray by ray against the analytic chord length through the grid, then
rows taken in sinogram-ordering order, columns in tomogram-ordering
order, and each row sorted.  Every plan the benchmark meets must equal
it bit for bit.  The benchmark's sinograms are simulated with scipy on
this matrix, and :func:`cgls_reference` solves with it, so a plan that
is wrong in a repeatable way cannot agree with the oracle by sharing
its error with the data.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def chord_lengths(geometry) -> np.ndarray:
    """Length of every ray of a parallel-beam scan inside the grid square.

    Ray ``(m, k)`` passes through ``s_k (cos t_m, sin t_m)`` along
    ``(-sin t_m, cos t_m)``; the slab method clips it to the square.
    """
    theta = geometry.angles()[:, None]
    s = geometry.channel_offsets()[None, :]
    origin = (s * np.cos(theta), s * np.sin(theta))
    direction = (-np.sin(theta), np.cos(theta))
    half = geometry.grid.half_extent
    lo = np.full(origin[0].shape, -np.inf)
    hi = np.full(origin[0].shape, np.inf)
    for o, d in zip(origin, direction):
        d = np.broadcast_to(d, o.shape)
        along = np.abs(d) > 1e-12
        safe = np.where(along, d, 1.0)
        t1, t2 = (-half - o) / safe, (half - o) / safe
        inside = np.abs(o) <= half
        lo = np.maximum(lo, np.where(along, np.minimum(t1, t2),
                                     np.where(inside, -np.inf, np.inf)))
        hi = np.minimum(hi, np.where(along, np.maximum(t1, t2),
                                     np.where(inside, np.inf, -np.inf)))
    return np.clip(hi - lo, 0.0, None).ravel()


def _is_permutation(index: np.ndarray) -> bool:
    return np.array_equal(np.sort(index), np.arange(index.size))


class ReferencePlan:
    """The ordered matrix of a geometry, built without the program's sparse code.

    ``op`` supplies only the two domain orderings (a layout choice,
    checked to be permutations); everything else is rebuilt here.  When
    the trace misses a chord or an ordering is no permutation, ``valid``
    is False and no plan matches.
    """

    #: Allowed distance of a ray's traced length from its chord, in
    #: pixels: far below one dropped or doubled segment.
    CHORD_TOLERANCE = 1e-3

    def __init__(self, geometry, op):
        from repro.trace import build_projection_matrix

        raw = sp.csr_matrix(build_projection_matrix(geometry))
        raw.sum_duplicates()
        traced = np.asarray(raw.astype(np.float64).sum(axis=1)).ravel()
        self.chord_error = float(np.max(np.abs(traced - chord_lengths(geometry))))
        # rows[k] is the natural ray at ordered row k; cols[j] the
        # natural pixel at ordered column j.
        self.rows = np.asarray(op.sino_ordering.perm, dtype=np.int64)
        rank = np.asarray(op.tomo_ordering.rank, dtype=np.int64)
        self.cols = np.argsort(rank)
        self.valid = (
            self.chord_error <= self.CHORD_TOLERANCE * geometry.grid.pixel_size
            and _is_permutation(self.rows) and _is_permutation(rank)
        )
        self.shape = geometry.sinogram_shape
        self.image_shape = geometry.grid.shape
        matrix = raw[self.rows][:, self.cols].tocsr()
        matrix.sort_indices()
        self.matrix = matrix
        transpose = matrix.T.tocsr()
        transpose.sort_indices()
        self.transpose = transpose

    def matches(self, op) -> bool:
        """True when ``op`` holds exactly this matrix and its transpose."""
        return (self.valid
                and _same(op.matrix.to_scipy(), self.matrix)
                and _same(op.transpose.to_scipy(), self.transpose))

    def image_to_ordered(self, image: np.ndarray) -> np.ndarray:
        return np.asarray(image).reshape(-1)[self.cols]

    def ordered_to_image(self, x: np.ndarray) -> np.ndarray:
        image = np.empty(x.shape[0], dtype=x.dtype)
        image[self.cols] = x
        return image.reshape(self.image_shape)

    def sinogram_to_ordered(self, sinogram: np.ndarray) -> np.ndarray:
        return np.asarray(sinogram).reshape(-1)[self.rows]

    def project(self, image: np.ndarray) -> np.ndarray:
        """Ordered float64 measurements of a row-major image."""
        x = self.image_to_ordered(np.asarray(image, dtype=np.float64))
        return np.asarray(self.matrix @ x, dtype=np.float64)

    def project_sinogram(self, image: np.ndarray) -> np.ndarray:
        """Row-major ``(M, N)`` float64 sinogram of a row-major image."""
        sinogram = np.empty(self.rows.size)
        sinogram[self.rows] = self.project(image)
        return sinogram.reshape(self.shape)

    def cgls_image(self, y: np.ndarray, iterations: int) -> np.ndarray:
        """Row-major image of :func:`cgls_reference` on ordered data ``y``."""
        return self.ordered_to_image(cgls_reference(self.matrix, y, iterations))


def _same(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    return (a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and a.data.dtype == b.data.dtype
            and np.array_equal(a.data, b.data))


def cgls_reference(A: sp.csr_matrix, y: np.ndarray, iterations: int) -> np.ndarray:
    """CGLS through scipy's CSR SpMV on the reference matrix.

    Like the operator, it rounds each SpMV input to the matrix's value
    dtype and keeps the solver state in float64, so it differs from a
    correct program only in the order each row is summed.
    """
    AT = A.T.tocsr()

    def forward(v):
        return (A @ v.astype(A.dtype)).astype(np.float64)

    def adjoint(v):
        return (AT @ v.astype(A.dtype)).astype(np.float64)

    x = np.zeros(A.shape[1])
    r = np.asarray(y, dtype=np.float64).copy()
    s = adjoint(r)
    p = s.copy()
    gamma = float(s @ s)
    for _ in range(iterations):
        if gamma == 0.0:
            break
        q = forward(p)
        qq = float(q @ q)
        if qq == 0.0:
            break
        alpha = gamma / qq
        x += alpha * p
        r -= alpha * q
        s = adjoint(r)
        gamma_new = float(s @ s)
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return x
