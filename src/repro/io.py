"""Saving and loading preprocessed operators.

Preprocessing is the expensive step (paper Table 4/5); persisting its
product lets a beamline workflow preprocess once per scan geometry and
reconstruct thousands of slices across separate processes.

Format **v2** stores *all four* preprocessing products in one ``.npz``:
the geometry, both orderings, the ordered matrix, the scan-based
transpose, and the buffered / ELL kernel layouts — so a load skips
every preprocessing stage, not just tracing.  Format v1 files (matrix
only; transpose and layouts rebuilt on load) are still readable.

Writes are crash-safe: the archive is written to a temporary file in
the destination directory, fsynced, and atomically renamed into place,
so a crashed or killed writer can never leave a half-written operator
under the final name.  Every v2 file embeds a CRC-32 checksum over all
payload arrays which is verified on load; a flipped bit surfaces as
:class:`OperatorIntegrityError` instead of silently corrupt physics.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import MemXCTOperator, OperatorConfig
from .geometry import ConeBeamGeometry, Grid2D, Grid3D, ParallelBeamGeometry
from .ordering import DomainOrdering
from .persist import atomic_savez as _atomic_savez
from .persist import payload_checksum as _payload_checksum
from .sparse import (
    BufferedMatrix,
    CSRMatrix,
    ELLPartitioned,
    RowPartitions,
    build_buffered,
    build_ell,
    scan_transpose,
)

__all__ = [
    "save_operator",
    "load_operator",
    "FORMAT_VERSION",
    "OperatorFormatError",
    "OperatorIntegrityError",
]

FORMAT_VERSION = 2

#: Versions this loader understands.
_READABLE_VERSIONS = (1, 2)


class OperatorFormatError(ValueError):
    """The file is a valid archive but not a format we can interpret."""


class OperatorIntegrityError(ValueError):
    """The file is unreadable, truncated, or fails its checksum."""


# The checksum / atomic-write primitives live in repro.persist so the
# operator format, the plan cache, and solver checkpoints share one
# hardened path (imported above as _payload_checksum / _atomic_savez).


# -- layout <-> array helpers ----------------------------------------------


def _buffered_payload(prefix: str, layout: BufferedMatrix) -> dict:
    return {
        f"{prefix}buffer_elements": layout.buffer_elements,
        f"{prefix}partdispl": layout.partdispl,
        f"{prefix}stagedispl": layout.stagedispl,
        f"{prefix}map": layout.map,
        f"{prefix}displ": layout.displ,
        f"{prefix}ind": layout.ind,
        f"{prefix}val": layout.val,
    }


def _buffered_from_payload(
    data, prefix: str, num_rows: int, partition_size: int, num_cols: int
) -> BufferedMatrix:
    return BufferedMatrix(
        partitions=RowPartitions(num_rows, partition_size),
        buffer_elements=int(data[f"{prefix}buffer_elements"]),
        partdispl=data[f"{prefix}partdispl"],
        stagedispl=data[f"{prefix}stagedispl"],
        map=data[f"{prefix}map"],
        displ=data[f"{prefix}displ"],
        ind=data[f"{prefix}ind"],
        val=data[f"{prefix}val"],
        num_cols=num_cols,
    )


def _ell_payload(prefix: str, layout: ELLPartitioned) -> dict:
    """Flatten the per-partition slabs into one pair of arrays."""
    flat_ind = (
        np.concatenate([slab.ravel() for slab in layout.ind_slabs])
        if layout.ind_slabs
        else np.empty(0, dtype=np.int32)
    )
    flat_val = (
        np.concatenate([slab.ravel() for slab in layout.val_slabs])
        if layout.val_slabs
        else np.empty(0, dtype=np.float32)
    )
    # flat_val keeps the slabs' own dtype: an fp64 operator's ELL
    # layout must not be silently rounded to float32 on save.
    return {
        f"{prefix}widths": layout.widths,
        f"{prefix}ind": flat_ind.astype(np.int32),
        f"{prefix}val": flat_val,
    }


def _ell_from_payload(
    data, prefix: str, rows: CSRMatrix, columns: CSRMatrix, partition_size: int
) -> ELLPartitioned:
    parts = RowPartitions(rows.num_rows, partition_size)
    widths = np.asarray(data[f"{prefix}widths"], dtype=np.int64)
    flat_ind = data[f"{prefix}ind"]
    flat_val = data[f"{prefix}val"]
    ind_slabs: list[np.ndarray] = []
    val_slabs: list[np.ndarray] = []
    offset = 0
    for part in range(parts.num_partitions):
        start, stop = parts.bounds(part)
        nrows = stop - start
        width = int(widths[part])
        size = width * nrows
        ind_slabs.append(flat_ind[offset : offset + size].reshape(width, nrows))
        val_slabs.append(flat_val[offset : offset + size].reshape(width, nrows))
        offset += size
    return ELLPartitioned(
        partitions=parts,
        widths=widths,
        ind_slabs=ind_slabs,
        val_slabs=val_slabs,
        num_cols=rows.num_cols,
        csr=rows,
        columns=columns,
    )


# -- save -------------------------------------------------------------------


def save_operator(
    path: str | Path, operator: MemXCTOperator, compress: bool = True
) -> Path:
    """Serialize a preprocessed operator to ``path`` (.npz), atomically.

    ``compress=False`` trades ~2x file size for much faster writes and
    loads (no zlib on the multi-hundred-MB streams) — what the plan
    cache uses, since its entries exist purely to be loaded fast.

    Returns the path actually written (``.npz`` appended when missing,
    matching ``np.savez`` conventions).
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    g = operator.geometry
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "num_angles": g.num_angles,
        "num_channels": g.num_channels,
        "angle_range": g.angle_range,
        "pixel_size": g.grid.pixel_size,
        "grid_n": g.grid.n,
        "tomo_name": operator.tomo_ordering.name,
        "tomo_perm": operator.tomo_ordering.perm,
        "sino_name": operator.sino_ordering.name,
        "sino_perm": operator.sino_ordering.perm,
        "displ": operator.matrix.displ,
        "ind": operator.matrix.ind,
        "val": operator.matrix.val,
        "t_displ": operator.transpose.displ,
        "t_ind": operator.transpose.ind,
        "t_val": operator.transpose.val,
        "kernel": operator.config.kernel,
        "partition_size": operator.config.partition_size,
        "buffer_bytes": operator.config.buffer_bytes,
        # Empty string encodes "no explicit dtype" (npz has no None);
        # files written before the dtype path simply lack the key.
        "dtype": operator.config.dtype or "",
    }
    if isinstance(g, ConeBeamGeometry):
        # Optional keys only — parallel-beam files are byte-compatible
        # with every pre-cone reader, so no format bump is needed.
        payload.update(
            {
                "geometry_kind": "cone",
                "det_rows": g.det_rows,
                "det_cols": g.det_cols,
                "source_distance": g.source_distance,
                "detector_distance": g.detector_distance,
                "det_spacing": g.det_spacing,
                "grid_nz": g.grid.nz,
            }
        )
    if operator.buffered_forward is not None:
        payload.update(_buffered_payload("bf_", operator.buffered_forward))
    if operator.buffered_adjoint is not None:
        payload.update(_buffered_payload("ba_", operator.buffered_adjoint))
    if operator.ell_forward is not None:
        payload.update(_ell_payload("ef_", operator.ell_forward))
    if operator.ell_adjoint is not None:
        payload.update(_ell_payload("ea_", operator.ell_adjoint))
    payload["checksum"] = np.uint32(_payload_checksum(payload))
    _atomic_savez(path, payload, compress)
    return path


# -- load -------------------------------------------------------------------


def _ordering_from_arrays(name: str, rows: int, cols: int, perm: np.ndarray) -> DomainOrdering:
    rank = np.empty_like(perm)
    rank[perm] = np.arange(perm.shape[0], dtype=np.int64)
    return DomainOrdering(str(name), rows, cols, perm.astype(np.int64), rank)


def _operator_from_npz(data) -> MemXCTOperator:
    version = int(data["format_version"])
    if version not in _READABLE_VERSIONS:
        raise OperatorFormatError(
            f"unsupported operator file version {version} "
            f"(expected one of {_READABLE_VERSIONS})"
        )
    if version >= 2:
        stored = int(data["checksum"])
        actual = _payload_checksum(data)
        if actual != stored:
            raise OperatorIntegrityError(
                f"operator file checksum mismatch "
                f"(stored {stored:#010x}, computed {actual:#010x})"
            )

    kind = str(data["geometry_kind"][()]) if "geometry_kind" in data else "parallel"
    if kind == "cone":
        grid = Grid3D(
            int(data["grid_n"]), int(data["grid_nz"]), float(data["pixel_size"])
        )
        geometry = ConeBeamGeometry(
            int(data["num_angles"]),
            int(data["det_rows"]),
            int(data["det_cols"]),
            source_distance=float(data["source_distance"]),
            detector_distance=float(data["detector_distance"]),
            det_spacing=float(data["det_spacing"]),
            grid=grid,
            angle_range=float(data["angle_range"]),
        )
        num_pixels = grid.num_voxels
        tomo_shape = geometry.tomo_layout_shape
        sino_shape = geometry.sino_layout_shape
    elif kind == "parallel":
        grid = Grid2D(int(data["grid_n"]), float(data["pixel_size"]))
        geometry = ParallelBeamGeometry(
            int(data["num_angles"]),
            int(data["num_channels"]),
            grid=grid,
            angle_range=float(data["angle_range"]),
        )
        num_pixels = grid.num_pixels
        tomo_shape = (grid.n, grid.n)
        sino_shape = (geometry.num_angles, geometry.num_channels)
    else:
        raise OperatorFormatError(f"unsupported geometry kind {kind!r}")
    tomo = _ordering_from_arrays(
        data["tomo_name"][()], tomo_shape[0], tomo_shape[1], data["tomo_perm"]
    )
    sino = _ordering_from_arrays(
        data["sino_name"][()], sino_shape[0], sino_shape[1], data["sino_perm"]
    )
    matrix = CSRMatrix(
        displ=data["displ"], ind=data["ind"], val=data["val"],
        num_cols=num_pixels,
        value_dtype=data["val"].dtype.name,
    )
    saved_dtype = str(data["dtype"][()]) if "dtype" in data else ""
    config = OperatorConfig(
        kernel=str(data["kernel"][()]),
        partition_size=int(data["partition_size"]),
        buffer_bytes=int(data["buffer_bytes"]),
        dtype=saved_dtype or None,
    )

    buffered_forward = buffered_adjoint = None
    ell_forward = ell_adjoint = None
    if version >= 2:
        transpose = CSRMatrix(
            displ=data["t_displ"], ind=data["t_ind"], val=data["t_val"],
            num_cols=matrix.num_rows,
            value_dtype=data["t_val"].dtype.name,
        )
        psize = config.partition_size
        if "bf_partdispl" in data:
            buffered_forward = _buffered_from_payload(
                data, "bf_", matrix.num_rows, psize, matrix.num_cols
            )
        if "ba_partdispl" in data:
            buffered_adjoint = _buffered_from_payload(
                data, "ba_", transpose.num_rows, psize, transpose.num_cols
            )
        if "ef_widths" in data:
            ell_forward = _ell_from_payload(data, "ef_", matrix, transpose, psize)
        if "ea_widths" in data:
            ell_adjoint = _ell_from_payload(data, "ea_", transpose, matrix, psize)
    else:
        # v1 stored the matrix only: rebuild the remaining stages.
        transpose = scan_transpose(matrix)
        if config.kernel == "buffered":
            buffered_forward = build_buffered(
                matrix, config.partition_size, config.buffer_bytes
            )
            buffered_adjoint = build_buffered(
                transpose, config.partition_size, config.buffer_bytes
            )
        elif config.kernel == "ell":
            ell_forward = build_ell(matrix, config.partition_size, transpose)
            ell_adjoint = build_ell(transpose, config.partition_size, matrix)

    return MemXCTOperator(
        geometry=geometry,
        tomo_ordering=tomo,
        sino_ordering=sino,
        matrix=matrix,
        transpose=transpose,
        config=config,
        buffered_forward=buffered_forward,
        buffered_adjoint=buffered_adjoint,
        ell_forward=ell_forward,
        ell_adjoint=ell_adjoint,
    )


def load_operator(path: str | Path) -> MemXCTOperator:
    """Load an operator saved by :func:`save_operator`.

    v2 files restore the transpose and kernel layouts directly (no
    preprocessing stage re-runs); v1 files rebuild them
    deterministically from the stored matrix.

    Raises
    ------
    FileNotFoundError
        ``path`` does not exist.
    OperatorFormatError
        The file has an unsupported format version.
    OperatorIntegrityError
        The file is not a readable operator archive (corrupt,
        truncated, wrong file type) or fails its embedded checksum.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as npz:
            data = {name: npz[name] for name in npz.files}
        return _operator_from_npz(data)
    except FileNotFoundError:
        raise
    except (OperatorFormatError, OperatorIntegrityError):
        raise
    except Exception as exc:
        raise OperatorIntegrityError(
            f"{path} is not a readable operator file: {exc}"
        ) from exc
