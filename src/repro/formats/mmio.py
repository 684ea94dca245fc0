"""Matrix Market I/O.

The SuiteSparse collection the paper evaluates on distributes matrices as
``.mtx`` files.  This minimal reader/writer covers the subset those files
use: ``matrix coordinate (pattern|real|integer) (general|symmetric)``.
Implemented from scratch so the dataset pipeline has no SciPy dependency.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.convert import coo_from_csr, csr_from_coo

_HEADER = "%%MatrixMarket"


def read_matrix_market(path: str | Path | io.TextIOBase) -> CSRMatrix:
    """Read a Matrix Market coordinate file into CSR.

    Supports ``pattern`` (structural, values default to 1.0), ``real`` and
    ``integer`` fields, with ``general`` or ``symmetric`` symmetry
    (symmetric entries are mirrored).  1-based indices per the spec.
    """
    if isinstance(path, (str, Path)):
        with open(path, "r", encoding="utf-8") as fh:
            return read_matrix_market(fh)
    header = path.readline()
    if not header.startswith(_HEADER):
        raise ValueError(f"not a MatrixMarket file: {header[:40]!r}")
    parts = header.strip().split()
    if len(parts) < 5:
        raise ValueError(f"malformed MatrixMarket header: {header!r}")
    _, obj, fmt, field, symmetry = parts[:5]
    if obj.lower() != "matrix" or fmt.lower() != "coordinate":
        raise ValueError(
            f"only 'matrix coordinate' supported, got {obj} {fmt}"
        )
    field = field.lower()
    symmetry = symmetry.lower()
    if field not in ("pattern", "real", "integer"):
        raise ValueError(f"unsupported field type {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"unsupported symmetry {symmetry!r}")

    line = path.readline()
    lineno = 2
    while line.startswith("%"):
        line = path.readline()
        lineno += 1
    dims = line.split()
    if len(dims) != 3:
        raise ValueError(f"malformed size line: {line!r}")
    nrows, ncols, nnz = int(dims[0]), int(dims[1]), int(dims[2])

    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.ones(nnz, dtype=np.float32)
    want = 2 if field == "pattern" else 3
    k = 0
    for lineno, line in enumerate(path, start=lineno + 1):
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        toks = line.split()
        if k == nnz:
            raise ValueError(
                f"line {lineno}: entry beyond the header's {nnz} entries: "
                f"{line!r}"
            )
        if len(toks) < want:
            raise ValueError(
                f"line {lineno}: a {field} entry needs {want} tokens, got "
                f"{line!r}"
            )
        try:
            rows[k] = int(toks[0]) - 1
            cols[k] = int(toks[1]) - 1
            if field != "pattern":
                vals[k] = float(toks[2])
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed entry {line!r}"
            ) from None
        k += 1
    if k != nnz:
        raise ValueError(f"expected {nnz} entries, found {k}")

    if symmetry == "symmetric":
        off = rows != cols
        rows = np.r_[rows, cols[off]]
        cols = np.r_[cols, rows[:nnz][off]]
        vals = np.r_[vals, vals[off]]
    coo = COOMatrix(nrows, ncols, rows, cols, vals)
    return csr_from_coo(coo, combine="last")


def write_matrix_market(
    path: str | Path | io.TextIOBase,
    csr: CSRMatrix,
    *,
    pattern: bool = True,
    comment: str | None = None,
) -> None:
    """Write a CSR matrix as a general Matrix Market coordinate file.

    ``pattern=True`` omits values (structural export, the natural choice for
    binary adjacency matrices); otherwise values are written as ``real``.
    """
    if isinstance(path, (str, Path)):
        with open(path, "w", encoding="utf-8") as fh:
            write_matrix_market(fh, csr, pattern=pattern, comment=comment)
        return
    field = "pattern" if pattern else "real"
    path.write(f"{_HEADER} matrix coordinate {field} general\n")
    if comment:
        for line in comment.splitlines():
            path.write(f"% {line}\n")
    coo = coo_from_csr(csr)
    path.write(f"{csr.nrows} {csr.ncols} {csr.nnz}\n")
    if pattern:
        for r, c in zip(coo.rows, coo.cols, strict=True):
            path.write(f"{r + 1} {c + 1}\n")
    else:
        for r, c, v in zip(coo.rows, coo.cols, coo.vals, strict=True):
            path.write(f"{r + 1} {c + 1} {v:.7g}\n")
