"""Plain-text matrix and moments files.

A matrix file is a one-line header ``dim=<n>`` followed by n rows of
space-separated decimals. A moments file uses the same header, then one
mean row, then the n covariance rows, which must be symmetric to within
``spd.SYM_RTOL``. Values are printed with 17 significant digits so files
round-trip exactly; the CSV writers print floats the same way.
"""

import numpy as np

from .embedding import GaussianMoments


def fmt(x):
    """17-significant-digit text for a float."""
    return format(float(x), ".17g")


def csv_line(row, header):
    """One CSV line of row's cells in header order: fmt for floats, str for the rest."""
    cells = (row[k] for k in header.split(","))
    return ",".join(fmt(v) if isinstance(v, float) else str(v) for v in cells) + "\n"


def _read_body(path):
    """(n, the non-blank lines after the 'dim=<n>' header) of a matrix or moments file."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file, expected header 'dim=<n>'")
    header = lines[0].strip()
    if not header.startswith("dim="):
        raise ValueError(f"{path}: expected header 'dim=<n>', got {header!r}")
    return int(header[4:]), lines[1:]


def write_matrix(path, M):
    M = np.asarray(M, dtype=float)
    with open(path, "w") as fh:
        fh.write(matrix_text(M))


def matrix_text(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"dim={M.shape[0]}"]
    for row in M:
        lines.append(" ".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def read_matrix(path):
    n, body = _read_body(path)
    rows = [[float(v) for v in ln.split()] for ln in body[:n]]
    M = np.array(rows, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f"{path}: expected {n}x{n} matrix, got shape {M.shape}")
    return M


def read_moments(path):
    n, body = _read_body(path)
    if not body:
        raise ValueError(f"{path}: no mean row after the header")
    mean = np.array([float(v) for v in body[0].split()], dtype=float)
    cov = np.array([[float(v) for v in ln.split()] for ln in body[1 : 1 + n]], dtype=float)
    if mean.size != n or cov.shape != (n, n):
        raise ValueError(f"{path}: inconsistent moments file for dim={n}")
    return GaussianMoments(mean=mean, cov=cov)
