"""Plain-text matrix and moments files.

A matrix file is a one-line header ``dim=<n>`` followed by n rows of
space-separated decimals. A moments file uses the same header, then one
mean row, then the n covariance rows, which must be symmetric to within
``spd.SYM_RTOL``. Values are printed with 17 significant digits so files
round-trip exactly.
"""

import numpy as np

from .embedding import GaussianMoments
from .spd import check_symmetric


def fmt(x):
    """17-significant-digit text for a float."""
    return format(float(x), ".17g")


def _parse_header(line, path):
    line = line.strip()
    if not line.startswith("dim="):
        raise ValueError(f"{path}: expected header 'dim=<n>', got {line!r}")
    return int(line[4:])


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
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    n = _parse_header(lines[0], path)
    rows = [[float(v) for v in ln.split()] for ln in lines[1 : 1 + n]]
    M = np.array(rows, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f"{path}: expected {n}x{n} matrix, got shape {M.shape}")
    return M


def write_moments(path, m):
    with open(path, "w") as fh:
        fh.write(f"dim={m.dim}\n")
        fh.write(" ".join(fmt(v) for v in m.mean) + "\n")
        for row in m.cov:
            fh.write(" ".join(fmt(v) for v in row) + "\n")


def read_moments(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    n = _parse_header(lines[0], path)
    mean = np.array([float(v) for v in lines[1].split()], dtype=float)
    cov = np.array([[float(v) for v in ln.split()] for ln in lines[2 : 2 + n]], dtype=float)
    if mean.size != n or cov.shape != (n, n):
        raise ValueError(f"{path}: inconsistent moments file for dim={n}")
    return GaussianMoments(mean=mean, cov=check_symmetric(cov))
