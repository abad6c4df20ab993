"""Spectral purity of the sampled amplitude, and its Schmidt spectrum by SVD."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import SpdcLabError


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Normalized Schmidt weights (descending), purity, and Schmidt number."""

    lambdas: np.ndarray
    purity: float
    schmidt_number: float

    def __post_init__(self):
        if abs(float(np.sum(self.lambdas)) - 1.0) > 1e-12:
            raise ValueError("Schmidt weights must sum to 1")
        if np.any(self.lambdas < 0):
            raise ValueError("Schmidt weights must be nonnegative")
        if not 0.0 < self.purity <= 1.0 + 1e-12:
            raise ValueError("purity must lie in (0, 1]")


def _sampled_matrix(grid):
    """The 2-D sample matrix of a JsaGrid or bare array, in double precision."""
    matrix = np.asarray(getattr(grid, "amplitude", grid))
    if matrix.ndim != 2 or min(matrix.shape) < 2:
        raise ValueError("need a 2-D grid of at least 2x2 samples")
    matrix = matrix.astype(np.result_type(matrix, np.float64), copy=False)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("grid contains non-finite entries")
    return matrix


def purity(grid, decompose):
    """Purity of a sampled joint amplitude without its Schmidt spectrum.

    ``amplitude`` mode returns Tr(rho^2) = ||G||_F^2 / ||A||_F^4, the
    SVD-free value of ``schmidt_purity(grid, "amplitude").purity``, with the
    Gram matrix G = A^T A (one symmetric BLAS product) for a real amplitude
    and G = A^H A for a complex one; other modes go through
    ``schmidt_purity``.
    """
    if decompose != "amplitude":
        return schmidt_purity(grid, decompose).purity
    matrix = _sampled_matrix(grid)
    gram = (matrix.conj() if np.iscomplexobj(matrix) else matrix).T @ matrix
    total = np.trace(gram).real
    if total <= 0:
        raise SpdcLabError("vanishing joint amplitude")
    return float(np.vdot(gram, gram).real / total**2)


def schmidt_purity(grid, decompose):
    """Schmidt spectrum of a sampled joint amplitude.

    ``grid`` is a JsaGrid or a bare 2-D array. ``amplitude`` decomposes the
    amplitude itself (weights sigma_n^2 / sum sigma^2, the standard
    Schmidt decomposition); ``intensity`` decomposes the modulus-squared
    matrix instead, normalizing its singular values linearly so that they
    play the role of the weights directly.
    """
    matrix = _sampled_matrix(grid)
    if decompose == "amplitude":
        weights = np.linalg.svd(matrix, compute_uv=False) ** 2
    elif decompose == "intensity":
        weights = np.linalg.svd(np.abs(matrix) ** 2, compute_uv=False)
    else:
        raise ValueError("decompose must be 'amplitude' or 'intensity'")
    total = np.sum(weights)
    if total <= 0:
        raise SpdcLabError("vanishing joint amplitude")
    lam = np.sort(weights)[::-1] / total
    p = float(np.sum(lam**2))
    return SchmidtSpectrum(lambdas=lam, purity=p, schmidt_number=1.0 / p)


def write_schmidt_csv(spectrum, path):
    """Rows (n, lambda_n) followed by a summary line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda_n"])
        for n, lam in enumerate(spectrum.lambdas):
            writer.writerow([n, "%.12e" % lam])
        writer.writerow(
            ["purity=%.12f" % spectrum.purity,
             "schmidt_number=%.12f" % spectrum.schmidt_number]
        )
