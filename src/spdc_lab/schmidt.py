"""Spectral purity of the sampled amplitude, and its Schmidt spectrum by SVD."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SpdcLabError

_SKETCH_RANK, _SKETCH_TOL = 6, 1e-12  # the purity sketch's first probe count and energy bound


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


@lru_cache(maxsize=8)
def _probes(n, k):
    """cos(pi i j / (n - 1)), i < n, j < k, read-only: the first k columns of
    the DCT-I matrix, which is invertible at k = n."""
    probes = np.cos(np.pi / (n - 1) * np.outer(np.arange(n), np.arange(k)))
    probes.flags.writeable = False
    return probes


def purity(grid, decompose):
    """Purity of a sampled joint amplitude without its Schmidt spectrum.

    ``amplitude`` mode returns Tr(rho^2) = ||A^H A||_F^2 / ||A||_F^4 of the
    amplitude A, the purity of ``schmidt_purity``, at O(n^2 k) from a sketch
    on k ``_probes`` Omega: Q = orth(A Omega), B = Q^H A, P = ||B B^H||_F^2 /
    ||A||_F^4. The energy it misses, lost = ||A||_F^2 - ||B||_F^2, bounds it:
    0 <= P_full - P <= 2 lost / ||A||_F^2. k starts at _SKETCH_RANK and doubles
    until lost <= _SKETCH_TOL ||A||_F^2 or k = min(A.shape), where Q spans the
    range of A and P is exact. Other modes go through ``schmidt_purity``.
    """
    if decompose != "amplitude":
        return schmidt_purity(grid, decompose).purity
    matrix = _sampled_matrix(grid)
    total = np.vdot(matrix, matrix).real
    if total <= 0:
        raise SpdcLabError("vanishing joint amplitude")
    k, full = _SKETCH_RANK, min(matrix.shape)
    while True:
        q = np.linalg.qr(matrix @ _probes(matrix.shape[1], min(k, full)))[0]
        sketch = q.conj().T @ matrix
        if k >= full or total - np.vdot(sketch, sketch).real <= _SKETCH_TOL * total:
            break
        k *= 2
    gram = sketch @ sketch.conj().T
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
