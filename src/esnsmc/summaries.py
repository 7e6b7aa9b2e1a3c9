"""Posterior summaries from particle populations."""

from __future__ import annotations

import numpy as np


def marginal_mode(samples: np.ndarray, grid_size: int = 512) -> float:
    """Mode of a one-dimensional marginal: Gaussian kernel density with
    Silverman bandwidth, maximised on a regular grid."""
    from scipy.stats import gaussian_kde  # slow to import; only fits need it

    samples = np.asarray(samples, dtype=float)
    lo, hi = samples.min(), samples.max()
    if hi - lo < 1e-12:
        return float(lo)
    kde = gaussian_kde(samples, bw_method="silverman")
    grid = np.linspace(lo, hi, grid_size)
    return float(grid[np.argmax(kde(grid))])


def summarize_marginal(samples: np.ndarray) -> dict:
    samples = np.asarray(samples, dtype=float)
    q = np.percentile(samples, [2.5, 50.0, 97.5])
    return {
        "mean": float(samples.mean()),
        "median": float(q[1]),
        "mode": marginal_mode(samples),
        "sd": float(samples.std(ddof=1)),
        "q2.5": float(q[0]),
        "q97.5": float(q[2]),
    }


def summarize_particles(theta: np.ndarray, names: list[str]) -> dict:
    """Per-parameter summary table from an (N, p) constrained particle matrix."""
    if theta.shape[1] != len(names):
        raise ValueError("name list does not match particle columns")
    return {name: summarize_marginal(theta[:, j]) for j, name in enumerate(names)}
