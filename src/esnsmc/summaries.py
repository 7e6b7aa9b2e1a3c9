"""Posterior summaries from particle populations."""

from __future__ import annotations

import numpy as np


def marginal_mode(samples: np.ndarray, grid_size: int = 512) -> float:
    """Mode of a one-dimensional marginal: the argmax on a regular grid of a
    Gaussian kernel density with Silverman bandwidth, binned linearly onto the
    grid and convolved with the kernel cut at 4 bandwidths (Wand 1994)."""
    samples = np.asarray(samples, dtype=float)
    lo, hi = samples.min(), samples.max()
    if hi - lo < 1e-12:
        return float(lo)
    grid, step = np.linspace(lo, hi, grid_size, retstep=True)
    bandwidth = samples.std(ddof=1) * (0.75 * samples.size) ** -0.2
    pos = (samples - lo) / step
    left = np.minimum(pos.astype(np.intp), grid_size - 2)
    w = pos - left  # the share of each sample binned to the right
    counts = np.bincount(left, 1.0 - w, grid_size) + np.bincount(left + 1, w, grid_size)
    reach = min(int(4.0 * bandwidth / step), grid_size - 1)
    kernel = np.exp(-0.5 * (np.arange(-reach, reach + 1) * step / bandwidth) ** 2)
    density = np.convolve(counts, kernel)[reach : reach + grid_size]
    return float(grid[np.argmax(density)])


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
