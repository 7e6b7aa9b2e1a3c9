"""Seeded input generation for the benchmark workloads.

The generators live here, not in the program, so that every version of
``esnsmc`` is fed the same bytes for the same seed.  Draws use the
hidden-truncation representation of the extended skew-normal (ESN)
law: with X ~ N(0, Sigma) and W = U - alpha'X for an independent
standard normal U, X given W < lambda has density proportional to
phi(x; 0, Sigma) Phi(lambda + alpha'x).  W is drawn from its truncated
marginal by inverse CDF and X from its Gaussian conditional given W.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

# paper design of the univariate fits: xi=2, sigma^2=6, alpha=5, lambda=-2
D1_DESIGN = dict(xi=[2.0], sigma=[[6.0]], alpha=[5.0], lam=-2.0)
D2_DESIGN = dict(
    xi=[2.0, -1.0], sigma=[[6.0, 1.5], [1.5, 3.0]], alpha=[3.0, -1.0], lam=-1.0
)
# selection model: intercept plus two N(0, 2) covariates
SM_B = np.array([3.0, -2.0, 0.0])
SM_BETA2 = np.array([1.5, 0.0, 2.0])
SM_SIGMA = np.array([[6.0, 0.3 * math.sqrt(6.0)], [0.3 * math.sqrt(6.0), 1.0]])
SM_ALPHA = np.array([2.0, 1.0])
SM_LAM = -2.0


def esn_draws(rng, n, xi, sigma, alpha, lam) -> np.ndarray:
    """n ESN draws, as an (n, d) matrix, in the hidden-truncation
    parametrisation (location xi, scale sigma, shape alpha, shift lam)."""
    xi = np.asarray(xi, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    s_a = sigma @ alpha
    c0sq = 1.0 + float(alpha @ s_a)
    c0 = math.sqrt(c0sq)
    w = c0 * ndtri(rng.uniform(size=n) * ndtr(lam / c0))
    chol = np.linalg.cholesky(sigma - np.outer(s_a, s_a) / c0sq)
    x = -np.outer(w, s_a) / c0sq + rng.standard_normal((n, xi.shape[0])) @ chol.T
    return xi + x


def selection_data(rng, n):
    """Censored selection-model sample: covariates x (n, 3), indicators s
    and outcomes y (NaN where censored).  The ESN errors are centred so
    they have mean zero, as the model assumes."""
    c0 = math.sqrt(1.0 + float(SM_ALPHA @ SM_SIGMA @ SM_ALPHA))
    t = SM_LAM / c0
    mills = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) / float(ndtr(t))
    centre = -(SM_SIGMA @ SM_ALPHA / c0) * mills
    x = np.column_stack([np.ones(n), rng.normal(0.0, math.sqrt(2.0), size=(n, 2))])
    eps = esn_draws(rng, n, centre, SM_SIGMA, SM_ALPHA, SM_LAM)
    s = (x @ SM_BETA2 + eps[:, 1] >= 0.0).astype(int)
    y = np.where(s == 1, x @ SM_B + eps[:, 0], np.nan)
    return x, s, y


def write_iid_csv(path, data) -> None:
    data = np.atleast_2d(data)
    lines = [",".join(f"y{j + 1}" for j in range(data.shape[1]))]
    lines += [",".join(repr(float(v)) for v in row) for row in data]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_selection_csv(path, x, s, y) -> None:
    lines = ["x1,x2,x3,s,y1"]
    for xi, si, yi in zip(x, s, y):
        cells = [repr(float(v)) for v in xi] + [str(int(si))]
        cells.append(repr(float(yi)) if si == 1 else "")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
