"""Reference posterior for checking the SMC sampler: many independent
random-walk Metropolis-Hastings chains.

The chains advance together through ``TargetModel.log_target_many`` (one
batched call per step) and use nothing else of the sampler module.
During burn-in the proposal covariance is re-estimated from the pooled
chain states and its scale nudged towards a 0.2-0.4 acceptance rate;
after burn-in the kernel is fixed, so every kept draw comes from a
pi-invariant chain.  The chains are independent, so each chain is one
batch: the spread of the per-chain means (and of the per-chain mean
squared deviations) across chains gives the Monte Carlo standard error
of the pooled posterior mean (and variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ADAPT_EVERY = 100


@dataclass
class ReferencePosterior:
    """Kept draws in constrained coordinates, shape (chains, steps, dim)."""

    draws: np.ndarray
    acceptance: float

    @property
    def mean(self) -> np.ndarray:
        return self.draws.mean(axis=(0, 1))

    @property
    def var(self) -> np.ndarray:
        return self._chain_var().mean(axis=0)

    @property
    def mc_se(self) -> np.ndarray:
        """Batch-means standard error of ``mean``, one batch per chain."""
        return _batch_se(self.draws.mean(axis=1))

    @property
    def var_mc_se(self) -> np.ndarray:
        """Batch-means standard error of ``var``, one batch per chain."""
        return _batch_se(self._chain_var())

    def _chain_var(self) -> np.ndarray:
        return ((self.draws - self.mean) ** 2).mean(axis=1)

    @property
    def rhat(self) -> np.ndarray:
        """Gelman-Rubin potential scale reduction per coordinate."""
        n = self.draws.shape[1]
        within = self.draws.var(axis=1, ddof=1).mean(axis=0)
        between = n * self.draws.mean(axis=1).var(axis=0, ddof=1)
        return np.sqrt(((n - 1) / n * within + between / n) / within)


def _batch_se(batches):
    return batches.std(axis=0, ddof=1) / math.sqrt(batches.shape[0])


def rwmh_reference(target, starts, n_burn, n_keep, rng):
    """Run ``len(starts)`` random-walk MH chains on ``target`` from the
    unconstrained points ``starts``; discard ``n_burn`` adaptive steps and
    keep the next ``n_keep`` steps of the fixed kernel.  The proposal is
    re-tuned after every ``_ADAPT_EVERY`` burn-in steps."""
    x = np.array(starts, dtype=float)
    chains, dim = x.shape
    cur = target.log_target_many(x)
    if not np.all(np.isfinite(cur)):
        raise ValueError("every chain must start where the target is finite")
    cov = np.atleast_2d(np.cov(x.T))
    scale = 2.38**2 / dim
    chol = np.linalg.cholesky(scale * cov)
    kept = np.empty((chains, n_keep, dim))
    window = []
    window_acc = 0
    kept_acc = 0
    for it in range(n_burn + n_keep):
        prop = x + rng.standard_normal((chains, dim)) @ chol.T
        cand = target.log_target_many(prop)
        acc = np.log(rng.uniform(size=chains)) < cand - cur
        x = np.where(acc[:, None], prop, x)
        cur = np.where(acc, cand, cur)
        if it < n_burn:
            window.append(x)
            window_acc += int(acc.sum())
            if len(window) == _ADAPT_EVERY:
                rate = window_acc / (_ADAPT_EVERY * chains)
                if rate < 0.2:
                    scale *= 0.7
                elif rate > 0.4:
                    scale *= 1.4
                pooled = np.concatenate(window)
                cov = np.atleast_2d(np.cov(pooled.T)) + 1e-12 * np.eye(dim)
                chol = np.linalg.cholesky(scale * cov)
                window = []
                window_acc = 0
        else:
            kept[:, it - n_burn] = x
            kept_acc += int(acc.sum())
    constrained = target.to_constrained(kept.reshape(-1, dim))
    return ReferencePosterior(
        constrained.reshape(chains, n_keep, dim), kept_acc / (n_keep * chains)
    )
