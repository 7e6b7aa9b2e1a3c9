import numpy as np
import pytest
from scipy.stats import gaussian_kde

from esnsmc.summaries import marginal_mode


def _exact_mode_index(samples, grid_size=512):
    """Grid index of the argmax of scipy's unbinned Silverman KDE."""
    grid = np.linspace(samples.min(), samples.max(), grid_size)
    return int(np.argmax(gaussian_kde(samples, bw_method="silverman")(grid))), grid


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: rng.normal(size=20_000),
        lambda rng: rng.lognormal(size=20_000),
        lambda rng: rng.gamma(2.0, size=2000),
        lambda rng: np.concatenate([rng.normal(-2.0, 1.0, 1000), rng.normal(2.5, 0.7, 1000)]),
        lambda rng: rng.normal(size=200),
        lambda rng: rng.uniform(size=50),
    ],
    ids=["normal", "lognormal", "gamma", "bimodal", "normal-200", "uniform-50"],
)
def test_binned_mode_is_within_one_grid_step_of_the_exact_kde(draw):
    samples = draw(np.random.default_rng(3))
    index, grid = _exact_mode_index(samples)
    mode = marginal_mode(samples)
    assert mode in grid
    assert abs(int(np.flatnonzero(grid == mode)[0]) - index) <= 1


def test_constant_samples_return_their_value():
    assert marginal_mode(np.full(10, 2.5)) == 2.5
