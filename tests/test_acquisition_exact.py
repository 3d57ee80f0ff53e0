"""EI/PI and the normal quantile are bitwise equal to their scipy.stats.norm forms.

EI/PI evaluate the Gaussian cdf with a numpy port of Cephes ``ndtr`` (libm
``exp``) and the pdf with the ``norm.pdf`` formula, and the quantile uses
``scipy.special.ndtri``, so importing the acquisitions loads no SciPy; these
tests hold them to the ``norm.cdf``/``norm.pdf``/``norm.ppf`` references bit
for bit.
"""

import numpy as np
from scipy.stats import norm

from repro.bayesopt.acquisition import expected_improvement, probability_of_improvement
from repro.utils.stats import confidence_interval


def reference_ei(mu, std, y_best, xi=0.01):
    mu = np.asarray(mu, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = y_best - xi - mu
    z = improvement / std
    return improvement * norm.cdf(z) + std * norm.pdf(z)


def reference_pi(mu, std, y_best, xi=0.01):
    mu = np.asarray(mu, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    return norm.cdf((y_best - xi - mu) / std)


def assert_bitwise(got, expected):
    assert np.shape(got) == np.shape(expected)
    assert np.array_equal(got, expected, equal_nan=True)
    # array_equal treats 0.0 == -0.0; the sign bit must match as well.
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def acquisition_inputs():
    rng = np.random.default_rng(2021)
    mu = np.concatenate(
        [
            rng.normal(0.0, 3.0, 20_000),
            # z = (y_best - xi - mu) / std lands on +-40 and +-inf below.
            [0.99 - 40.0, 0.99 + 40.0, -np.inf, np.inf, np.nan, 0.99, 0.99, 0.5, 2.0],
        ]
    )
    std = np.concatenate(
        [
            rng.lognormal(0.0, 2.0, 20_000),
            # 0.0 and the tiny stds are clamped to the 1e-12 floor.
            [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1e-12, 1e-300, 1e-13],
        ]
    )
    return mu, std


def test_ei_and_pi_match_scipy_stats_bitwise():
    mu, std = acquisition_inputs()
    for y_best, xi in [(1.0, 0.01), (0.0, 0.0), (-3.5, 0.1)]:
        assert_bitwise(
            expected_improvement(mu, std, y_best, xi), reference_ei(mu, std, y_best, xi)
        )
        assert_bitwise(
            probability_of_improvement(mu, std, y_best, xi), reference_pi(mu, std, y_best, xi)
        )


def test_zero_dim_inputs_match_scipy_stats_bitwise():
    for mu, std in [(0.3, 0.7), (0.99, 0.0), (-39.01, 1.0), (np.inf, 1.0)]:
        mu0, std0 = np.asarray(mu), np.asarray(std)
        assert_bitwise(expected_improvement(mu0, std0, 1.0), reference_ei(mu0, std0, 1.0))
        assert_bitwise(probability_of_improvement(mu0, std0, 1.0), reference_pi(mu0, std0, 1.0))


def test_confidence_interval_quantile_matches_norm_ppf():
    values = [1.0, 2.5, 3.0, 4.25, 7.0]
    arr = np.asarray(values)
    sem = arr.std(ddof=1) / np.sqrt(arr.size)
    for level in [0.5, 0.8, 0.9, 0.95, 0.99, 0.999999]:
        z = norm.ppf(0.5 + level / 2.0)
        assert confidence_interval(values, level) == (arr.mean() - z * sem, arr.mean() + z * sem)
