"""Acquisition functions for sequential model-based optimization.

All functions follow the *minimization* convention (the paper minimizes
user response time) and return values where **larger is better** for the
acquisition maximizer.

The Gaussian cdf is ``scipy.special.ndtr`` and the pdf is the formula
``scipy.stats.norm`` evaluates, so EI/PI are bitwise equal to the
``norm.cdf``/``norm.pdf`` expressions without importing ``scipy.stats``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro.errors import ValidationError

__all__ = [
    "expected_improvement",
    "probability_of_improvement",
    "lower_confidence_bound",
    "ACQUISITION_FUNCTIONS",
]

_NORM_PDF_C = np.sqrt(2 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-z**2 / 2.0) / _NORM_PDF_C


def _validate(mu: np.ndarray, std: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(mu, dtype=float)
    std = np.asarray(std, dtype=float)
    if mu.shape != std.shape:
        raise ValidationError(f"mu/std shape mismatch: {mu.shape} vs {std.shape}")
    return mu, np.maximum(std, 1e-12)


def expected_improvement(
    mu: np.ndarray, std: np.ndarray, y_best: float, xi: float = 0.01
) -> np.ndarray:
    """EI(x) = E[max(y_best − ξ − Y(x), 0)] under Gaussian posterior."""
    mu, std = _validate(mu, std)
    improvement = y_best - xi - mu
    z = improvement / std
    return improvement * ndtr(z) + std * _norm_pdf(z)


def probability_of_improvement(
    mu: np.ndarray, std: np.ndarray, y_best: float, xi: float = 0.01
) -> np.ndarray:
    """PI(x) = P[Y(x) < y_best − ξ]."""
    mu, std = _validate(mu, std)
    return ndtr((y_best - xi - mu) / std)


def lower_confidence_bound(
    mu: np.ndarray, std: np.ndarray, kappa: float = 1.96
) -> np.ndarray:
    """−LCB(x) = −(μ − κσ); negated so larger is better."""
    mu, std = _validate(mu, std)
    return -(mu - kappa * std)


#: names accepted by ``acq_func=`` (gp_hedge is handled by the Optimizer).
ACQUISITION_FUNCTIONS = ("EI", "PI", "LCB", "gp_hedge")
