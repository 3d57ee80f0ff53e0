"""Gaussian process regression (Kriging — Simpson 2001, the paper's [24]).

A compact but complete GP: stationary kernels (RBF, Matérn 1/2, 3/2, 5/2),
anisotropic length-scales, white-noise term, log-marginal-likelihood
hyperparameter optimization with multi-restart L-BFGS-B, and exact posterior
mean/std via Cholesky factorization. Inputs and targets are standardized
internally so length-scale priors behave across problem scales.

``scipy.linalg``/``scipy.optimize`` are imported inside the methods that use
them, so importing this module (every optimizer does) stays cheap and only
GP users pay for SciPy, at their first fit.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.errors import ValidationError
from repro.surrogate.base import SurrogateModel, check_fit_inputs

__all__ = ["RBF", "Matern", "GaussianProcessRegressor"]


def _cdist_sq(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances (broadcast, no copies of A/B)."""
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    return np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)


class RBF:
    """Squared-exponential kernel with anisotropic length-scales."""

    def __init__(self, length_scale: float | np.ndarray = 1.0) -> None:
        self.length_scale = np.atleast_1d(np.asarray(length_scale, dtype=float))

    def __call__(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        d2 = _cdist_sq(A / self.length_scale, B / self.length_scale)
        return np.exp(-0.5 * d2)

    def with_length_scale(self, length_scale: np.ndarray) -> "RBF":
        return RBF(length_scale)


class Matern:
    """Matérn kernel with ν ∈ {0.5, 1.5, 2.5} (2.5 is the GP default)."""

    def __init__(self, length_scale: float | np.ndarray = 1.0, nu: float = 2.5) -> None:
        if nu not in (0.5, 1.5, 2.5):
            raise ValidationError("nu must be one of 0.5, 1.5, 2.5")
        self.length_scale = np.atleast_1d(np.asarray(length_scale, dtype=float))
        self.nu = nu

    def __call__(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        d = np.sqrt(_cdist_sq(A / self.length_scale, B / self.length_scale))
        if self.nu == 0.5:
            return np.exp(-d)
        if self.nu == 1.5:
            f = math.sqrt(3.0) * d
            return (1.0 + f) * np.exp(-f)
        f = math.sqrt(5.0) * d
        return (1.0 + f + f * f / 3.0) * np.exp(-f)

    def with_length_scale(self, length_scale: np.ndarray) -> "Matern":
        return Matern(length_scale, self.nu)


class GaussianProcessRegressor(SurrogateModel):
    """Exact GP regression with hyperparameter optimization.

    Hyperparameters θ = (signal variance, per-dimension length-scales,
    noise variance) are fitted by maximizing the log marginal likelihood
    over log-parameters with ``n_restarts`` random restarts.
    """

    name = "GP"

    def __init__(
        self,
        kernel: Matern | RBF | None = None,
        *,
        noise: float = 1e-6,
        optimize_hyperparams: bool = True,
        n_restarts: int = 3,
        random_state: int | None = None,
    ) -> None:
        super().__init__()
        self.kernel = kernel or Matern(nu=2.5)
        if noise < 0:
            raise ValidationError("noise must be >= 0")
        self.noise = float(noise)
        self.optimize_hyperparams = optimize_hyperparams
        self.n_restarts = int(n_restarts)
        self.random_state = random_state
        self._X: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._L: np.ndarray | None = None
        self._signal: float = 1.0
        self._y_mean: float = 0.0
        self._y_std: float = 1.0

    # -- likelihood ------------------------------------------------------------------

    def _nll(self, log_theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """Negative log marginal likelihood at log hyperparameters."""
        from scipy import linalg

        d = X.shape[1]
        signal = math.exp(2.0 * log_theta[0])
        lengths = np.exp(log_theta[1 : 1 + d])
        noise = math.exp(2.0 * log_theta[1 + d])
        K = signal * self.kernel.with_length_scale(lengths)(X, X)
        K[np.diag_indices_from(K)] += noise + 1e-10
        try:
            L = linalg.cholesky(K, lower=True)
        except linalg.LinAlgError:
            return 1e25
        alpha = linalg.solve_triangular(L, y, lower=True)
        nll = (
            0.5 * float(alpha @ alpha)
            + float(np.log(np.diag(L)).sum())
            + 0.5 * len(y) * math.log(2.0 * math.pi)
        )
        return nll

    def fit(self, X: Any, y: Any) -> "GaussianProcessRegressor":
        from scipy import linalg, optimize

        X, y = check_fit_inputs(X, y)
        self.n_features_ = X.shape[1]
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        y_n = (y - self._y_mean) / self._y_std
        d = X.shape[1]

        log_theta = np.concatenate(
            [[0.0], np.zeros(d), [0.5 * math.log(max(self.noise, 1e-10))]]
        )
        if self.optimize_hyperparams and len(y) >= 3:
            rng = np.random.default_rng(self.random_state)
            bounds = [(-4.0, 4.0)] + [(-4.0, 4.0)] * d + [(-12.0, 1.0)]
            best = None
            starts = [log_theta] + [
                np.array([rng.uniform(lo, hi) for lo, hi in bounds])
                for _ in range(self.n_restarts)
            ]
            for start in starts:
                res = optimize.minimize(
                    self._nll,
                    start,
                    args=(X, y_n),
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={"maxiter": 200},
                )
                if best is None or res.fun < best.fun:
                    best = res
            assert best is not None
            log_theta = best.x

        self._signal = math.exp(2.0 * log_theta[0])
        lengths = np.exp(log_theta[1 : 1 + d])
        fitted_noise = math.exp(2.0 * log_theta[1 + d])
        self.kernel = self.kernel.with_length_scale(lengths)
        self.noise_ = fitted_noise

        K = self._signal * self.kernel(X, X)
        K[np.diag_indices_from(K)] += fitted_noise + 1e-10
        self._L = linalg.cholesky(K, lower=True)
        self._alpha = linalg.cho_solve((self._L, True), y_n)
        self._X = X
        return self

    def predict(
        self, X: Any, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        from scipy import linalg

        X = self._check_predict_input(X)
        if self._X is None or self._alpha is None or self._L is None:
            raise ValidationError("GaussianProcessRegressor is not fitted yet")
        K_star = self._signal * self.kernel(X, self._X)
        mean_n = K_star @ self._alpha
        mean = mean_n * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = linalg.solve_triangular(self._L, K_star.T, lower=True)
        var_n = self._signal - np.sum(v * v, axis=0)
        var_n = np.maximum(var_n, 1e-12)
        std = np.sqrt(var_n) * self._y_std
        return mean, std

    def log_marginal_likelihood(self) -> float:
        """LML of the fitted model (for diagnostics / tests)."""
        if self._X is None or self._alpha is None or self._L is None:
            raise ValidationError("GaussianProcessRegressor is not fitted yet")
        y_n = self._L @ (self._L.T @ self._alpha)  # reconstruct normalized y
        return -(
            0.5 * float(y_n @ self._alpha)
            + float(np.log(np.diag(self._L)).sum())
            + 0.5 * len(y_n) * math.log(2.0 * math.pi)
        )
