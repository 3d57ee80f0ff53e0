"""Acquisition functions for sequential model-based optimization.

All functions follow the *minimization* convention (the paper minimizes
user response time) and return values where **larger is better** for the
acquisition maximizer.

The Gaussian cdf is a numpy port of Cephes ``ndtr`` (the routine behind
``scipy.special.ndtr``) that takes its exponential from libm through
``math.exp``, and the pdf is the formula ``scipy.stats.norm`` evaluates. EI/PI
are therefore bitwise equal to the ``norm.cdf``/``norm.pdf`` expressions while
importing this module loads no SciPy at all. numpy's own ``np.exp`` is not
used on the erfc branch: its SIMD kernels may differ from libm in the last
bits, which would break that equality.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "expected_improvement",
    "probability_of_improvement",
    "lower_confidence_bound",
    "ACQUISITION_FUNCTIONS",
]

_NORM_PDF_C = np.sqrt(2 * np.pi)

# Cephes ndtr.c: erf(x) = x·T(x²)/U(x²) for |x| <= 1, erfc(x) = exp(−x²)·P(x)/Q(x)
# for 1 <= x < 8 and exp(−x²)·R(x)/S(x) from 8 on. U, Q and S are monic; their
# leading 1 is implied, as in ``p1evl``.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_SQRT1_2 = 7.07106781186547524401e-1
#: log(2**1024): erfc is flushed to 0 once exp(−x²) would go below e**−MAXLOG.
_MAXLOG = 7.09782712893383996732e2


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    result = coef[0]
    for c in coef[1:]:
        result = result * x + c
    return result


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    result = x + coef[0]
    for c in coef[1:]:
        result = result * x + c
    return result


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` for |x| <= 1."""
    xx = x * x
    return x * _polevl(xx, _T) / _p1evl(xx, _U)


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` for z >= 1 or NaN, on a 1-d array; NaN gives Cephes' NaN."""
    with np.errstate(over="ignore"):  # z² = inf past 1.3e154 is flushed to 0 like any z² > MAXLOG
        zz = z * z
    out = np.where(np.isnan(z), np.nan, 0.0)
    live = zz <= _MAXLOG
    z, zz = z[live], zz[live]
    expo = np.fromiter(map(math.exp, (-zz).tolist()), dtype=float, count=z.size)
    near = z < 8.0
    p = np.where(near, _polevl(z, _P), _polevl(z, _R))
    q = np.where(near, _p1evl(z, _Q), _p1evl(z, _S))
    out[live] = expo * p / q
    return out


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal cdf, bit for bit Cephes ``ndtr`` (``scipy.special.ndtr``)."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(z)
    centre = z < _SQRT1_2
    shoulder = ~centre & (z < 1.0)
    tail = ~(z < 1.0)  # NaN included
    y[centre] = 0.5 + 0.5 * _erf(x[centre])
    y[shoulder] = 0.5 * (1.0 - _erf(z[shoulder]))
    y[tail] = 0.5 * _erfc_tail(z[tail])
    upper = ~centre & (x > 0)
    y[upper] = 1.0 - y[upper]
    return y


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
    return improvement * _ndtr(z) + std * _norm_pdf(z)


def probability_of_improvement(
    mu: np.ndarray, std: np.ndarray, y_best: float, xi: float = 0.01
) -> np.ndarray:
    """PI(x) = P[Y(x) < y_best − ξ]."""
    mu, std = _validate(mu, std)
    return _ndtr((y_best - xi - mu) / std)


def lower_confidence_bound(
    mu: np.ndarray, std: np.ndarray, kappa: float = 1.96
) -> np.ndarray:
    """−LCB(x) = −(μ − κσ); negated so larger is better."""
    mu, std = _validate(mu, std)
    return -(mu - kappa * std)


#: names accepted by ``acq_func=`` (gp_hedge is handled by the Optimizer).
ACQUISITION_FUNCTIONS = ("EI", "PI", "LCB", "gp_hedge")
