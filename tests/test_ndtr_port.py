"""Differential tests of the Cephes ``ndtr`` port in ``repro.bayesopt.acquisition``.

``_ndtr`` must equal ``scipy.special.ndtr`` bit for bit (values and sign
bits), which is what keeps EI/PI bitwise equal to their ``scipy.stats.norm``
forms. SciPy is the reference here only; the library never imports it for
the cdf. Covered:

- each branch edge with its ``np.nextafter`` neighbours: ``|a| = 1`` (erf to
  erfc), ``|a| = √2`` (``1 − erf`` to the P/Q fraction), ``|a| = 8√2`` (P/Q to
  R/S) and the underflow edge, where ``(a/√2)²`` passes ``MAXLOG``;
- ``±0.0``, subnormals, ``±inf``, NaN and 0-d inputs;
- one million seeded draws over [−40, 40] and a hypothesis search over
  finite floats.

The draws also pin the exponential to libm: with numpy's SIMD ``np.exp`` in
place of ``math.exp``, thousands of erfc-branch draws differ in the last bits
on hosts whose numpy uses AVX-512 kernels.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from repro.bayesopt.acquisition import _MAXLOG, _ndtr


def assert_bitwise(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    # array_equal treats 0.0 == -0.0; the sign bit must match as well.
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def neighbours(edge: float, steps: int = 4) -> list[float]:
    """``edge`` and its ``steps`` nearest floats on either side."""
    out = [edge]
    lo = hi = edge
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


def underflow_edge() -> float:
    """The negative ``a`` nearest zero whose ``(a·√½)²`` exceeds ``MAXLOG`` (a ≈ −37.68)."""

    def under(a: float) -> bool:
        x = a * math.sqrt(0.5)
        return x * x > _MAXLOG

    a = -math.sqrt(2.0 * _MAXLOG)
    while under(a):
        a = float(np.nextafter(a, 0.0))
    while not under(a):
        a = float(np.nextafter(a, -np.inf))
    return a


def test_branch_edges_and_neighbours():
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)]
    points = [s * p for e in edges for p in neighbours(e) for s in (1.0, -1.0)]
    edge = underflow_edge()
    points += neighbours(edge, steps=16) + neighbours(-edge, steps=16)
    a = np.asarray(points)
    assert_bitwise(_ndtr(a), ndtr(a))
    # The edge is where the tail goes to exactly zero.
    assert ndtr(edge) == 0.0 and ndtr(float(np.nextafter(edge, 0.0))) > 0.0


def test_underflow_region_scan():
    a = np.linspace(-38.6, -37.4, 20_001)
    assert_bitwise(_ndtr(a), ndtr(a))
    assert_bitwise(_ndtr(-a), ndtr(-a))


def test_special_values():
    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf, np.nan, -np.nan]
    special += [1e-300, -1e300, 1e300, np.finfo(float).max, -np.finfo(float).max]
    a = np.asarray(special)
    assert_bitwise(_ndtr(a), ndtr(a))
    for value in special:
        assert_bitwise(_ndtr(np.asarray(value)), ndtr(np.asarray(value)))
    assert_bitwise(_ndtr(np.empty(0)), ndtr(np.empty(0)))
    assert_bitwise(_ndtr(a.reshape(3, 5)), ndtr(a.reshape(3, 5)))


def test_million_seeded_draws():
    a = np.random.default_rng(2021).uniform(-40.0, 40.0, 1_000_000)
    assert_bitwise(_ndtr(a), ndtr(a))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_subnormal=True),
        min_size=1,
        max_size=64,
    )
)
def test_finite_floats(values):
    a = np.asarray(values, dtype=float)
    assert_bitwise(_ndtr(a), ndtr(a))
