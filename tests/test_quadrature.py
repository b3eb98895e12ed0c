"""Batched adaptive Gauss-Legendre quadrature: values and bounded work."""
import math

import numpy as np
import pytest

from schreg.errors import QuadratureFailure
from schreg.quadrature import _MAX_PANELS, gauss, quad


def test_batch_matches_closed_forms():
    a = np.array([0.0, -1.0, 2.0, 0.0])
    b = np.array([1.0, 3.0, 2.5, 10.0])
    got = quad(lambda x, k: np.exp(-x) * np.cos(3.0 * x), a, b)
    F = lambda x: math.exp(-x) * (3.0 * math.sin(3.0 * x) - math.cos(3.0 * x)) / 10.0
    want = [F(hi) - F(lo) for lo, hi in zip(a, b)]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_complex_integrand_and_per_interval_index():
    # f sees which interval each point belongs to
    w = np.array([1.0, 2.0, 5.0])
    got = quad(lambda x, k: np.exp(1j * w[k] * x), 0.0, np.full(3, math.pi))
    want = (np.exp(1j * w * math.pi) - 1.0) / (1j * w)
    assert got.dtype == complex
    assert np.max(np.abs(got - want)) <= 1e-14


def test_empty_and_reversed_intervals():
    got = quad(lambda x, k: x * x, [0.0, 2.0, 1.0], [0.0, 0.0, 1.0])
    assert got[0] == 0.0 and got[2] == 0.0
    assert got[1] == pytest.approx(-8.0 / 3.0, rel=1e-15)


def test_batch_is_bitwise_single_calls():
    # a peaked integrand, so the intervals split to different depths
    f = lambda x, k: 1.0 / (x * x + 1e-6)
    a = np.array([-1.0, -0.5, 0.1, -3.0, 2.0])
    b = np.array([1.0, 0.001, 4.0, 0.0, 7.0])
    batch = quad(f, a, b)
    for i in range(len(a)):
        assert quad(f, a[i], b[i]) == batch[i]
    assert batch[0] == pytest.approx(2e3 * math.atan(1e3), rel=1e-12)


def test_rejects_infinite_ends():
    with pytest.raises(ValueError):
        quad(lambda x, k: x, 0.0, math.inf)


class Counting:
    """Integrand wrapper recording the size of every batch it is given."""

    def __init__(self, f):
        self.f, self.sizes = f, []

    def __call__(self, x, k):
        self.sizes.append(x.size)
        return self.f(x)


@pytest.mark.parametrize("case", ["non-integrable", "below-rounding"])
def test_unreachable_tolerance_raises_with_bounded_work(case):
    if case == "non-integrable":
        f, kw = Counting(lambda x: 1.0 / x), {}
    else:
        f, kw = Counting(np.exp), {"rtol": 1e-20, "atol": 0.0}
    with pytest.raises(QuadratureFailure):
        quad(f, 0.0, 1.0, **kw)
    # no round holds more than the cap's worth of panels (24 nodes each),
    # and splitting stops within a bounded number of rounds
    assert max(f.sizes) <= _MAX_PANELS * 24
    assert len(f.sizes) <= _MAX_PANELS


def test_nan_integrand_raises():
    with pytest.raises(QuadratureFailure):
        quad(lambda x, k: np.where(x > 0.5, np.nan, x), 0.0, 1.0)


@pytest.mark.parametrize("n", [8, 16, 24])
def test_gauss_is_leggauss_bitwise(n):
    x, w = gauss(n)
    want_x, want_w = np.polynomial.legendre.leggauss(n)
    assert (x.tobytes(), w.tobytes()) == (want_x.tobytes(), want_w.tobytes())
    assert gauss(n) is gauss(n)   # built once, shared read-only by every caller
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_gauss_serves_only_its_tabled_sizes():
    with pytest.raises(ValueError, match="8, 16 and 24"):
        gauss(5)
