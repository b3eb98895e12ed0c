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


def test_a_non_finite_interval_stops_at_once():
    # no halving makes a nan panel finite: one round of 24 nodes, and
    # the other intervals go on to their own values
    f = Counting(lambda x: np.full(x.shape, np.nan))
    with pytest.raises(QuadratureFailure, match=r"\[0.0, 1.0\]: non-finite integrand"):
        quad(f, 0.0, 1.0)
    assert f.sizes == [24]
    g = lambda x, k: np.where(k == 0, np.nan, 1.0 / (x * x + 1e-6))
    with pytest.raises(QuadratureFailure, match="non-finite integrand") as failure:
        quad(g, [0.0, -1.0], [1.0, 1.0])
    assert failure.value.values[1] == quad(lambda x, k: 1.0 / (x * x + 1e-6), -1.0, 1.0)
    # an infinite panel of either sign stops the same way, with no inf - inf
    # warning from its error estimate
    for inf in (np.inf, -np.inf):
        seen = []

        def h(x, k):
            seen.append(np.count_nonzero(k == 1))
            return np.where(k == 1, inf, x)

        with pytest.raises(QuadratureFailure, match="non-finite integrand") as failure:
            quad(h, 0.0, [1.0, 1.0, 2.0])
        assert sum(seen) == 24
        values = failure.value.values
        assert np.isnan(values[1])
        assert values[[0, 2]].tobytes() == quad(lambda x, k: x, 0.0, [1.0, 2.0]).tobytes()


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


def test_failures_are_per_interval():
    # a failing interval stops alone: the error names the first one as a
    # call on it alone would, and carries the others' values bit for bit
    f = lambda x, k: np.where(k == 3, np.nan, np.where(k == 1, 1.0 / x, np.cos(x)))
    a, b = np.array([0.0, 0.0, -1.0, 0.0]), np.array([2.0, 1.0, 3.0, 1.0])
    with pytest.raises(QuadratureFailure) as batch:
        quad(f, a, b)
    with pytest.raises(QuadratureFailure) as alone:
        quad(lambda x, k: 1.0 / x, 0.0, 1.0)
    assert str(batch.value) == str(alone.value)
    v = batch.value.values
    assert v.shape == (4,) and np.isnan(v[1]) and np.isnan(v[3])
    for i in (0, 2):
        assert v[i] == quad(lambda x, k: np.cos(x), a[i], b[i])
