import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy import special as sp

from ruincapital.errors import DomainError
from ruincapital.special import (
    inverse_gaussian_cdf,
    normal_pdf,
    std_normal_quantile,
)


def test_cdf_matches_reference_points():
    assert sp.ndtr(0.0) == pytest.approx(0.5, abs=1e-15)
    assert sp.ndtr(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert sp.ndtr(-37.0) > 0.0


def test_quantile_inverts_cdf():
    for p in (1e-10, 0.025, 0.05, 0.5, 0.9, 1.0 - 1e-10):
        assert sp.ndtr(std_normal_quantile(p)) == pytest.approx(p, rel=1e-9)


def test_quantile_rejects_endpoints():
    with pytest.raises(DomainError):
        std_normal_quantile(0.0)
    with pytest.raises(DomainError):
        std_normal_quantile(1.0)


def test_normal_pdf_integrates_to_one():
    val, _ = integrate.quad(lambda x: normal_pdf(x, 2.0, 9.0), -40, 44)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_inverse_gaussian_cdf_against_scipy():
    mu, lam = 2.5, 7.0
    for x in (0.1, 1.0, 2.5, 10.0, 50.0):
        ref = stats.invgauss.cdf(x, mu / lam, scale=lam)
        assert inverse_gaussian_cdf(x, mu, lam) == pytest.approx(ref, abs=1e-12)


def test_inverse_gaussian_cdf_infinite_mean_limit():
    # zero-drift limit: F(x; inf, lam) = 2 Phi(-sqrt(lam / x))
    lam, x = 4.0, 3.0
    ref = 2.0 * sp.ndtr(-math.sqrt(lam / x))
    assert inverse_gaussian_cdf(x, math.inf, lam) == pytest.approx(ref, rel=1e-12)
    big = inverse_gaussian_cdf(x, 1e14, lam)
    assert big == pytest.approx(ref, rel=1e-6)


def test_inverse_gaussian_cdf_edges():
    with pytest.raises(DomainError):
        inverse_gaussian_cdf(0.0, 1.0, 1.0)
    assert inverse_gaussian_cdf(1e-12, 1.0, 1.0) < 1e-10
    assert inverse_gaussian_cdf(1e9, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_inverse_gaussian_cdf_elementwise():
    xs = np.array([0.5, 1.0, 3.0, 40.0])
    lams = np.array([0.2, 1.0, 7.0, 300.0])
    for mu in (2.5, math.inf):
        out = inverse_gaussian_cdf(xs, mu, lams)
        assert list(out) == [inverse_gaussian_cdf(x, mu, lam) for x, lam in zip(xs, lams)]
        # a scalar x broadcasts against an array lambda
        out = inverse_gaussian_cdf(1.0, mu, lams)
        assert list(out) == [inverse_gaussian_cdf(1.0, mu, lam) for lam in lams]
    # every element of x and lambda is checked
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            inverse_gaussian_cdf([1.0, 2.0], 1.0, np.array([1.0, bad]))
        with pytest.raises(DomainError):
            inverse_gaussian_cdf([1.0, bad], 1.0, np.array([1.0, 2.0]))
