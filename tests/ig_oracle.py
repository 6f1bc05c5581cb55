"""The inverse Gaussian ruin approximation in its defining integral form.

``approx.ig_ruin_probability`` evaluates the closed form; the tests hold it
to this adaptive quadrature of the integral it came from.
"""

import math

from scipy import integrate

from ruincapital.errors import IntegrationError


def ig_integral(u: float, c: float, t: float, m_big: float, d2_big: float) -> float:
    """The defining integral of ig_ruin_probability by quadrature; its closed form's reference."""
    # integrand: (x+1)^{-1} times a Gaussian density in x with mean
    # cM(x+1) and variance (c^2 D^2 / u)(x+1)
    cm = c * m_big
    v0 = c * c * d2_big / u

    def integrand(x):
        y = x + 1.0
        v = v0 * y
        return math.exp(-((x - cm * y) ** 2) / (2.0 * v)) / (math.sqrt(2.0 * math.pi * v) * y)

    hi = c * t / u
    if hi <= 0.0:
        return 0.0
    # the Gaussian peak sits at the fixed point x = cM(x+1), if cM < 1
    xstar = cm / (1.0 - cm) if cm < 1.0 else -1.0
    pts = [xstar] if 0.0 < xstar < hi else None
    val, err = integrate.quad(integrand, 0.0, hi, points=pts, limit=200, epsabs=1e-10, epsrel=1e-10)
    if err > 1e-7:
        raise IntegrationError(f"inverse Gaussian integral error estimate {err:.2e}")
    return float(min(1.0, max(0.0, val)))
