"""The ultimate capital of the exponential pair in closed form.

``capital.ultimate_capital`` answers every light-tailed model by the
adjustment-coefficient enclosure.  Under Exponential(delta) arrivals and
Exponential(rho) claims the ultimate ruin probability is exactly
q exp(-kappa u), with q = delta/(c rho) and kappa = rho - delta/c, so the
capital has the closed form below; the tests hold the library to it.
"""

import math

from ruincapital.errors import InfiniteCapitalError


def ultimate_capital_exp(delta: float, rho: float, alpha: float, c: float) -> float:
    """Smallest u >= 0 with q exp(-kappa u) <= alpha: ln(q/alpha)/kappa, 0 once q <= alpha."""
    if not c * rho > delta:
        raise InfiniteCapitalError("ultimate capital is infinite for c <= c* = delta/rho")
    arg = alpha * c * rho / delta
    if arg >= 1.0:
        return 0.0
    return -math.log(arg) * c / (c * rho - delta)
