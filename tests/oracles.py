"""mpmath references shared by the test modules."""

from mpmath import mp


def free_part(k: int, x):
    """F_k(x), the k-th derivative of F_0(x) = ln Gamma(x+1) - p(x), p(x) =
    ln sqrt(2 pi) + (x+1/2)(ln(x+1/2) - 1), from mpmath's own loggamma and
    polygamma at the current precision:

        F_0 = ln Gamma(x+1) - p(x),  F_1 = psi(x+1) - ln(x+1/2),
        F_k = psi^(k-1)(x+1) + (-1)^(k-1) (k-2)!/(x+1/2)^(k-1),  k >= 2.
    """
    xm = mp.mpf(x)
    u = xm + mp.mpf(1) / 2
    if k == 0:
        return mp.loggamma(xm + 1) - (mp.log(2 * mp.pi) / 2 + u * (mp.log(u) - 1))
    if k == 1:
        return mp.digamma(xm + 1) - mp.log(u)
    return mp.polygamma(k - 1, xm + 1) + (-1) ** (k - 1) * mp.factorial(k - 2) / u ** (k - 1)
