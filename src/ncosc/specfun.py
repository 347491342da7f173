"""Special-function kernel: generalized Laguerre and Jacobi polynomials,
and the modified Bessel function of the first kind. Log-gamma is
math.lgamma, a few ulp across its whole domain.

Everything downstream (wavefunctions, closed-form kernels, spectral
sums) is built from these callables, so they are kept free of any
dependence on the rest of the package. Polynomial evaluators accept scalar
or ndarray arguments. The stacked evaluators laguerre_all and jacobi_all
each build a table of recurrence coefficients (Python-float rows for one
order) for one stepper, which runs
P_k = ((c2 + c3 x) P_{k-1} - c4 P_{k-2}) / c1 from P_{-1} = 0 and P_0 = 1.
It steps one order on up to _FLOAT_COLUMNS points point by point on
Python floats, where numpy's fixed cost per operation would dominate, and
more points, or an array of orders, on numpy arrays. Both do the same IEEE
operations in the same order and give the same bits. laguerre, a numpy
recurrence of its own, is left to the checks that compare the two.

The Bessel routines take one path: the scaled e^-x I_nu(x) of Amos's
algorithm (ACM TOMS 644), through scipy's compiled scalar `ive` on floats
and its ufunc on the arrays that log_bessel_ie_from_log takes from the
lattice. scipy is imported on the first Bessel call, not with this
module, so the polynomial evaluators need numpy alone. Two
fallbacks remain, each only where Amos cannot answer, on floats (one
array entry at a time): the ascending series
where e^-x I_nu(x) underflows to 0 or a subnormal while its logarithm
still fits, and the 1/x expansion past Amos's argument limit
(x > 2^30 - 1/2), where it returns nan. Log-space variants exist where the
linear value can leave the floating range.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "laguerre",
    "laguerre_all",
    "jacobi",
    "jacobi_all",
    "bessel_i",
    "log_bessel_ie",
    "log_bessel_ie_from_log",
]

# exp() overflows past this; used to signal out-of-range Bessel results
_LOG_HUGE = math.log(np.finfo(float).max)
# below this a float is subnormal
_TINY = float(np.finfo(float).tiny)
_LOG_TINY = math.log(_TINY)

# _three_term steps one order on at most this many points point by point on
# Python floats, and more points, or an array of orders, on numpy arrays. On
# a 2-core Xeon (Python 3.11, numpy 2.4) a numpy step cost 3-4.4 us at any
# width up to 32 points and a float step 0.13-0.15 us per point; with the
# fixed cost of stacking the points, floats won up to 24-28 points at 25-80
# degrees but only up to 12-16 at 8 degrees.
_FLOAT_COLUMNS = 12


def _check_degree(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"polynomial degree must be a non-negative integer, got {n!r}")


def laguerre(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^a(x).

    Args:
        n: degree, non-negative integer.
        a: superscript, finite and above -1.
        x: evaluation point, scalar or ndarray.

    Returns:
        L_n^a(x) with the shape of x, evaluated by the upward three-term
        recurrence (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}.
    """
    _check_degree(n)
    if not -1 < a < math.inf:
        raise ValueError(f"laguerre requires finite a > -1, got a={a}")
    xa = np.asarray(x, dtype=float)
    prev = np.zeros_like(xa)
    cur = np.ones_like(xa)
    for k in range(n):
        cur, prev = ((2 * k + 1 + a - xa) * cur - (k + a) * prev) / (k + 1), cur
    return float(cur) if np.ndim(x) == 0 else cur


def _three_term(rows, x: np.ndarray, lead: tuple = ()) -> np.ndarray:
    """Stacked [P_0(x), ..., P_n(x)] of the three-term recurrence
    P_k = ((c2 + c3 x) P_{k-1} - c4 P_{k-2}) / c1, from P_{-1} = 0 and P_0 = 1.

    rows holds the (c1, c2, c3, c4) of degrees 1..n: a list of n tuples of
    Python floats for one order or, for an array of orders of shape lead, an
    ndarray of shape (n, 4) + lead. The result has shape
    (n + 1,) + lead + shape(x). One order on up to _FLOAT_COLUMNS points is
    stepped point by point on Python floats; anything wider, every array of
    orders included, together on numpy arrays, with the same IEEE
    operations in the same order.
    """
    n = len(rows)
    if not lead and x.size <= _FLOAT_COLUMNS:
        out = np.empty((n + 1, x.size))
        for j, v in enumerate(x.ravel().tolist()):
            prev, cur = 0.0, 1.0
            col = [cur]
            append = col.append
            for c1, c2, c3, c4 in rows:
                prev, cur = cur, ((c2 + c3 * v) * cur - c4 * prev) / c1
                append(cur)
            out[:, j] = col
        return out.reshape((n + 1,) + x.shape)
    c = np.asarray(rows, dtype=float).reshape((n, 4) + lead + (1,) * x.ndim)
    # out[k + 1] holds P_k: c3 x + c2 of every degree is written first and
    # then stepped in place, degree by degree; IEEE addition commutes, so
    # these are the float path's operations
    out = np.empty((n + 2,) + lead + x.shape)
    out[0], out[1] = 0.0, 1.0
    np.multiply(c[:, 2], x, out=out[2:])
    out[2:] += c[:, 1]
    for k, (c1, _, _, c4) in enumerate(c if lead else rows, start=2):
        cur = out[k]
        cur *= out[k - 1]
        cur -= c4 * out[k - 2]
        cur /= c1
    return out[1:]


def laguerre_all(n_max: int, a, x) -> np.ndarray:
    """All degrees at once: stacked [L_0^a(x), ..., L_{n_max}^a(x)].

    Spectral sums need every degree up to the cutoff; running the
    recurrence once and keeping the intermediates is n_max times cheaper
    than repeated calls. An array of orders runs one recurrence for all of
    them: the result has shape (n_max + 1,) + shape(a) + shape(x), with x
    made at least 1-d, and each order's slice equals the call with that
    order alone, bit for bit.
    """
    _check_degree(n_max)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.asarray(a, dtype=float)
    if not all(-1 < v < math.inf for v in a.ravel().tolist()):
        raise ValueError(f"laguerre requires finite a > -1, got a={a}")
    # (k + 1) L_{k+1} = (2k + 1 + a - x) L_k - (k + a) L_{k-1}
    if a.ndim:
        k = np.arange(n_max, dtype=float).reshape((-1,) + (1,) * a.ndim)
        rows = np.stack(np.broadcast_arrays(k + 1, 2 * k + 1 + a, -1.0, k + a), axis=1)
    else:
        af = float(a)
        rows = [(k + 1.0, 2 * k + 1 + af, -1.0, k + af) for k in range(n_max)]
    return _three_term(rows, xa, a.shape)


def jacobi(n: int, a: float, b: float, x):
    """Jacobi polynomial P_n^{(a,b)}(x) by the upward recurrence in degree.

    Args:
        n: degree, non-negative integer.
        a, b: exponents, each finite and above -1.
        x: evaluation point, scalar or ndarray.
    """
    arr = jacobi_all(n, a, b, x)[n]
    return float(arr[0]) if np.ndim(x) == 0 else arr


def jacobi_all(n_max: int, a: float, b: float, x) -> np.ndarray:
    """Stacked Jacobi polynomials [P_0^{(a,b)}(x), ..., P_{n_max}^{(a,b)}(x)].

    The result has shape (n_max + 1,) + shape(x), x made at least 1-d.
    """
    _check_degree(n_max)
    if not (-1 < a < math.inf and -1 < b < math.inf):
        raise ValueError(f"jacobi requires finite a > -1 and b > -1, got a={a}, b={b}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    # 2 P_1 = (a - b) + (a + b + 2) x, then the standard three-term
    # recurrence; all leading coefficients are positive for a,b > -1 once
    # k >= 2, except that at k = 2 the factor s - 2 = a + b + 2 rounds to 0
    # when a + b is -2 to within an ulp
    rows = [(1.0, 0.5 * (a - b), 0.5 * (a + b + 2), 0.0)][:n_max]
    for k in range(2, n_max + 1):
        s = 2 * k + a + b
        rows.append((2 * k * (k + a + b) * (s - 2), (s - 1) * (a * a - b * b),
                     (s - 1) * s * (s - 2), 2 * (k + a - 1) * (k + b - 1) * s))
    if len(rows) > 1 and rows[1][0] == 0:
        raise ValueError(f"jacobi recurrence divides by a + b + 2, which rounds to 0 at a={a}, b={b}")
    return _three_term(rows, xa)


def _compiled(name: str):
    """Stub for scipy's compiled scalar `name`: its first call rebinds the
    module's _<name> to the compiled function, so later calls pay no import."""
    def stub(*args):
        from scipy.special import cython_special
        fn = globals()["_" + name] = getattr(cython_special, name)
        return fn(*args)

    return stub


_ive = _compiled("ive")  # e^-x I_nu(x)
_exprel = _compiled("exprel")  # (e^x - 1)/x, 1 at x = 0


def _log_bessel_series(nu: float, x: float) -> float:
    """ln I_nu(x) - x from the ascending series.

    Every term is positive, so the sum never cancels; the running sum is
    rescaled whenever it grows large, which keeps the series usable far
    past the linear floating range.
    """
    # t_0 = (x/2)^nu / Gamma(nu+1); remaining terms by ratio recurrence
    log_t0 = nu * math.log(0.5 * x) - math.lgamma(nu + 1)
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    offset = 0.0
    # k is counted as a float, which keeps the arithmetic off the mixed
    # int-float path; the terms grow until k (k + nu) = x^2/4, so the cap
    # on the count is reached where x is far past nu (nu = 4e4, x = 1e6)
    k = 0.0
    for _ in range(200000):
        k += 1.0
        term *= q / (k * (nu + k))
        total += term
        if term < 1e-18 * total:
            break
        if total > 1e280:
            scale = 1e-280
            total *= scale
            term *= scale
            offset -= math.log(scale)
    else:
        raise ValueError(f"ln I_nu(x) not computable at nu={nu}, x={x}: ive underflows there "
                         "and the ascending series needs more than 200000 terms")
    return log_t0 + offset + math.log(total) - x


def _log_bessel_asymptotic(nu: float, x: float) -> float:
    """ln I_nu(x) - x from the large-argument expansion, valid for x >> nu^2.

    I_nu(x) ~ e^x/sqrt(2 pi x) * sum_k (-1)^k a_k(nu)/x^k with
    a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k). The series is
    truncated at its smallest term.
    """
    fournu2 = 4 * nu * nu
    term = 1.0
    total = 1.0
    prev_mag = math.inf
    for k in range(1, 40):
        term *= -(fournu2 - (2 * k - 1) ** 2) / (8 * k * x)
        mag = abs(term)
        if mag >= prev_mag:  # divergent tail reached; stop at the optimum
            break
        total += term
        prev_mag = mag
        if mag < 1e-18:
            break
    # 2 pi x overflows past x = 2.9e307, so its logarithm is taken as a sum
    return math.log(total) - 0.5 * (math.log(2 * math.pi) + math.log(x))


def log_bessel_ie(nu: float, x: float) -> float:
    """Scaled ln I_nu(x) - x for nu >= 0 and finite x >= 0; -inf when I_nu(x) = 0 (x=0, nu>0).

    Where I_nu(x) is multiplied by a Gaussian of order e^-x, as in the
    closed radial kernel, the two exponents cancel; this form keeps the
    difference without forming either. It is ln ive(nu, x) wherever ive
    returns a normal float. Raises ValueError where ive underflows and the
    ascending series would need more than 200000 terms.
    """
    if not (0 <= nu < math.inf and 0 <= x < math.inf):
        raise ValueError(f"log_bessel_ie requires finite nu >= 0 and finite x >= 0, got nu={nu}, x={x}")
    nu, x = float(nu), float(x)
    scaled = _ive(nu, x)
    if scaled >= _TINY:
        return math.log(scaled)
    if x == 0:  # and nu > 0: ive(0, 0) = 1 returned above
        return -math.inf
    # Amos returns nan past its argument limit; there the 1/x expansion,
    # once x is well past nu^2, is exact to rounding
    if scaled != scaled and x >= 4.5 * nu * nu + 25.0:
        return _log_bessel_asymptotic(nu, x)
    # ive underflowed: the series keeps the logarithm, free of cancellation
    return _log_bessel_series(nu, x)


def log_bessel_ie_from_log(nu: float, log_x):
    """ln I_nu(x) - x at x = e^log_x, also where x is outside the normal
    float range: below it I_nu(x) is its leading power (x/2)^nu / Gamma(nu + 1),
    above it the leading term e^x / sqrt(2 pi x) of its expansion. log_x =
    -inf is x = 0 itself, where I_0 is 1 and every other order is 0. On an
    array log_x, scipy's `ive` ufunc serves the normal range and the float
    path every other entry."""
    if not 0 <= nu < math.inf:
        raise ValueError(f"log_bessel_ie_from_log requires finite nu >= 0, got nu={nu}")
    # floats skip the isinstance test, which would add about 2% to a closed-kernel call
    if type(log_x) is not float and isinstance(log_x, np.ndarray):
        from scipy.special import ive

        scaled = ive(nu, np.exp(np.minimum(log_x, _LOG_HUGE)))
        ok = (log_x >= _LOG_TINY) & (log_x <= _LOG_HUGE) & (scaled >= _TINY)
        out = np.log(np.where(ok, scaled, 1.0))
        for i in np.flatnonzero(~ok):
            out.flat[i] = log_bessel_ie_from_log(nu, float(log_x.flat[i]))
        return out
    if -math.inf < log_x < _LOG_TINY:
        return nu * (log_x - math.log(2.0)) - math.lgamma(nu + 1)
    if log_x > _LOG_HUGE:
        return -0.5 * (math.log(2 * math.pi) + log_x)
    x = math.exp(log_x)
    scaled = _ive(nu, x)  # log_bessel_ie's first path, here without its checks
    return math.log(scaled) if scaled >= _TINY else log_bessel_ie(nu, x)


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x) for finite nu >= 0 and finite x >= 0.

    exp(log_bessel_ie(nu, x) + x); results exceeding the floating range
    raise OverflowError rather than returning inf.
    """
    lg = log_bessel_ie(nu, x) + x
    if lg > _LOG_HUGE:
        raise OverflowError(f"bessel_i result exceeds floating range: ln I_{nu}({x}) = {lg:.6g}")
    return math.exp(lg)
