"""Euclidean-time kernels: the closed radial form, spectral sums, and a
transfer-matrix lattice propagator for the discretized radial action.

All kernels live at imaginary time tau > 0, where they are positive and
every identity is numerically checkable. The closed radial kernel

    K(rb, ra; tau) = e^{v0 tau/hbar} / sqrt(ra rb)
                     * (mu omega / (hbar sinh(omega tau)))
                     * I_{ell+1/2}(mu omega ra rb / (hbar sinh(omega tau)))
                     * exp[-(mu omega/2 hbar)(ra^2+rb^2) coth(omega tau)]

integrates against the r^2 dr measure, matching the spectral form
sum_n e^{-E_n tau/hbar} R_n(ra) R_n(rb); the lattice kernel is normalized
to the same convention. ln K is coded once, in _log_radial_kernel, and the
lattice slice is that expression at omega = 0, the free radial kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    AngularMode,
    PotentialParams,
    _check_count,
    _radial_potential,
    admissible_sectors,
    angular_mode,
    effective_ell,
    ladder_energy,
    radial_extent,
)
from .oracle import gauss_panels
from . import specfun
from .specfun import _LOG_HUGE, log_bessel_ie_from_log
from .spectrum import angular_profiles, radial_factors, radial_profiles

_LN2 = math.log(2.0)
# powers of two beyond this are 0 or overflow in any float sum
_EXP_CLIP = 1 << 20

__all__ = [
    "PropagatorQuery",
    "LatticeSpec",
    "SpectralKernel",
    "radial_kernel_closed",
    "radial_kernel_spectral",
    "angular_kernel_spectral",
    "full_kernel_spectral",
    "integrated_diagonal_kernel",
    "lattice_radial_kernel",
    "lattice_kernel_grid",
]


def _check_tau(tau: float) -> None:
    """Reject a Euclidean time that is not positive and finite."""
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")


@dataclass(frozen=True)
class PropagatorQuery:
    """Endpoints, Euclidean time, and truncation cutoffs for the full kernel."""

    ra: float
    rb: float
    theta_a: float
    theta_b: float
    phi_a: float
    phi_b: float
    tau: float
    n_cut: int
    ntheta_cut: int
    m_cut: int

    def __post_init__(self) -> None:
        if not (0 < self.ra < math.inf and 0 < self.rb < math.inf):
            raise ValueError(f"endpoints require finite ra > 0 and rb > 0, got ra={self.ra}, rb={self.rb}")
        for name in ("theta_a", "theta_b"):
            th = getattr(self, name)
            if not 0 < th < math.pi / 2:
                raise ValueError(f"{name} must lie in (0, pi/2), got {th}")
        for name in ("phi_a", "phi_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        _check_tau(self.tau)
        _check_count("n_cut", self.n_cut, 1)
        _check_count("ntheta_cut", self.ntheta_cut, 1)
        _check_count("m_cut", self.m_cut, 0)


@dataclass(frozen=True)
class LatticeSpec:
    """Time-slice count and radial grid for the transfer-matrix kernel; the
    default grid, 400 points on [0.02, 8], is the one the CLI and the checks use."""

    n_slices: int
    r_min: float = 0.02
    r_max: float = 8.0
    n_grid: int = 400

    def __post_init__(self) -> None:
        _check_count("n_slices", self.n_slices, 1)
        if not 0 < self.r_min < self.r_max < math.inf:
            raise ValueError("lattice grid requires 0 < r_min < r_max < inf")
        _check_count("n_grid", self.n_grid, 16)


class SpectralKernel(NamedTuple):
    """Truncated spectral sum plus a rigorous bound on the dropped tail,
    from Szego's envelope of the Laguerre functions."""

    value: float
    tail_bound: float


def _log_radial_kernel(mu_over_hbar: float, omega: float, nu: float, ra, rb, tau: float):
    """ln K/e^{v0 tau/hbar} of order nu = ell + 1/2, at endpoints ra and rb
    that are floats or broadcast arrays; at omega = 0 it is the free radial kernel.

    One expression in which every factor is a logarithm; specfun alone
    handles the float range of the Bessel argument
    z = mu omega ra rb/(hbar sinh omega tau). The functions of omega tau come
    from s = (1 - e^{-omega tau})/(omega tau), 1 at omega tau = 0, and the
    product omega tau is never logged, so the kernel keeps its digits where it
    is subnormal or 0. ln I_nu(z) - z enters scaled, and z joins the
    Gaussian exponent -(mu omega/2 hbar)[(ra - rb)^2 coth(omega tau) + 2 ra rb tanh(omega tau/2)]:
    at short times both are of order 1/tau and would cancel.
    """
    wt = omega * tau
    s = specfun._exprel(-wt)
    u = wt * s  # 1 - e^{-omega tau}; tanh(omega tau/2) = u/(2 - u)
    c = s * (2 - u)  # (1 - e^{-2 omega tau})/(omega tau); coth(omega tau) = (2 - u (2 - u))/(omega tau c)
    # math.log on floats: np.log on two floats would add about 40% to a closed-kernel call
    log = math.log if type(ra) is type(rb) is float else np.log
    log_rr = log(ra) + log(rb)
    log_a = math.log(2 * mu_over_hbar) - math.log(tau) - math.log(c) - wt  # ln(mu omega/(hbar sinh omega tau))
    d = ra - rb
    return (log_a + log_bessel_ie_from_log(nu, log_a + log_rr)
            - mu_over_hbar * (0.5 * d * d / tau * (2 - u * (2 - u)) / c + omega * ra * (rb * u) / (2 - u))
            - 0.5 * log_rr)


def radial_kernel_closed(p: PotentialParams, n_theta: int, m: int, ra: float, rb: float, tau: float) -> float:
    """Closed-form Euclidean radial kernel for the (n_theta, m) sector,
    exp(_log_radial_kernel + v0 tau/hbar), exponentiated once."""
    if not (0 < ra < math.inf and 0 < rb < math.inf):
        raise ValueError(f"radial_kernel_closed requires finite ra > 0 and rb > 0, got ra={ra}, rb={rb}")
    if not (0 < tau and p.omega * tau < math.inf):
        raise ValueError(f"tau must be positive with omega tau finite, got tau={tau}, omega={p.omega}")
    ell = effective_ell(p, n_theta, m)
    log_k = _log_radial_kernel(p.mu / p.hbar, p.omega, ell + 0.5, ra, rb, tau) + p.v0 * tau / p.hbar
    if log_k > _LOG_HUGE:
        raise OverflowError(
            f"radial_kernel_closed at tau={tau} with endpoints ({ra}, {rb}) is e^{log_k:.6g}, "
            "beyond the float range"
        )
    return math.exp(log_k)


def _to_float(exponent, mantissa, what: str):
    """mantissa 2^exponent, elementwise, raising OverflowError when a value
    leaves the float range; values below it round to subnormals or 0."""
    with np.errstate(divide="ignore"):
        log_abs = exponent * _LN2 + np.log(np.abs(mantissa))
    worst = float(np.max(log_abs, initial=-math.inf))
    if worst > _LOG_HUGE:
        raise OverflowError(f"{what} is e^{worst:.6g}, beyond the float range")
    return np.ldexp(mantissa, np.clip(exponent, -_EXP_CLIP, _EXP_CLIP).astype(np.int64))


def _spectral_sums(p: PotentialParams, ell, ra: np.ndarray, rb: np.ndarray, tau: float, n_cut: int):
    """Radial spectral sums sum_{n<=n_cut} e^{-E_n tau/hbar} R_n(ra) R_n(rb) in
    scaled form (exponent, mantissa), value = mantissa 2^exponent.

    Each term is split into a power of two and a factor below 1.5 in
    magnitude: the time weight and the radial envelopes (radial_factors)
    through their logarithm, the polynomial parts through frexp, which is
    exact. The largest power of two over the terms is factored out of the
    sum, so the mantissa stays below 1.5 (n_cut + 1) in magnitude, and a term
    only underflows when it is below 2^-1074 of the largest. The Laguerre
    polynomials themselves are unscaled; past x = mu omega r^2/hbar of about
    1400 they can overflow, and radial_factors raises OverflowError. ell is one
    ell_tilde or an array of them, ra and rb 1-d endpoint arrays of one
    length P; both results have shape shape(ell) + (P,).
    """
    ell = np.asarray(ell, dtype=float)
    n_pts = len(ra)
    log_env, poly = radial_factors(p, ell, n_cut, np.concatenate([ra, rb]))
    degrees = np.arange(n_cut + 1).reshape((-1,) + (1,) * (ell.ndim + 1))
    log_w = -ladder_energy(p, degrees, ell[..., None]) * tau / p.hbar + log_env[..., :n_pts] + log_env[..., n_pts:]
    # a weight below e^-1e7 is 0 in any float sum (an envelope of 0, where x
    # underflowed, gives -inf), and one above e^1e7 overflows it
    log_w = np.clip(log_w, -1e7, 1e7)
    k = np.rint(log_w / _LN2)
    frac, power = np.frexp(poly)
    factor = np.where(log_w > -1e7, np.exp(log_w - k * _LN2) * frac[..., :n_pts] * frac[..., n_pts:], 0.0)
    power = np.where(factor != 0, k + power[..., :n_pts] + power[..., n_pts:], -_EXP_CLIP)
    top = np.max(power, axis=0)
    shift = np.maximum(power - top, -_EXP_CLIP).astype(np.int64)
    # summed in order of degree, whatever the batch shape, so a longer
    # cutoff only adds its extra terms to the same partial sum
    return top, np.cumsum(np.ldexp(factor, shift), axis=0)[-1]


def radial_kernel_spectral(
    p: PotentialParams, n_theta: int, m: int, ra, rb, tau: float, n_cut: int
) -> SpectralKernel:
    """Spectral sum sum_{n=0}^{n_cut} e^{-E_n tau/hbar} R_n(ra) R_n(rb).

    ra and rb may be arrays, broadcast against each other; both fields of
    the result then have their shape, and scalar endpoints give floats. Each
    term is held as a power of two times a factor, and the largest power is
    factored out of the sum, so the value is returned whenever it fits in a
    float (a value below the normal range rounds to a subnormal or 0) and
    OverflowError is raised when it does not. The one further limit is the
    unscaled Laguerre recurrence: L_n^{ell+1/2}(x), x = mu omega r^2/hbar,
    grows like e^{x/2} where n > x/4, so past x of about 1400 a high enough
    n_cut overflows it, and radial_factors raises OverflowError.

    The reported tail bound majorizes the dropped n > n_cut terms. Szego's
    inequality |e^{-x/2} L_n^a(x)| <= C_n = Gamma(n+a+1) / (n! Gamma(a+1)),
    a = ell + 1/2 >= 1/2, bounds the n-th term by
    u_n = e^{-E_n tau/hbar} N_n^2 C_n^2 (q_a q_b)^ell (N_n the radial norm,
    q = sqrt(mu omega/hbar) r), with N_n^2 C_n^2 a ratio of gamma functions,
    so no norm is formed. The ratio u_{n+1}/u_n = y (n+a+1)/(n+1),
    y = e^{-2 omega tau}, falls with n, so once it is below 1 at n_cut + 1
    the tail is at most u_{n_cut+1}/(1 - ratio); otherwise it is at most the
    whole envelope series u_0 (1 - y)^-(a+1). The bound is computed in log
    space and rounded up to the smallest subnormal when it underflows.
    """
    a_pts, b_pts = np.broadcast_arrays(np.asarray(ra, dtype=float), np.asarray(rb, dtype=float))
    for name, pts in (("ra", a_pts), ("rb", b_pts)):
        if not np.all((pts > 0) & (pts < math.inf)):
            raise ValueError(f"radial_kernel_spectral requires finite {name} > 0, got {name}={pts}")
    _check_tau(tau)
    _check_count("n_cut", n_cut, 1)
    ell = effective_ell(p, n_theta, m)
    scalar = a_pts.ndim == 0
    where = f" with endpoints ({ra}, {rb})" if scalar else ""
    exponent, mantissa = _spectral_sums(p, ell, a_pts.ravel(), b_pts.ravel(), tau, n_cut)
    value = _to_float(exponent, mantissa, f"radial_kernel_spectral at tau={tau}{where}").reshape(a_pts.shape)

    a = ell + 0.5
    y = math.exp(-2 * p.omega * tau)
    c = p.mu * p.omega / p.hbar
    # the part of ln u_n that does not vary with n, from N_n^2 C_n^2 = 2 c^{3/2} Gamma(n+a+1) / (n! Gamma(a+1)^2)
    log_lead = _LN2 + 1.5 * math.log(c) - 2 * math.lgamma(a + 1) + ell * np.log(c * a_pts * b_pts)

    def log_envelope(n: int):
        return -ladder_energy(p, n, ell) * tau / p.hbar + math.lgamma(n + a + 1) - math.lgamma(n + 1.0) + log_lead

    ratio = y * (n_cut + a + 2) / (n_cut + 2)
    if ratio < 1:
        log_tail = log_envelope(n_cut + 1) - math.log1p(-ratio)
    else:
        # 1 - y = 2 omega tau exprel(-2 omega tau); omega tau may round to 0, so it is never logged
        log_one_m_y = _LN2 + math.log(p.omega) + math.log(tau) + math.log(specfun._exprel(-2 * p.omega * tau))
        log_tail = log_envelope(0) - (a + 1) * log_one_m_y
    tail = np.where(log_tail > _LOG_HUGE, math.inf, np.maximum(np.exp(np.minimum(log_tail, _LOG_HUGE)), math.ulp(0.0)))
    if scalar:
        return SpectralKernel(value=float(value), tail_bound=float(tail))
    return SpectralKernel(value=value, tail_bound=tail)


def angular_kernel_spectral(p: PotentialParams, m: int, theta_a, theta_b, s_tau: float, ntheta_cut: int):
    """Angular spectral kernel sum_{n_theta <= cut} e^{-eps s_tau/hbar} Theta(theta_a) Theta(theta_b).

    theta_a and theta_b may be arrays, broadcast against each other, and the
    result then has their shape; scalar angles give a float. angular_profiles checks them.
    """
    th_a, th_b = np.broadcast_arrays(np.asarray(theta_a, dtype=float), np.asarray(theta_b, dtype=float))
    if not 0 < s_tau < math.inf:
        raise ValueError(f"s_tau must be positive and finite, got {s_tau}")
    _check_count("ntheta_cut", ntheta_cut, 1)
    modes = [angular_mode(p, n_theta, m) for n_theta in range(ntheta_cut + 1)]
    prof = angular_profiles(modes, np.concatenate([th_a.ravel(), th_b.ravel()]))
    weight = np.exp(-np.array([mode.eps for mode in modes]) * s_tau / p.hbar)
    total = np.cumsum(weight[:, None] * prof[:, :th_a.size] * prof[:, th_a.size:], axis=0)[-1].reshape(th_a.shape)
    return float(total) if th_a.ndim == 0 else total


def _sector_blocks(p: PotentialParams, ntheta_cut: int, m_cut: int) -> list[tuple[int, list[AngularMode], np.ndarray]]:
    """(m, angular modes, ell_tilde array) of each m <= m_cut whose sectors
    n_theta <= ntheta_cut hold bound states, by increasing m and n_theta; the
    one walk of the sector box, reading each sector once through
    admissible_sectors. A list, so a sum may read its orders before it loops."""
    scans = [list(itertools.takewhile(lambda t: t[0] <= ntheta_cut, admissible_sectors(p, m)))
             for m in range(m_cut + 1)]
    return [(m, [mode for _, _, mode in s], np.array([ell for _, ell, _ in s])) for m, s in enumerate(scans) if s]


def full_kernel_spectral(p: PotentialParams, q: PropagatorQuery) -> complex:
    """Truncated spectral decomposition of the full Euclidean kernel.

    K(b, a; tau) = sum over admissible (n, n_theta, m) within the cutoffs of
    e^{-E tau/hbar} psi*(a) psi(b); real and positive on the diagonal.
    Sectors +m and -m share ell_tilde and Theta, so they are summed once
    with weight 2 cos(m dphi)/2pi, and K is real. The angular factors take
    one Jacobi recurrence per |m|; the radial sums take one Laguerre
    recurrence, with one order per sector, and stay a power of two times a
    mantissa until the sector sum is formed.
    """
    blocks = _sector_blocks(p, q.ntheta_cut, q.m_cut)
    if not blocks:
        return 0.0 + 0.0j
    dphi = q.phi_b - q.phi_a
    coef = []
    for m, modes, _ in blocks:
        ang = angular_profiles(modes, [q.theta_a, q.theta_b])
        weight = (1.0 if m == 0 else 2 * math.cos(m * dphi)) / (2 * math.pi)
        coef.append(weight * ang[:, 0] * ang[:, 1])
    ells = np.concatenate([ell for _, _, ell in blocks])
    exponent, mantissa = _spectral_sums(p, ells, np.array([q.ra]), np.array([q.rb]), q.tau, q.n_cut)
    top = float(np.max(exponent))
    shift = np.maximum(exponent[:, 0] - top, -_EXP_CLIP).astype(np.int64)
    total = float(np.sum(np.concatenate(coef) * np.ldexp(mantissa[:, 0], shift)))
    return complex(_to_float(top, total, f"full_kernel_spectral at tau={q.tau}"))


def integrated_diagonal_kernel(p: PotentialParams, tau: float, n_cut: int, ntheta_cut: int, m_cut: int) -> float:
    """Integral of the diagonal truncated kernel over the half-space.

    Computes int K(a, a; tau) r^2 sin(theta) dr d(theta) d(phi) by tensor
    Gauss-Legendre quadrature (8 radial panels of 50 nodes out to the
    radial_extent of the largest ell_tilde, 4 angular panels of 40 nodes),
    with the phi integral done exactly (the diagonal kills the azimuthal
    phase). Equals the partition-function partial sum over the same index
    box up to quadrature error, which is the trace-consistency check the
    verify suite runs. Each |m| takes one Jacobi and one Laguerre recurrence
    for all its sectors. A box that holds no bound sector integrates to 0.
    The three cutoffs are integers >= 0. OverflowError is raised where the
    integral, a Laguerre or a Jacobi polynomial leaves the float range, and
    before any exponential where the lowest weight e^{-E_0 tau/hbar} does.
    """
    _check_tau(tau)
    for name, cut in (("n_cut", n_cut), ("ntheta_cut", ntheta_cut), ("m_cut", m_cut)):
        _check_count(name, cut, 0)
    blocks = _sector_blocks(p, ntheta_cut, m_cut)
    if not blocks:
        return 0.0
    ells = np.concatenate([ell for _, _, ell in blocks])
    overflow = OverflowError(f"integrated_diagonal_kernel at tau={tau} is beyond the float range")
    e0 = ladder_energy(p, 0, float(np.min(ells)))
    log_w0 = -e0 * tau / p.hbar
    if log_w0 > _LOG_HUGE:
        raise overflow
    xr, wr = gauss_panels(0.0, radial_extent(p, n_cut, float(np.max(ells))), n_panels=8, n_nodes=50)
    xt, wth = gauss_panels(0.0, math.pi / 2, n_panels=4, n_nodes=40)
    wr_meas = wr * xr * xr
    wt_meas = wth * np.sin(xt)
    # every weight is held over the lowest, e^{-E_0 tau/hbar}, so is at most 1
    total = 0.0
    for m, modes, ell in blocks:
        mult = 1.0 if m == 0 else 2.0
        ang_sq = angular_profiles(modes, xt) ** 2 @ wt_meas
        rad_sq = radial_profiles(p, ell, n_cut, xr) ** 2 @ wr_meas
        energies = ladder_energy(p, np.arange(n_cut + 1)[:, None], ell)
        total += mult * float(ang_sq @ np.sum(np.exp(-(energies - e0) * tau / p.hbar) * rad_sq, axis=0))
    if not math.log(total) + log_w0 <= _LOG_HUGE:
        raise overflow
    return total * math.exp(log_w0)


def _slice_reach(p: PotentialParams, eps: float, x: np.ndarray, y: np.ndarray, n_slices: int) -> float:
    """sqrt(2 hbar eps X/mu) for the reach X of _slice_matrix: the exact reach,
    and in an N-slice kernel the smaller of it and the N-aware reach."""
    v_lo, v_hi = _radial_potential(p, 0.0, np.array([min(x[0], y[0]), max(x[-1], y[-1])]))
    log_q = math.log(p.mu) - math.log(p.hbar) - math.log(eps) + math.log(max(x[-1], y[-1])) - eps * v_lo / p.hbar
    action = 746.0 + max(0.0, log_q)  # e^-746 rounds to 0
    if n_slices > 1:
        bound = 746.0 + n_slices * max(0.0, log_q + math.log(np.max(np.diff(y))))
        step = bound / n_slices + eps * (v_hi - v_lo) / p.hbar
        action = min(action, (math.sqrt(step) + math.sqrt(55.0)) ** 2)
    return math.sqrt(2 * action * p.hbar / p.mu) * math.sqrt(eps)


def _slice_matrix(
    p: PotentialParams, ell: float, x: np.ndarray, y: np.ndarray, eps: float, n_slices: int = 1
) -> np.ndarray:
    """One-slice Euclidean kernel between row points x and column points y,
    flat-measure normalization.

    The centrifugal part of the sliced radial action is resummed into the
    exact free radial kernel, _log_radial_kernel at omega = 0, which carries
    the r=0 boundary condition exactly; only the smooth harmonic part is split
    symmetrically across the slice endpoints. A naive e^{-eps V_eff} splitting
    of the 1/r^2 term degrades the Trotter order from eps^2 to eps^(3/2) and
    loses the second-order convergence signature the ratio checks rely on.

    Entries are evaluated a block of rows at a time, only where the Gaussian
    action a = mu (r - r')^2/(2 hbar eps) is at most the reach X; the others
    are 0. As e^{-z} I_nu(z) <= 1, sqrt(r r') <= r_max and V >= V_lo, its
    value at the smallest point, an entry is at most Q e^{-a} with
    Q = mu r_max e^{-eps V_lo/hbar}/(hbar eps). The exact reach
    X = 746 + ln Q (at least 746) is where that bound rounds to 0, so a slice
    returned as it is (n_slices = 1) keeps every entry that fits. In an
    N-slice kernel trapezoid weights, at most the largest spacing h, bound a
    path by P^N e^{-S}, P = h Q, S its action above N eps V_lo/hbar: a
    composed value that fits has a classical path of kinetic action at most
    D = 746 + N ln P (at least 746) and, kinetic less potential energy being
    conserved, steps of action at most s = D/N + eps (V_hi - V_lo)/hbar. The
    action is quadratic, so a path with a step of action X lies at least
    (sqrt(X) - sqrt(s))^2 above that path, and the N-aware reach
    X_N = (sqrt(s) + sqrt(55))^2 cuts only paths e^-55 < 2^-64 below the
    composed value; the 18 nats to the 2^-53 of its rounding cover the sum
    over paths and the prefactors. Row and column points ascend.
    """
    vx, vy = _radial_potential(p, 0.0, x), _radial_potential(p, 0.0, y)
    reach = _slice_reach(p, eps, x, y, n_slices)
    out = np.zeros((len(x), len(y)))
    step = max(1, (1 << 14) // len(y))  # rows per block of about 16k entries
    for i0 in range(0, len(x), step):
        xb = x[i0:i0 + step]
        lo = int(np.searchsorted(y, xb[0] - reach))
        hi = int(np.searchsorted(y, xb[-1] + reach, side="right"))
        near = np.abs(xb[:, None] - y[None, lo:hi]) <= reach
        if x is y:
            # the kernel is symmetric: evaluate the upper triangle and mirror it
            near &= np.arange(lo, hi)[None, :] >= np.arange(i0, i0 + len(xb))[:, None]
        rows, cols = np.nonzero(near)
        rows, cols = rows + i0, cols + lo
        xr, yc = x[rows], y[cols]
        # the flat measure r r' in parentheses, so that the sum is symmetric in r, r'
        log_t = (
            _log_radial_kernel(p.mu / p.hbar, 0.0, ell + 0.5, xr, yc, eps)
            + (np.log(xr) + np.log(yc))
            - eps * (vx[rows] + vy[cols]) / (2 * p.hbar)
        )
        out[rows, cols] = np.exp(log_t)
    # the lower triangle of a symmetric slice is 0 until mirrored
    return np.maximum(out, out.T) if x is y else out


def _lattice_setup(
    p: PotentialParams, n_theta: int, m: int, tau: float, spec: LatticeSpec
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Validate a lattice query; return (ell, eps, grid, trapezoid weights)."""
    _check_tau(tau)
    ell = effective_ell(p, n_theta, m)
    eps = tau / spec.n_slices
    grid = np.linspace(spec.r_min, spec.r_max, spec.n_grid)
    h = grid[1] - grid[0]
    sigma = math.sqrt(p.hbar * eps / p.mu)
    if spec.n_slices > 1:
        # composition integrates a Gaussian of width sigma with the
        # trapezoid rule: it must be resolved by the grid yet decay well
        # inside the box
        if sigma < 3 * h:
            raise ValueError(
                f"slice kernel width {sigma:.3e} under-resolved by grid spacing {h:.3e}; "
                "decrease n_slices or refine the grid"
            )
        if sigma > (spec.r_max - spec.r_min) / 8:
            raise ValueError(
                f"slice kernel width {sigma:.3e} spans the grid [{spec.r_min}, {spec.r_max}]; "
                "increase n_slices or widen the grid"
            )
    w = np.full(spec.n_grid, h)
    w[0] = w[-1] = 0.5 * h
    return ell, eps, grid, w


def lattice_kernel_grid(
    p: PotentialParams, n_theta: int, m: int, tau: float, spec: LatticeSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Composed N-slice kernel on the whole lattice grid.

    Returns (grid, K) where K[i, j] approximates the radial kernel between
    grid[i] and grid[j] in the r^2 dr normalization. The chain
    T (W T)^(N-1) of one-slice matrices T and trapezoid weights W equals
    W^-1/2 S^N W^-1/2 with the symmetric S = W^1/2 T W^1/2, so S^N is taken
    by numpy's matrix_power, which squares and multiplies (about log2 N
    products instead of N-1). Every factor is entrywise positive, which
    keeps each entry accurate to rounding. The composed flat-measure kernel
    is divided by r_i r_j at the end. S keeps, at one slice, every entry
    that fits (the exact reach) and otherwise those within the N-aware reach,
    past which no path can move a composed value that fits (_slice_matrix).
    """
    ell, eps, grid, w = _lattice_setup(p, n_theta, m, tau, spec)
    root_w = np.sqrt(w)
    s = root_w[:, None] * _slice_matrix(p, ell, grid, grid, eps, spec.n_slices) * root_w[None, :]
    scale = 1.0 / (root_w * grid)
    return grid, scale[:, None] * np.linalg.matrix_power(s, spec.n_slices) * scale[None, :]


def lattice_radial_kernel(
    p: PotentialParams, n_theta: int, m: int, ra: float, rb: float, tau: float, spec: LatticeSpec
) -> float:
    """Transfer-matrix estimate of the radial kernel at endpoints (ra, rb).

    The two end slices are evaluated at the endpoints themselves and one
    vector is propagated through the N-2 interior slices on the grid, so
    any (ra, rb) in [r_min, r_max] gets the N-slice lattice value, and grid
    nodes reproduce lattice_kernel_grid. Converges to radial_kernel_closed
    at second order in tau/n_slices. The end slices keep every entry that
    fits (the exact reach), the interior ones those within the N-aware reach.
    """
    if not (spec.r_min <= ra <= spec.r_max and spec.r_min <= rb <= spec.r_max):
        raise ValueError("endpoints must lie inside [r_min, r_max]")
    ell, eps, grid, w = _lattice_setup(p, n_theta, m, tau, spec)
    a, b = np.array([ra], dtype=float), np.array([rb], dtype=float)
    if spec.n_slices == 1:
        flat = float(_slice_matrix(p, ell, b, a, eps)[0, 0])
    else:
        vec = _slice_matrix(p, ell, grid, a, eps)[:, 0]
        if spec.n_slices > 2:
            t = _slice_matrix(p, ell, grid, grid, eps, spec.n_slices)
            for _ in range(spec.n_slices - 2):
                vec = t @ (w * vec)
        flat = float(_slice_matrix(p, ell, b, grid, eps)[0] @ (w * vec))
    return flat / (ra * rb)
