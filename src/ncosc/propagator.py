"""Euclidean-time kernels: the closed radial form, spectral sums, the
Hille-Hardy identity residual, the quartic-moment identity, and a
transfer-matrix lattice propagator for the discretized radial action.

All kernels live at imaginary time tau > 0, where they are positive and
every identity is numerically checkable. The closed radial kernel

    K(rb, ra; tau) = e^{v0 tau/hbar} / sqrt(ra rb)
                     * (mu omega / (hbar sinh(omega tau)))
                     * I_{ell+1/2}(mu omega ra rb / (hbar sinh(omega tau)))
                     * exp[-(mu omega/2 hbar)(ra^2+rb^2) coth(omega tau)]

integrates against the r^2 dr measure, matching the spectral form
sum_n e^{-E_n tau/hbar} R_n(ra) R_n(rb); the lattice kernel is normalized
to the same convention.
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
    admissible_ell,
    admissible_sectors,
    angular_mode,
    effective_ell,
    ladder_energy,
    radial_extent,
    radial_log_norm,
)
from .oracle import gauss_panels
from .specfun import bessel_i, laguerre_all, log_bessel_ie, log_bessel_ie_from_log
from .spectrum import angular_profiles, radial_factors, radial_profiles

# math.exp overflows past this
_LOG_MAX = math.log(np.finfo(float).max)
# below this a float is subnormal
_TINY = float(np.finfo(float).tiny)
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
    "hille_hardy_residual",
    "quartic_moment_check",
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


def radial_kernel_closed(p: PotentialParams, n_theta: int, m: int, ra: float, rb: float, tau: float) -> float:
    """Closed-form Euclidean radial kernel for the (n_theta, m) sector.

    Assembled as ln K and exponentiated once, so a kernel that fits in a
    float is returned even where its factors do not. The Bessel factor
    enters scaled, as ln I_{ell+1/2}(z) - z with z = mu omega ra rb/(hbar sinh omega tau),
    and z joins the Gaussian exponent, which becomes
    -(mu omega/2 hbar)[(ra - rb)^2 coth(omega tau) + 2 ra rb tanh(omega tau/2)]:
    at short times ln I and the Gaussian are both of order 1/tau and would
    cancel. Where z or sinh(omega tau) leaves the normal float range, both
    are taken from logarithms, so tiny endpoints and times keep every digit.
    """
    if not (0 < ra < math.inf and 0 < rb < math.inf):
        raise ValueError(f"radial_kernel_closed requires finite ra > 0 and rb > 0, got ra={ra}, rb={rb}")
    _check_tau(tau)
    ell = effective_ell(p, n_theta, m)
    wt = p.omega * tau
    scale = p.mu * p.omega / p.hbar
    # z = 0 or inf below marks a z that must be taken from logarithms
    if wt >= 700:
        # sinh overflows near wt = 710; here sinh = cosh = e^wt / 2 to the last bit
        log_sh, coth, th_half, z = wt - _LN2, 1.0, 1.0, 0.0
    else:
        sh, ch = math.sinh(wt), math.cosh(wt)
        th_half = sh / (ch + 1)
        if sh >= _TINY:
            log_sh, coth, z = math.log(sh), ch / sh, scale * ra * rb / sh
        else:
            # a subnormal sinh equals omega tau, and coth overflows
            log_sh, coth, z = math.log(p.omega) + math.log(tau), math.inf, math.inf
    rr = ra * rb  # may underflow
    log_rr = math.log(rr) if rr >= _TINY else math.log(ra) + math.log(rb)
    log_pref = math.log(scale) - log_sh
    nu = ell + 0.5
    d = ra - rb
    log_k = (
        log_pref
        + (log_bessel_ie(nu, z) if _TINY <= z < math.inf else log_bessel_ie_from_log(nu, log_pref + log_rr))
        - 0.5 * scale * ((d * d * coth if d else 0.0) + 2 * rr * th_half)
        + p.v0 * tau / p.hbar
        - 0.5 * log_rr
    )
    if log_k > _LOG_MAX:
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
    if worst > _LOG_MAX:
        raise OverflowError(f"{what} is e^{worst:.6g}, beyond the float range")
    return np.ldexp(mantissa, np.clip(exponent, -_EXP_CLIP, _EXP_CLIP).astype(np.int64))


def _spectral_sums(p: PotentialParams, ell, ra: np.ndarray, rb: np.ndarray, tau: float, n_cut: int, what: str):
    """Radial spectral sums sum_{n<=n_cut} e^{-E_n tau/hbar} R_n(ra) R_n(rb) in
    scaled form (exponent, mantissa), value = mantissa 2^exponent.

    Each term is split into a power of two and a factor below 1.5 in
    magnitude: the time weight and the radial envelopes (radial_factors)
    through their logarithm, the polynomial parts through frexp, which is
    exact. The largest power of two over the terms is factored out of the
    sum, so the mantissa stays below 1.5 (n_cut + 1) in magnitude, and a term
    only underflows when it is below 2^-1074 of the largest. The Laguerre
    polynomials themselves are unscaled; past x = mu omega r^2/hbar of about
    1400 they can overflow, and OverflowError is raised. ell is one
    ell_tilde or an array of them, ra and rb 1-d endpoint arrays of one
    length P; both results have shape shape(ell) + (P,).
    """
    ell = np.asarray(ell, dtype=float)
    n_pts = len(ra)
    with np.errstate(over="ignore", invalid="ignore"):
        log_env, poly = radial_factors(p, ell, n_cut, np.concatenate([ra, rb]))
    if not np.all(np.isfinite(poly)):
        raise OverflowError(f"{what}: a Laguerre polynomial L_n(mu omega r^2/hbar), n <= {n_cut}, "
                            "is beyond the float range")
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
    n_cut overflows it, and OverflowError is raised as well.

    The reported tail bound majorizes the dropped n > n_cut terms. Szego's
    inequality |e^{-x/2} L_n^a(x)| <= C_n = Gamma(n+a+1) / (n! Gamma(a+1)),
    a = ell + 1/2 >= 1/2, bounds the n-th term by
    u_n = e^{-E_n tau/hbar} N_n^2 (q_a q_b)^ell C_n^2 (N_n the radial norm,
    q = sqrt(mu omega/hbar) r). The ratio u_{n+1}/u_n = y (n+a+1)/(n+1),
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
    what = f"radial_kernel_spectral at tau={tau}{where}"
    exponent, mantissa = _spectral_sums(p, ell, a_pts.ravel(), b_pts.ravel(), tau, n_cut, what)
    value = _to_float(exponent, mantissa, what).reshape(a_pts.shape)

    a = ell + 0.5
    y = math.exp(-2 * p.omega * tau)
    log_qq = np.log(p.mu * p.omega / p.hbar * a_pts * b_pts)

    def log_envelope(n: int):
        log_c = math.lgamma(n + a + 1) - math.lgamma(n + 1.0) - math.lgamma(a + 1)
        return -ladder_energy(p, n, ell) * tau / p.hbar + 2 * radial_log_norm(p, n, ell) + ell * log_qq + 2 * log_c

    ratio = y * (n_cut + a + 2) / (n_cut + 2)
    if ratio < 1:
        log_tail = log_envelope(n_cut + 1) - math.log1p(-ratio)
    else:
        # 1 - y from expm1: at short times y rounds to 1
        log_tail = log_envelope(0) - (a + 1) * math.log(-math.expm1(-2 * p.omega * tau))
    tail = np.where(log_tail > _LOG_MAX, math.inf, np.maximum(np.exp(np.minimum(log_tail, _LOG_MAX)), math.ulp(0.0)))
    if scalar:
        return SpectralKernel(value=float(value), tail_bound=float(tail))
    return SpectralKernel(value=value, tail_bound=tail)


def angular_kernel_spectral(p: PotentialParams, m: int, theta_a, theta_b, s_tau: float, ntheta_cut: int):
    """Angular spectral kernel sum_{n_theta <= cut} e^{-eps s_tau/hbar} Theta(theta_a) Theta(theta_b).

    theta_a and theta_b may be arrays, broadcast against each other, and the
    result then has their shape; scalar angles give a float.
    """
    th_a, th_b = np.broadcast_arrays(np.asarray(theta_a, dtype=float), np.asarray(theta_b, dtype=float))
    if not (np.all((0 < th_a) & (th_a < math.pi / 2)) and np.all((0 < th_b) & (th_b < math.pi / 2))):
        raise ValueError("angles must lie in (0, pi/2)")
    if not 0 < s_tau < math.inf:
        raise ValueError(f"s_tau must be positive and finite, got {s_tau}")
    _check_count("ntheta_cut", ntheta_cut, 1)
    modes = [angular_mode(p, n_theta, m) for n_theta in range(ntheta_cut + 1)]
    n_pts = th_a.size
    prof = angular_profiles(modes, np.concatenate([th_a.ravel(), th_b.ravel()]))
    weight = np.exp(-np.array([mode.eps for mode in modes]) * s_tau / p.hbar)
    total = np.cumsum(weight[:, None] * prof[:, :n_pts] * prof[:, n_pts:], axis=0)[-1].reshape(th_a.shape)
    return float(total) if th_a.ndim == 0 else total


def _sectors(p: PotentialParams, m: int, ntheta_cut: int) -> tuple[list[AngularMode], np.ndarray]:
    """Angular modes and ell_tilde of the admissible sectors (n_theta <= ntheta_cut, m)."""
    sectors = list(itertools.takewhile(lambda s: s[0] <= ntheta_cut, admissible_sectors(p, m)))
    return [angular_mode(p, n_theta, m) for n_theta, _ in sectors], np.array([ell for _, ell in sectors])


def full_kernel_spectral(p: PotentialParams, q: PropagatorQuery) -> complex:
    """Truncated spectral decomposition of the full Euclidean kernel.

    K(b, a; tau) = sum over admissible (n, n_theta, m) within the cutoffs of
    e^{-E tau/hbar} psi*(a) psi(b); real and positive on the diagonal.
    Sectors +m and -m share ell_tilde and Theta, so they are summed once
    with weight 2 cos(m dphi)/2pi, and K is real. One Jacobi recurrence per
    |m| gives the angular factors and one Laguerre recurrence over the
    distinct ell_tilde the radial sums, which stay a power of two times a
    mantissa until the sector sum is formed.
    """
    dphi = q.phi_b - q.phi_a
    coef, ells = [], []
    for m in range(q.m_cut + 1):
        modes, ell = _sectors(p, m, q.ntheta_cut)
        if not modes:
            continue
        ang = angular_profiles(modes, [q.theta_a, q.theta_b])
        weight = (1.0 if m == 0 else 2 * math.cos(m * dphi)) / (2 * math.pi)
        coef.append(weight * ang[:, 0] * ang[:, 1])
        ells.append(ell)
    if not ells:
        return 0.0 + 0.0j
    distinct, index = np.unique(np.concatenate(ells), return_inverse=True)
    what = f"full_kernel_spectral at tau={q.tau}"
    exponent, mantissa = _spectral_sums(p, distinct, np.array([q.ra]), np.array([q.rb]), q.tau, q.n_cut, what)
    exponent, mantissa = exponent[index, 0], mantissa[index, 0]
    top = float(np.max(exponent))
    shift = np.maximum(exponent - top, -_EXP_CLIP).astype(np.int64)
    total = float(np.sum(np.concatenate(coef) * np.ldexp(mantissa, shift)))
    return complex(_to_float(top, total, what))


def integrated_diagonal_kernel(p: PotentialParams, tau: float, n_cut: int, ntheta_cut: int, m_cut: int) -> float:
    """Integral of the diagonal truncated kernel over the half-space.

    Computes int K(a, a; tau) r^2 sin(theta) dr d(theta) d(phi) by tensor
    Gauss-Legendre quadrature (8 radial panels of 50 nodes out to the
    radial_extent of the outermost state, 4 angular panels of 40 nodes),
    with the phi integral done exactly (the diagonal kills the azimuthal
    phase). Equals the partition-function partial sum over the same index
    box up to quadrature error, which is the trace-consistency check the
    verify suite runs. Each |m| takes one Jacobi and one Laguerre recurrence
    for all its sectors. A box that holds no bound sector integrates to 0.
    The three cutoffs are integers >= 0.
    """
    _check_tau(tau)
    for name, cut in (("n_cut", n_cut), ("ntheta_cut", ntheta_cut), ("m_cut", m_cut)):
        _check_count(name, cut, 0)
    # ell_tilde and admissibility grow with n_theta and |m|: the corner
    # sector is the outermost one, and admissible if any sector is
    ell_hi = admissible_ell(p, ntheta_cut, m_cut)
    if ell_hi is None:
        return 0.0
    xr, wr = gauss_panels(0.0, radial_extent(p, n_cut, ell_hi), n_panels=8, n_nodes=50)
    xt, wth = gauss_panels(0.0, math.pi / 2, n_panels=4, n_nodes=40)
    wr_meas = wr * xr * xr
    wt_meas = wth * np.sin(xt)
    total = 0.0
    for m in range(0, m_cut + 1):
        modes, ell = _sectors(p, m, ntheta_cut)
        if not modes:
            continue
        mult = 1.0 if m == 0 else 2.0
        ang_sq = angular_profiles(modes, xt) ** 2 @ wt_meas
        rad_sq = radial_profiles(p, ell, n_cut, xr) ** 2 @ wr_meas
        energies = ladder_energy(p, np.arange(n_cut + 1)[:, None], ell)
        total += mult * float(ang_sq @ np.sum(np.exp(-energies * tau / p.hbar) * rad_sq, axis=0))
    return total


def hille_hardy_residual(x_val: float, y_val: float, s: float, ell: float) -> float:
    """|LHS - RHS| of the bilinear Laguerre generating identity.

    LHS = s/(1-s^2) exp[-(X+Y)(1+s^2)/(2(1-s^2))] I_{ell+1/2}(2 sqrt(XY) s/(1-s^2));
    RHS is the sum over n <= 150 of
    s^{2n+ell+3/2} n! e^{-(X+Y)/2} (XY)^{(ell+1/2)/2} L_n(X) L_n(Y) / Gamma(n+ell+3/2).
    """
    if x_val <= 0 or y_val <= 0:
        raise ValueError("hille_hardy_residual requires positive X and Y")
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    a = ell + 0.5
    one_m = 1 - s * s
    lhs = (
        (s / one_m)
        * math.exp(-0.5 * (x_val + y_val) * (1 + s * s) / one_m)
        * bessel_i(a, 2 * math.sqrt(x_val * y_val) * s / one_m)
    )
    lx, ly = laguerre_all(150, a, [x_val, y_val]).T
    ns = np.arange(lx.size)
    # n! / Gamma(n+ell+3/2) is half the squared radial norm at unit scale
    log_coeff = 2 * radial_log_norm(PotentialParams(), ns, ell) - math.log(2.0)
    weights = np.exp(
        (2 * ns + ell + 1.5) * math.log(s) + log_coeff - 0.5 * (x_val + y_val) + 0.5 * a * math.log(x_val * y_val)
    )
    rhs = float(np.sum(weights * lx * ly))
    return abs(lhs - rhs)


def quartic_moment_check(a: float) -> float:
    """Residual of int u^4 e^{-a u^2} du = (3/4a^2) int e^{-a u^2} du over the line.

    Both integrals are evaluated on shared trapezoid nodes after rescaling
    u = v/sqrt(a), which keeps the quadrature at unit width for every a.
    The trapezoid rule is spectrally accurate for entire integrands that
    decay below machine precision inside the window, and its exact dyadic
    nodes and weights avoid the ~1e-15 node-placement noise of constructed
    Gauss rules, which the a^(-5/2) amplification at small a would expose.
    """
    if not 0 < a < math.inf:
        raise ValueError(f"quartic_moment_check requires finite a > 0, got {a}")
    h = 0.25
    v = h * np.arange(-36, 37)
    diff = math.fsum(h * (v**4 - 0.75) * np.exp(-v * v))
    return a**-2.5 * abs(diff)


def _slice_matrix(p: PotentialParams, ell: float, x: np.ndarray, y: np.ndarray, eps: float) -> np.ndarray:
    """One-slice Euclidean kernel between row points x and column points y,
    flat-measure normalization.

    The centrifugal part of the sliced radial action is resummed into the
    exact free-radial slice (mu/hbar eps) sqrt(r r') I_{ell+1/2}(mu r r'/hbar eps)
    e^{-mu(r^2+r'^2)/2 hbar eps}, which carries the r=0 boundary condition
    exactly; only the smooth harmonic part is split symmetrically across the
    slice endpoints. A naive e^{-eps V_eff} splitting of the 1/r^2 term
    degrades the Trotter order from eps^2 to eps^(3/2) and loses the
    second-order convergence signature the ratio checks rely on.
    """
    from scipy.special import ive

    vx, vy = _radial_potential(p, 0.0, x), _radial_potential(p, 0.0, y)
    if x is y:
        # the kernel is symmetric: evaluate the upper triangle and mirror it
        rows, cols = np.triu_indices(len(x))
    else:
        rows, cols = np.ix_(np.arange(len(x)), np.arange(len(y)))
    xr, yc = x[rows], y[cols]
    dr = xr - yc
    log_t = (
        np.log(p.mu * np.sqrt(xr * yc) / (p.hbar * eps))
        + np.log(ive(ell + 0.5, p.mu * xr * yc / (p.hbar * eps)))
        - p.mu * dr * dr / (2 * p.hbar * eps)
        - eps * (vx[rows] + vy[cols]) / (2 * p.hbar)
    )
    if x is not y:
        return np.exp(log_t)
    out = np.empty((len(x), len(x)))
    out[rows, cols] = out[cols, rows] = np.exp(log_t)
    return out


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
    is divided by r_i r_j at the end.
    """
    ell, eps, grid, w = _lattice_setup(p, n_theta, m, tau, spec)
    root_w = np.sqrt(w)
    s = root_w[:, None] * _slice_matrix(p, ell, grid, grid, eps) * root_w[None, :]
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
    at second order in tau/n_slices.
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
            t = _slice_matrix(p, ell, grid, grid, eps)
            for _ in range(spec.n_slices - 2):
                vec = t @ (w * vec)
        flat = float(_slice_matrix(p, ell, b, grid, eps)[0] @ (w * vec))
    return flat / (ra * rb)
