"""Named verification checks: every closed form in the package tested
against an independent numerical route, grouped into suites.

A check is a function of no arguments, registered under its suite and
name with @_check, that returns (observed, tolerance, detail): the
deviation it measured, the tolerance it holds that to, and what it
compared. The registry alone builds the CheckResult: it times the call
and scales the tolerance by the caller's tol_scale, so the harness itself
is falsifiable: tol_scale=0 must fail every check whose observed
deviation is nonzero. Checks are pure and independent; they run serially
here so report order is deterministic. Fixtures that only checks use are
private helpers beside their checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracle, propagator, spectrum
from . import specfun as sf
from .model import (
    PotentialParams,
    QuantumNumbers,
    _radial_potential,
    admissible_ell,
    angular_mode,
    effective_ell,
    ladder_energy,
    radial_log_norm,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_check"]

SUITE_NAMES = ("specfun", "spectrum", "oracle", "propagator")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    observed: float
    tolerance: float
    seconds: float
    detail: str = ""


# what a check returns: (observed, tolerance, detail)
Outcome = tuple[float, float, str]

# (suite, name) -> check, in registration order
_REGISTRY: dict[tuple[str, str], Callable[[], Outcome]] = {}


def _check(suite: str, name: str):
    def deco(fn: Callable[[], Outcome]):
        _REGISTRY[suite, name] = fn
        return fn

    return deco


def run_suite(suite: str, tol_scale: float = 1.0) -> list[CheckResult]:
    """Run every check in `suite` ('all' runs the union, suite order fixed)."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in SUITE_NAMES:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITE_NAMES}")
    return [run_check(s, name, tol_scale) for s in names for in_suite, name in _REGISTRY if in_suite == s]


def run_check(suite: str, name: str, tol_scale: float = 1.0) -> CheckResult:
    """Run one registered check, timed, with its tolerance scaled by tol_scale."""
    fn = _REGISTRY.get((suite, name))
    if fn is None:
        raise ValueError(f"no check named {name!r} in suite {suite!r}")
    t0 = time.perf_counter()
    observed, tol, detail = fn()
    seconds = time.perf_counter() - t0
    tol = tol * tol_scale
    return CheckResult(suite=suite, name=name, passed=bool(observed <= tol), observed=float(observed),
                       tolerance=float(tol), seconds=seconds, detail=detail)


# ---------------------------------------------------------------- specfun

@_check("specfun", "laguerre-reference")
def check_laguerre_reference() -> Outcome:
    from scipy.special import eval_genlaguerre

    x = np.linspace(0.0, 30.0, 13)
    worst = 0.0
    for n, a in itertools.product(range(13), (0.0, 0.5, 1.7, 5.77)):
        ours = sf.laguerre(n, a, x)
        ref = eval_genlaguerre(n, a, x)
        worst = max(worst, float(np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref)))))
    return worst, 1e-11, "generalized Laguerre vs scipy on n<=12, fractional orders"


@_check("specfun", "jacobi-reference")
def check_jacobi_reference() -> Outcome:
    from scipy.special import eval_jacobi

    x = np.linspace(-1.0, 1.0, 21)
    worst = 0.0
    for n, (a, b) in itertools.product(range(11), ((0.0, 0.0), (1.0, 0.5), (1.22, 1.5), (0.5, 2.12))):
        ours = sf.jacobi(n, a, b, x)
        ref = eval_jacobi(n, a, b, x)
        worst = max(worst, float(np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref)))))
    return worst, 1e-11, "Jacobi polynomials vs scipy on n<=10, fractional weights"


@_check("specfun", "bessel-reference")
def check_bessel_reference() -> Outcome:
    from scipy.special import iv

    xs = np.concatenate([np.logspace(-3, 1, 9), np.linspace(20, 700, 18)])
    worst = 0.0
    for nu in (0.0, 0.5, 1.5, 2.0, 5.5, 10.0, 20.5):
        for x in xs:
            ours = sf.bessel_i(nu, float(x))
            ref = float(iv(nu, x))
            if ref > 0:
                worst = max(worst, abs(ours - ref) / ref)
    return worst, 1e-10, "modified Bessel I vs scipy over x in [1e-3, 700]"


@_check("specfun", "bessel-recurrence")
def check_bessel_recurrence() -> Outcome:
    # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x), checked without scipy
    worst = 0.0
    for nu in (1.0, 1.5, 2.5, 6.0):
        for x in (0.1, 1.0, 4.0, 12.0, 30.0):
            lhs = sf.bessel_i(nu - 1, x) - sf.bessel_i(nu + 1, x)
            rhs = 2 * nu / x * sf.bessel_i(nu, x)
            worst = max(worst, abs(lhs - rhs) / abs(sf.bessel_i(nu - 1, x)))
    return worst, 1e-12, "three-term recurrence consistency, internal"


def _gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den) as an exponentiated log difference.

    Safe for arguments far past 170 where Gamma itself overflows.
    """
    return math.exp(math.lgamma(num) - math.lgamma(den))


@_check("specfun", "gamma-identity")
def check_gamma_identity() -> Outcome:
    worst = 0.0
    for x in (0.3, 1.0, 2.5, 7.7, 41.0, 200.5):
        worst = max(worst, abs(_gamma_ratio(x + 1.0, x) - x) / x)
        worst = max(worst, abs(math.lgamma(x + 1.0) - math.lgamma(x) - math.log(x)))
    return worst, 1e-12, "Gamma(x+1)/Gamma(x) = x in ratio and log form"


def _bessel_short_time_ratio(m: int, eps: float) -> float:
    """Ratio of exact I_m(1/eps) to its short-time (large-argument) form.

    The comparison form is (eps/2 pi)^{1/2} exp[1/eps - (eps/2)(m^2 - 1/4)];
    I_m(a/eps) at another a > 0 is the same ratio at eps/a. The ratio tends
    to 1 as eps -> 0. Both sides carry e^{1/eps}, which cancels exactly: the
    exact side enters scaled, as ln I_m(1/eps) - 1/eps.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"bessel_short_time_ratio requires finite eps > 0, got eps={eps}")
    order = abs(int(m))
    log_exact = sf.log_bessel_ie(float(order), 1.0 / eps)
    log_asym = 0.5 * math.log(eps / (2 * math.pi)) - (eps / 2.0) * (m * m - 0.25)
    log_ratio = log_exact - log_asym
    if log_ratio > sf._LOG_HUGE:
        raise OverflowError(f"bessel_short_time_ratio at m={m}, eps={eps} is e^{log_ratio:.6g}, beyond the float range")
    return math.exp(log_ratio)


@_check("specfun", "short-time-asymptotic")
def check_short_time_asymptotic() -> Outcome:
    # exact/asymptotic ratio of the sliced-kernel Bessel factor: 1e-3 band
    # at eps=1e-2 tightening to 1e-4 at eps=1e-3
    worst = 0.0
    for eps, band in ((1e-2, 1e-3), (1e-3, 1e-4)):
        for m in (0, 1, 2, 5):
            dev = abs(_bessel_short_time_ratio(m, eps) - 1.0)
            worst = max(worst, dev / band)
    return worst, 1.0, "deviation over band: 1e-3 at eps=1e-2, 1e-4 at eps=1e-3, m in {0,1,2,5}"


@_check("specfun", "batch-consistency")
def check_batch_consistency() -> Outcome:
    # seven points of one order: laguerre_all steps them on Python floats, laguerre on
    # numpy arrays, so the Laguerre half compares two implementations
    x = np.linspace(0.0, 12.0, 7)
    worst = 0.0
    la = sf.laguerre_all(8, 1.5, x)
    for n in range(9):
        worst = max(worst, float(np.max(np.abs(la[n] - sf.laguerre(n, 1.5, x)))))
    # the Jacobi half steps the same seven points on floats and, tiled past
    # _FLOAT_COLUMNS, on numpy arrays
    xj = np.linspace(-1.0, 1.0, 7)
    ja = sf.jacobi_all(8, 0.7, 1.5, xj)
    wide = sf.jacobi_all(8, 0.7, 1.5, np.resize(xj, sf._FLOAT_COLUMNS + 1))[:, :7]
    worst = max(worst, float(np.max(np.abs(ja - wide))))
    return worst, 1e-15, "stacked recurrences agree with single-degree evaluation"


# ---------------------------------------------------------------- spectrum

@_check("spectrum", "degenerate-limit")
def check_degenerate_limit() -> Outcome:
    # with all couplings off the spectrum must collapse to the isotropic
    # oscillator ladder on the half-space: E = 2n + 2n_theta + |m| + 5/2,
    # and it does so exactly in floating point (all maps stay dyadic)
    p = PotentialParams()
    worst = 0.0
    for n, ntheta in itertools.product(range(11), range(11)):
        for m in range(-10, 11):
            e = spectrum.energy(p, QuantumNumbers(n, ntheta, m))
            worst = max(worst, abs(e - (2 * n + 2 * ntheta + abs(m) + 2.5)))
    return worst, 1e-12, "coupling-free ladder 2n + 2n_theta + |m| + 5/2, n,ntheta,|m| <= 10"


@_check("spectrum", "gram-identity")
def check_gram_identity() -> Outcome:
    # Gram matrix of the 8 lowest states under the r^2 sin(theta) measure;
    # the triple integral factorizes, with the phi factor done by the
    # trapezoid rule (exact for the azimuthal harmonics involved)
    p = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
    states = spectrum.enumerate_states(p, e_max=7.0, m_max=6)[:8]
    r, wr = oracle.gauss_panels(0.0, 12.0, 6, 48)
    th, wt = oracle.gauss_panels(0.0, math.pi / 2, 4, 48)
    rad = np.array([spectrum.radial_wavefunction(p, s.qn.n, s.ell_tilde, r) for s in states])
    ang = np.array([spectrum.angular_wavefunction(s.angular, th) for s in states])
    phi = 2 * math.pi * np.arange(64) / 64
    worst = 0.0
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            rr = float(np.sum(wr * r * r * rad[i] * rad[j]))
            aa = float(np.sum(wt * np.sin(th) * ang[i] * ang[j]))
            pp = complex(np.mean(np.exp(1j * (sj.qn.m - si.qn.m) * phi)))
            entry = rr * aa * pp
            worst = max(worst, abs(entry - (1.0 if i == j else 0.0)))
    return worst, 1e-8, "8 lowest states at couplings (1, 0.5, 2), entrywise vs identity"


def _orthonormality_defect(funcs, inner) -> float:
    """Largest |<f_i, f_j> - delta_ij| over j <= i, with inner(f, g) the quadrature."""
    worst = 0.0
    for i, fi in enumerate(funcs):
        for j, fj in enumerate(funcs[: i + 1]):
            worst = max(worst, abs(inner(fi, fj).value - (1.0 if i == j else 0.0)))
    return worst


@_check("spectrum", "angular-orthonormality")
def check_angular_orthonormality() -> Outcome:
    p = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
    worst = 0.0
    for m in (0, 1):
        angular = [functools.partial(spectrum.angular_wavefunction, angular_mode(p, nt, m)) for nt in range(4)]
        worst = max(worst, _orthonormality_defect(angular, oracle.inner_product_angular))
    return worst, 1e-10, "<Theta_i, Theta_j> = delta_ij under sin(theta) d(theta)"


@_check("spectrum", "radial-orthonormality")
def check_radial_orthonormality() -> Outcome:
    p = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
    inner = functools.partial(oracle.inner_product_radial, r_max=12.0)
    worst = 0.0
    for ntheta, m in ((0, 0), (1, 1)):
        ell = effective_ell(p, ntheta, m)
        radial = [functools.partial(spectrum.radial_wavefunction, p, n, ell) for n in range(4)]
        worst = max(worst, _orthonormality_defect(radial, inner))
    return worst, 1e-10, "<R_i, R_j> = delta_ij under r^2 dr"


@_check("spectrum", "enumeration-order")
def check_enumeration_order() -> Outcome:
    p = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
    states = spectrum.enumerate_states(p, e_max=12.0, m_max=8)
    violations = 0
    for a, b in zip(states[:-1], states[1:]):
        if b.energy < a.energy - 1e-12:
            violations += 1
    seen = {(s.qn.n, s.qn.n_theta, s.qn.m) for s in states}
    for s in states:
        if s.energy > 12.0:
            violations += 1
        if s.qn.m != 0 and (s.qn.n, s.qn.n_theta, -s.qn.m) not in seen:
            violations += 1  # energy is even in m, so +-m must pair up
    return float(violations), 0.5, f"{len(states)} states: ascending energy, cutoff respected, m-pairing"


@_check("spectrum", "norm-round-trip")
def check_norm_round_trip() -> Outcome:
    # |psi|^2 integrated over the half-space by tensor quadrature, testing
    # the assembled wavefunction including the azimuthal 1/sqrt(2 pi); the
    # 144 radii go a block at a time, so no 144x96x16 complex grid is held
    p = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
    block = 24
    r, wr = oracle.gauss_panels(1e-9, 12.0, 6, 24)
    th, wt = oracle.gauss_panels(1e-9, math.pi / 2 - 1e-9, 4, 24)
    phi = 2 * math.pi * np.arange(16) / 16
    wr_meas, wt_meas = wr * r * r, wt * np.sin(th)
    worst = 0.0
    for qn in (QuantumNumbers(0, 0, 0), QuantumNumbers(2, 1, 1), QuantumNumbers(1, 2, -2)):
        norm = 0.0
        for i in range(0, r.size, block):
            rows = slice(i, i + block)
            psi = spectrum.full_wavefunction(p, qn, r[rows, None, None], th[None, :, None], phi[None, None, :])
            norm += float(np.einsum("i,j,ijk->", wr_meas[rows], wt_meas, np.abs(psi) ** 2))
        worst = max(worst, abs(norm * (2 * math.pi / 16) - 1.0))
    return worst, 1e-8, "3D quadrature of |psi|^2 over r, theta, phi vs 1"


# ---------------------------------------------------------------- oracle

@_check("oracle", "radial-spectrum-agreement")
def check_radial_spectrum_agreement() -> Outcome:
    # the headline cross-validation: closed-form energies vs the
    # finite-difference solver over the full coupling grid
    worst = 0.0
    worst_shift_gap = 0.0
    n_compared = 0
    # the FD problem sees a sector only through ell_tilde, and every coupling
    # set here shares the scales, v0 and grid, so each ell_tilde is solved once
    solved: dict[float, np.ndarray] = {}
    for al, be, ga in itertools.product((0.0, 1.0, 2.0), (0.0, 0.5), (0.0, 2.0)):
        p = PotentialParams(alpha=al, beta=be, gamma=ga)
        # two Richardson levels over 200/401/803 points keep the last shift
        # within about 2e-6 of the gap for the E ~ 15.7 top states of this
        # sweep, where one level needs 4000/8001 points for the 1e-4 guard
        grid = oracle.GridSpec(oracle.default_radial_grid(p, 200).hi, 200, 2)
        for ntheta, m in itertools.product(range(3), range(3)):
            ell = effective_ell(p, ntheta, m)
            if ell not in solved:
                solved[ell], shift_gap = oracle._radial_fd(p, ntheta, m, grid, 4)
                worst_shift_gap = max(worst_shift_gap, shift_gap)
            eigs = solved[ell]
            for n in range(4):
                e_closed = spectrum.energy(p, QuantumNumbers(n, ntheta, m))
                worst = max(worst, abs(eigs[n] / e_closed - 1))
                n_compared += 1
    finer = grid.refined()
    return worst, 1e-6, (f"{n_compared} states over alpha x beta x gamma grid, |m| symmetry used, "
                         f"{len(solved)} FD solves (one per distinct ell_tilde) on "
                         f"{grid.n_points}/{finer.n_points}/{finer.refined().n_points}-point grids, "
                         f"two Richardson levels; worst shift/gap {worst_shift_gap:.1e} against the 1e-4 guard")


@_check("oracle", "angular-spectrum-agreement")
def check_angular_spectrum_agreement() -> Outcome:
    grid = oracle.default_angular_grid(2000)
    worst = 0.0
    for lam, k in itertools.product((0.5, 1.0, 2.0), (0.5, 1.5)):
        eigs = oracle.angular_eigenvalues_fd(lam, k, grid, 4)
        for nt in range(4):
            # on this dyadic (lam, k) grid the couplings, and so the lam and k
            # angular_mode derives from them, are exact
            closed = angular_mode(PotentialParams(beta=lam * lam, gamma=k * k - 0.25), nt, 0).eps
            worst = max(worst, abs(eigs[nt] / closed - 1))
    return worst, 1e-6, "Poschl-Teller eigenvalues vs (2n+k+lam+1)^2/2, n<=3"


@_check("oracle", "fd-convergence-order")
def check_fd_convergence_order() -> Outcome:
    # raw (non-extrapolated) eigenvalue error must scale as h^2
    p = PotentialParams()
    worst = 0.0
    errs = [abs(oracle.radial_eigenvalues_fd(p, 0, 0, oracle.GridSpec(12.0, n, False), 1)[0] - 2.5)
            for n in (250, 501, 1003)]
    worst = max(worst, abs(errs[0] / errs[1] - 4.0), abs(errs[1] / errs[2] - 4.0))
    aerrs = [abs(oracle.angular_eigenvalues_fd(2.0, 1.5, oracle.GridSpec(math.pi / 2, n, False), 1)[0] - 10.125)
             for n in (250, 501, 1003)]
    worst = max(worst, abs(aerrs[0] / aerrs[1] - 4.0), abs(aerrs[1] / aerrs[2] - 4.0))
    return worst, 0.3, "error ratio under h -> h/2 vs the second-order value 4"


@_check("oracle", "richardson-gain")
def check_richardson_gain() -> Outcome:
    p = PotentialParams()
    raw = abs(oracle.radial_eigenvalues_fd(p, 0, 0, oracle.GridSpec(12.0, 500, False), 1)[0] - 2.5)
    rich = abs(oracle.radial_eigenvalues_fd(p, 0, 0, oracle.GridSpec(12.0, 500, True), 1)[0] - 2.5)
    # extrapolation must buy at least two extra digits at this resolution
    return rich / raw, 1e-2, f"extrapolated/raw error = {rich:.2e}/{raw:.2e}"


@_check("oracle", "variational-bound")
def check_variational_bound() -> Outcome:
    # Rayleigh quotient of the sampled closed-form ground state in the
    # discrete Hamiltonian can never undercut the FD ground eigenvalue
    worst = 0.0
    for p in (PotentialParams(), PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)):
        grid = oracle.GridSpec(12.0, 2000, False)
        x = grid.nodes()
        ell = effective_ell(p, 0, 0)
        u = x * spectrum.radial_wavefunction(p, 0, ell, x)
        kin = p.hbar**2 / (2 * p.mu * grid.h**2)
        v = _radial_potential(p, ell * (ell + 1), x)
        hu = (2 * kin + v) * u
        hu[:-1] -= kin * u[1:]
        hu[1:] -= kin * u[:-1]
        rayleigh = float(u @ hu) / float(u @ u)
        ground = oracle.radial_eigenvalues_fd(p, 0, 0, grid, 1)[0]
        worst = max(worst, ground - rayleigh)
    return worst, 1e-9, "FD ground minus Rayleigh quotient of the closed-form state"


@_check("oracle", "quadrature-reference")
def check_quadrature_reference() -> Outcome:
    one = lambda x: np.ones_like(x)
    r3 = oracle.inner_product_radial(one, one, 1.0).value
    s1 = oracle.inner_product_angular(one, one).value
    worst = max(abs(r3 - 1.0 / 3.0) / 1e-12, abs(s1 - 1.0) / 1e-14)
    return worst, 1.0, "deviation over band: int r^2 = 1/3 at 1e-12, int sin = 1 at 1e-14"


# ---------------------------------------------------------------- propagator

@_check("propagator", "closed-vs-spectral")
def check_closed_vs_spectral() -> Outcome:
    worst = 0.0
    r = np.linspace(0.4, 2.4, 5)
    for p in (PotentialParams(), PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)):
        for tau in (0.5, 1.0, 2.0):
            spec_val = propagator.radial_kernel_spectral(p, 0, 0, r[:, None], r[None, :], tau, 80).value
            closed = [[propagator.radial_kernel_closed(p, 0, 0, float(ra), float(rb), tau) for rb in r] for ra in r]
            worst = max(worst, float(np.max(np.abs(spec_val / closed - 1))))
    return worst, 1e-10, "5x5 endpoint grid, tau in {0.5, 1, 2}, two coupling sets"


def _hille_hardy_residual(x_val: float, y_val: float, s: float, ell: float) -> float:
    """|LHS - RHS| of the bilinear Laguerre generating identity.

    LHS = s/(1-s^2) exp[-(X+Y)(1+s^2)/(2(1-s^2))] I_{ell+1/2}(2 sqrt(XY) s/(1-s^2));
    RHS is the sum over n <= 150 of
    s^{2n+ell+3/2} n! e^{-(X+Y)/2} (XY)^{(ell+1/2)/2} L_n(X) L_n(Y) / Gamma(n+ell+3/2).
    """
    if not (0 < x_val < math.inf and 0 < y_val < math.inf):
        raise ValueError(f"hille_hardy_residual requires finite positive X and Y, got x_val={x_val}, y_val={y_val}")
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if not 0 <= ell < math.inf:
        raise ValueError(f"ell must be finite and >= 0, got {ell}")
    a = ell + 0.5
    one_m = 1 - s * s
    lhs = (
        (s / one_m)
        * math.exp(-0.5 * (x_val + y_val) * (1 + s * s) / one_m)
        * sf.bessel_i(a, 2 * math.sqrt(x_val * y_val) * s / one_m)
    )
    lx, ly = sf.laguerre_all(150, a, [x_val, y_val]).T
    ns = np.arange(lx.size)
    # n! / Gamma(n+ell+3/2) is half the squared radial norm at unit scale
    log_coeff = 2 * radial_log_norm(PotentialParams(), 150, ell) - math.log(2.0)
    weights = np.exp(
        (2 * ns + ell + 1.5) * math.log(s) + log_coeff - 0.5 * (x_val + y_val) + 0.5 * a * math.log(x_val * y_val)
    )
    rhs = float(np.sum(weights * lx * ly))
    return abs(lhs - rhs)


@_check("propagator", "hille-hardy")
def check_hille_hardy() -> Outcome:
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(20):
        x = float(rng.uniform(1e-6, 3.0))
        y = float(rng.uniform(1e-6, 3.0))
        s = float(rng.uniform(0.1, 0.7))
        ell = float(rng.uniform(0.0, 6.0))
        worst = max(worst, _hille_hardy_residual(x, y, s, ell))
    return worst, 1e-10, "20 seeded draws, X,Y in (0,3], s in [0.1,0.7], ell in [0,6], 150 terms"


def _quartic_moment_check(a: float) -> float:
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


@_check("propagator", "quartic-moment")
def check_quartic_moment() -> Outcome:
    worst = max(_quartic_moment_check(a) for a in (0.1, 0.5, 1.0, 10.0, 100.0))
    return worst, 1e-12, "Gaussian fourth-moment identity across four decades of a"


def _lattice_errors(n_slices_list: tuple[int, ...]) -> list[float]:
    p = PotentialParams()
    closed = propagator.radial_kernel_closed(p, 0, 0, 0.8, 1.2, 0.5)
    errs = []
    for n_slices in n_slices_list:
        spec_l = propagator.LatticeSpec(n_slices=n_slices)
        val = propagator.lattice_radial_kernel(p, 0, 0, 0.8, 1.2, 0.5, spec_l)
        errs.append(abs(val / closed - 1))
    return errs


@_check("propagator", "lattice-accuracy")
def check_lattice_accuracy() -> Outcome:
    err = _lattice_errors((64,))[0]
    return err, 1e-3, "64-slice transfer matrix vs closed kernel, tau=0.5, ell=1"


@_check("propagator", "lattice-order")
def check_lattice_order() -> Outcome:
    # halving the slice width must shrink the error by about 4x
    errs = _lattice_errors((16, 32, 64))
    worst = max(abs(errs[0] / errs[1] - 4.0), abs(errs[1] / errs[2] - 4.0))
    return worst, 0.8, f"error ratios {errs[0] / errs[1]:.2f}, {errs[1] / errs[2]:.2f} vs window 4 +- 0.8"


@_check("propagator", "trace-consistency")
def check_trace_consistency() -> Outcome:
    # Boltzmann-weighted state sum vs the integrated diagonal kernel; the
    # two truncate differently (energy cutoff vs index box), so the
    # comparison is held to the exact weight of the box states above the
    # energy cutoff plus a quadrature allowance
    p = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
    tau, e_max = 2.0, 16.0
    n_cut, ntheta_cut, m_cut = 20, 10, 10
    z_kernel = propagator.integrated_diagonal_kernel(p, tau, n_cut, ntheta_cut, m_cut)
    states = spectrum.enumerate_states(p, e_max=e_max, m_max=m_cut)
    z_states = math.fsum(math.exp(-s.energy * tau / p.hbar) for s in states)
    excess = 0.0
    for m in range(-m_cut, m_cut + 1):
        for ntheta in range(ntheta_cut + 1):
            ell = admissible_ell(p, ntheta, m)
            if ell is None:
                continue
            for n in range(n_cut + 1):
                e = ladder_energy(p, n, ell)
                if e > e_max:
                    excess += math.exp(-e * tau / p.hbar)
    bound = excess + 1e-9
    return abs(z_kernel - z_states), bound, (f"tau=2, cutoffs ({n_cut},{ntheta_cut},{m_cut}); "
                                             f"bound = box excess {excess:.2e} + 1e-9")


@_check("propagator", "semigroup")
def check_semigroup() -> Outcome:
    p = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
    xq, wq = oracle.gauss_panels(0.0, 12.0, 6, 48)
    k1 = propagator.radial_kernel_spectral(p, 0, 0, 0.8, xq, 0.7, 60).value
    k2 = propagator.radial_kernel_spectral(p, 0, 0, xq, 1.3, 0.9, 60).value
    lhs = propagator.radial_kernel_spectral(p, 0, 0, 0.8, 1.3, 1.6, 60).value
    worst = abs(float(np.sum(wq * xq * xq * k1 * k2)) / lhs - 1)

    p0 = PotentialParams()
    spec_half = propagator.LatticeSpec(n_slices=32)
    g, k_half = propagator.lattice_kernel_grid(p0, 0, 0, 0.5, spec_half)
    w = propagator._lattice_setup(p0, 0, 0, 0.5, spec_half)[3]
    ia, ib = 39, 59  # grid nodes at r = 0.8 and 1.2; k_half is symmetric
    composed = float(k_half[ia] @ (w * g * g * k_half[ib]))
    # the endpoint route propagates a vector instead of powering the grid
    # matrix, so the two lattice routes check each other
    k_end = propagator.lattice_radial_kernel(p0, 0, 0, 0.8, 1.2, 1.0, propagator.LatticeSpec(n_slices=64))
    worst = max(worst, abs(composed / k_end - 1))
    return worst, 1e-6, ("K(t1+t2) = int K(t1) K(t2) x^2 dx, spectral route and grid vs "
                         "endpoint lattice routes")


@_check("propagator", "kernel-symmetries")
def check_kernel_symmetries() -> Outcome:
    p = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
    worst = 0.0
    # endpoint exchange symmetry and positivity of the closed form
    for ra, rb, tau in ((0.5, 1.7, 0.8), (1.1, 2.2, 1.5)):
        kab = propagator.radial_kernel_closed(p, 1, 1, ra, rb, tau)
        kba = propagator.radial_kernel_closed(p, 1, 1, rb, ra, tau)
        worst = max(worst, abs(kab - kba) / kab)
        if kab <= 0:
            worst = max(worst, 1.0)
    # diagonal spectral partial sums must increase with the cutoff
    prev = 0.0
    for n_cut in (5, 10, 20, 40):
        val = propagator.radial_kernel_spectral(p, 0, 0, 1.1, 1.1, 0.8, n_cut).value
        if val < prev:
            worst = max(worst, prev - val)
        prev = val
    # hermiticity, diagonal positivity, and phi translation invariance
    qa = dict(ra=0.9, rb=1.4, theta_a=0.6, theta_b=0.9, tau=0.8, n_cut=25, ntheta_cut=8, m_cut=6)
    k_ab = propagator.full_kernel_spectral(p, propagator.PropagatorQuery(phi_a=0.3, phi_b=1.9, **qa))
    qs = dict(qa)
    qs["ra"], qs["rb"], qs["theta_a"], qs["theta_b"] = qa["rb"], qa["ra"], qa["theta_b"], qa["theta_a"]
    k_ba = propagator.full_kernel_spectral(p, propagator.PropagatorQuery(phi_a=1.9, phi_b=0.3, **qs))
    worst = max(worst, abs(k_ab - k_ba.conjugate()) / abs(k_ab))
    k_shift = propagator.full_kernel_spectral(p, propagator.PropagatorQuery(phi_a=1.0, phi_b=2.6, **qa))
    worst = max(worst, abs(k_ab - k_shift) / abs(k_ab))
    diag = propagator.full_kernel_spectral(
        p, propagator.PropagatorQuery(ra=0.9, rb=0.9, theta_a=0.6, theta_b=0.6, phi_a=0.3, phi_b=0.3,
                                      tau=0.8, n_cut=25, ntheta_cut=8, m_cut=6))
    if not (abs(diag.imag) < 1e-14 and diag.real > 0):
        worst = max(worst, 1.0)
    return worst, 1e-12, "exchange symmetry, positivity, monotone diagonal sums, hermiticity"


@_check("propagator", "angular-filtering")
def check_angular_filtering() -> Outcome:
    # integrating the angular kernel against one eigenmode must return
    # that mode scaled by its Boltzmann factor
    p = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
    th, wt = oracle.gauss_panels(0.0, math.pi / 2, 4, 48)
    mode = angular_mode(p, 0, 1)
    s_tau = 0.8
    kern = propagator.angular_kernel_spectral(p, 1, th, 0.6, s_tau, 12)
    proj = float(np.sum(wt * np.sin(th) * kern * spectrum.angular_wavefunction(mode, th)))
    want = math.exp(-mode.eps * s_tau / p.hbar) * spectrum.angular_wavefunction(mode, 0.6)
    return abs(proj / want - 1), 1e-8, "eigenmode projection through the angular kernel"


@_check("propagator", "tail-bound-honesty")
def check_tail_bound_honesty() -> Outcome:
    # the reported truncation bound must majorize the actual dropped tail
    p = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
    cases = list(itertools.product(((1.1, 1.1), (0.6, 2.3)), (0.5, 1.0, 2.0), (10, 20)))
    cases.append(((2.517, 2.061), 0.1, 40))  # drops a 9.9e-6 tail
    ell = effective_ell(p, 0, 0)
    worst = 0.0
    for (ra, rb), tau, n_cut in cases:
        bound = propagator.radial_kernel_spectral(p, 0, 0, ra, rb, tau, n_cut).tail_bound
        # the dropped terms n_cut < n <= 4 n_cut summed on their own: as a
        # difference of two partial sums they would fall below one ulp of
        # the sum at the longer times
        prof = spectrum.radial_profiles(p, ell, 4 * n_cut, [ra, rb])[n_cut + 1:]
        weight = np.exp(-ladder_energy(p, np.arange(n_cut + 1, 4 * n_cut + 1), ell) * tau / p.hbar)
        dropped = abs(math.fsum(weight * prof[:, 0] * prof[:, 1]))
        worst = max(worst, dropped / bound)
    return worst, 1.0, ("dropped spectral terms n_cut < n <= 4 n_cut over reported bound, "
                        "diagonal and off-diagonal endpoints")


@_check("propagator", "lattice-short-time")
def check_lattice_short_time() -> Outcome:
    # a single slice at vanishing tau is the bare heat kernel
    p = PotentialParams()
    tau = 1e-4
    spec_l = propagator.LatticeSpec(n_slices=1)
    val = propagator.lattice_radial_kernel(p, 0, 0, 1.0, 1.0, tau, spec_l)
    free = math.sqrt(p.mu / (2 * math.pi * p.hbar * tau))
    return abs(val / free - 1), 5e-4, "one-slice kernel vs sqrt(mu / 2 pi hbar tau) at tau=1e-4"
