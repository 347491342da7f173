"""Euclidean kernels: closed form vs spectral sum vs time-sliced lattice,
plus the generating-identity and moment checks they rest on."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ncosc
from ncosc import propagator
from ncosc.model import PotentialParams, effective_ell, ladder_energy, radial_log_norm
from ncosc.propagator import (
    LatticeSpec,
    PropagatorQuery,
    _log_radial_kernel,
    _slice_matrix,
    angular_kernel_spectral,
    full_kernel_spectral,
    integrated_diagonal_kernel,
    lattice_kernel_grid,
    lattice_radial_kernel,
    radial_kernel_closed,
    radial_kernel_spectral,
)
from ncosc.oracle import GridSpec, angular_eigenvalues_fd, default_angular_grid, gauss_panels, radial_eigenvalues_fd
from ncosc.spectrum import enumerate_states, radial_profiles, radial_wavefunction
from ncosc.verify import (
    _hille_hardy_residual as hille_hardy_residual,
    _quartic_moment_check as quartic_moment_check,
    run_check,
)

COUPLED = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)
LATTICE_64 = LatticeSpec(n_slices=64, r_min=0.02, r_max=8.0, n_grid=400)


def test_closed_and_spectral_routes_agree():
    for p in (PotentialParams(), COUPLED):
        for tau in (0.5, 1.0, 2.0):
            closed = radial_kernel_closed(p, 0, 0, 0.9, 1.7, tau)
            spectral = radial_kernel_spectral(p, 0, 0, 0.9, 1.7, tau, 80)
            assert spectral.value == pytest.approx(closed, rel=1e-10)


def test_closed_kernel_symmetric_and_positive():
    for ra, rb, tau in [(0.5, 1.7, 0.8), (1.1, 2.2, 1.5), (0.3, 0.3, 3.0)]:
        kab = radial_kernel_closed(COUPLED, 1, 1, ra, rb, tau)
        assert kab > 0
        assert kab == radial_kernel_closed(COUPLED, 1, 1, rb, ra, tau)


def test_spectral_tail_bound_majorizes_dropped_tail():
    # diagonal and off-diagonal endpoints; the last case drops a 9.9e-6 tail
    cases = [(1.1, 1.1, 1.0, 10), (1.1, 1.1, 1.0, 20), (0.6, 2.3, 1.0, 10), (0.6, 2.3, 1.0, 20),
             (2.517, 2.061, 0.1, 40)]
    for ra, rb, tau, n_cut in cases:
        short = radial_kernel_spectral(COUPLED, 0, 0, ra, rb, tau, n_cut)
        long = radial_kernel_spectral(COUPLED, 0, 0, ra, rb, tau, 4 * n_cut)
        assert abs(long.value - short.value) <= short.tail_bound, (ra, rb, tau, n_cut)
    # finite on a converged sum, positive where the terms underflow
    assert radial_kernel_spectral(COUPLED, 0, 0, 1.1, 1.1, 1.0, 60).tail_bound < 1e-40
    assert radial_kernel_spectral(COUPLED, 0, 0, 1.1, 1.1, 40.0, 60).tail_bound > 0


def test_spectral_diagonal_sums_increase_with_cutoff():
    vals = [radial_kernel_spectral(COUPLED, 0, 0, 1.3, 1.3, 0.7, n).value for n in (5, 10, 20, 40)]
    assert vals == sorted(vals)


def test_kernel_argument_validation():
    with pytest.raises(ValueError, match="tau must be positive"):
        radial_kernel_closed(COUPLED, 0, 0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="ra > 0"):
        radial_kernel_closed(COUPLED, 0, 0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="n_cut"):
        radial_kernel_spectral(COUPLED, 0, 0, 1.0, 1.0, 1.0, 0)
    with pytest.raises(ValueError, match="angles"):
        angular_kernel_spectral(COUPLED, 0, 0.0, 0.5, 1.0, 4)


def test_closed_kernel_short_time_is_finite():
    # I_{3/2} alone overflows here, the kernel itself is the free heat kernel
    p = PotentialParams()
    val = radial_kernel_closed(p, 0, 0, 3.0, 3.0, 1e-9)
    free = math.sqrt(p.mu / (2 * math.pi * p.hbar * 1e-9)) / (3.0 * 3.0)
    assert val == pytest.approx(free, rel=1e-5)


def _closed_kernel_mp(ell, ra, rb, tau, omega=1.0):
    """The closed kernel at mu = hbar = 1, in the unscaled textbook form, with
    omega tau formed exactly and digits enough to survive the cancellation of
    its two large exponents."""
    with mpmath.workdps(40 + max(0, int(-math.log10(omega) - math.log10(tau)))):
        ra, rb, omega = mpmath.mpf(ra), mpmath.mpf(rb), mpmath.mpf(omega)
        wt = omega * mpmath.mpf(tau)
        sh = mpmath.sinh(wt)
        return (omega * mpmath.besseli(ell + 0.5, omega * ra * rb / sh) / sh / mpmath.sqrt(ra * rb)
                * mpmath.exp(-omega * (ra * ra + rb * rb) * mpmath.cosh(wt) / (2 * sh)))


@pytest.mark.parametrize("tau", [1e-320, 1.1e-308, 2.2e-308, 1e-300, 1e-20, 1e-9, 2e-3])
def test_closed_kernel_at_short_times_matches_mpmath(tau):
    # ln I and the Gaussian exponent are both of order 1/tau and cancel;
    # at 1e-320 sinh(tau) is subnormal and coth overflows, and sinh(tau)
    # leaves the normal range between 2.2e-308 and 1.1e-308
    for ra, rb in [(1.0, 1.0), (3.0, 3.0), (1.0, 1.0 + 1e-10)]:
        want = _closed_kernel_mp(1.0, ra, rb, tau)
        got = radial_kernel_closed(PotentialParams(), 0, 0, ra, rb, tau)
        assert abs(got - want) <= 1e-13 * want + 5e-324, (ra, rb, tau)


@pytest.mark.parametrize("omega, tau", [(1.3, 1e-320), (0.1, 5e-324), (0.7, 2e-308), (2.3, 1e-300)])
def test_closed_kernel_at_short_times_off_unit_omega_matches_mpmath(omega, tau):
    # the float product omega tau is subnormal at (1.3, 1e-320) and
    # (0.7, 2e-308) and rounds to 0 at (0.1, 5e-324); the reference forms it exactly
    p = PotentialParams(omega=omega)
    for ra, rb in [(1.0, 1.0), (3.0, 3.0), (1.0, 1.0 + 1e-10)]:
        want = _closed_kernel_mp(1.0, ra, rb, tau, omega)
        got = radial_kernel_closed(p, 0, 0, ra, rb, tau)
        assert abs(got - want) <= 1e-13 * want + 5e-324, (ra, rb)


def test_closed_kernel_at_tiny_endpoints_matches_mpmath():
    # ell_tilde = 0 (alpha = -2) tends to a constant as r -> 0; ell_tilde = 1
    # falls like r^2 and leaves the float range below r = 1e-162; r^2 leaves
    # the normal range between 1.6e-154 and 1.4e-154
    radii = (1e-100, 1.6e-154, 1.4e-154, 1e-155, 1e-160, 1e-170, 1e-300)
    cases = [(PotentialParams(alpha=-2.0), 0.0, r) for r in radii]
    cases += [(PotentialParams(), 1.0, r) for r in radii if r != 1.6e-154]
    for p, ell, r in cases:
        want = _closed_kernel_mp(ell, r, r, 1.0)
        got = radial_kernel_closed(p, 0, 0, r, r, 1.0)
        assert abs(got - want) <= 1e-13 * want + 5e-324, (ell, r)
    assert radial_kernel_closed(PotentialParams(), 0, 0, 1e-170, 1e-170, 1.0) == 0.0
    # at (ell_tilde = 1, r = 1.6e-154) K = 4.5e-309 = e^-710, and 1e-13 of it
    # is less than one ulp of ln K (1.1e-13): ln K is a sum of terms up to
    # ln I = -1064 in size, so a few of its ulps is what log space can hold
    want = _closed_kernel_mp(1.0, 1.6e-154, 1.6e-154, 1.0)
    got = radial_kernel_closed(PotentialParams(), 0, 0, 1.6e-154, 1.6e-154, 1.0)
    assert abs(got - want) <= 4 * math.ulp(math.log(want)) * want


@pytest.mark.parametrize("call, name", [
    (lambda: PotentialParams(omega=math.nan), "omega"),
    (lambda: PotentialParams(alpha=math.inf), "alpha"),
    (lambda: enumerate_states(PotentialParams(alpha=math.nan), 5.0, 2), "alpha"),
    (lambda: radial_kernel_closed(PotentialParams(), 0, 0, 1.0, 1.0, math.nan), "tau"),
    (lambda: radial_kernel_closed(PotentialParams(), 0, 0, math.inf, 1.0, 1.0), "ra"),
    (lambda: radial_kernel_closed(PotentialParams(omega=2.0), 0, 0, 1.0, 1.0, 1e308), "omega tau"),
    (lambda: radial_kernel_spectral(PotentialParams(), 0, 0, 1.0, 1.0, math.nan, 10), "tau"),
    (lambda: radial_kernel_spectral(PotentialParams(), 0, 0, math.nan, 1.0, 1.0, 10), "ra"),
    (lambda: radial_kernel_spectral(PotentialParams(), 0, 0, 1.0, [1.0, math.inf], 1.0, 10), "rb"),
    (lambda: PropagatorQuery(1.0, 1.0, 0.5, 0.5, math.nan, 0.0, 1.0, 10, 2, 2), "phi_a"),
    (lambda: PropagatorQuery(1.0, 1.0, 0.5, 0.5, 0.0, 0.0, math.inf, 10, 2, 2), "tau"),
    (lambda: angular_kernel_spectral(PotentialParams(), 0, 0.5, 0.5, math.nan, 4), "s_tau"),
    (lambda: lattice_kernel_grid(PotentialParams(), 0, 0, math.nan, LATTICE_64), "tau"),
    (lambda: hille_hardy_residual(math.nan, 1.0, 0.5, 1.0), "x_val"),
    (lambda: hille_hardy_residual(1.0, 1.0, 0.5, math.inf), "ell"),
    (lambda: angular_eigenvalues_fd(math.nan, 1.5, default_angular_grid(256), 1), "lam must"),
    (lambda: angular_eigenvalues_fd(1.0, math.nan, default_angular_grid(256), 1), "k must"),
])
def test_non_finite_input_raises_value_error(call, name):
    with pytest.raises(ValueError, match=name):
        call()


def test_closed_kernel_overflows_only_beyond_float_range():
    # ln K is about 9997: the value itself does not fit
    with pytest.raises(OverflowError, match="beyond the float range"):
        radial_kernel_closed(PotentialParams(v0=1e4), 0, 0, 1.0, 1.0, 1.0)


def test_spectral_kernel_overflows_only_beyond_float_range():
    # E_0 = -1/2: the kernel is about e^999 at tau = 2000 and does not fit
    with pytest.raises(OverflowError, match="is e\\^999.269, beyond the float range"):
        radial_kernel_spectral(PotentialParams(v0=3.0), 0, 0, 1.2, 0.7, 2000.0, 5)
    # e^{-E_0 tau} = e^750 alone overflows, the kernel itself is 1e-62
    p = PotentialParams(v0=3.0)
    spectral = radial_kernel_spectral(p, 0, 0, 30.0, 30.0, 1500.0, 5).value
    assert spectral == pytest.approx(radial_kernel_closed(p, 0, 0, 30.0, 30.0, 1500.0), rel=1e-11)


@pytest.mark.parametrize("omega, r, tau", [(1.0, 28.0, 0.1), (100.0, 2.8, 0.001)])
def test_spectral_kernel_at_large_x(omega, r, tau):
    # x = mu omega r^2/hbar = 784 at both endpoints. Past n = x/4 the
    # Laguerre part of R_n grows like e^{x/2}, so the two polynomial
    # parts of a term multiply to about e^784, while the kernel is 1.6e-20
    # (omega = 1). The closed form loses about 1e-12 to cancellation in
    # its exponent here.
    p = PotentialParams(omega=omega)
    spectral = radial_kernel_spectral(p, 0, 0, r, r, tau, 400)
    closed = radial_kernel_closed(p, 0, 0, r, r, tau)
    assert abs(spectral.value - closed) <= spectral.tail_bound + 1e-11 * closed


def test_spectral_partial_sum_whose_leading_term_underflows():
    # x = 760: the n = 0 term e^{-E_0 tau} R_0(r)^2 is 7e-328, below the
    # float range, while the terms up to n_cut climb to the partial sum,
    # 8.4e-93 (n_cut stays below the turning point x/4, so this is a
    # partial sum and not the kernel; the oracle sums the same terms)
    p = PotentialParams()
    r, tau, n_cut = 27.57, 0.1, 100
    ell = effective_ell(p, 0, 0)
    mpmath.mp.dps = 40
    x = mpmath.mpf(r) ** 2

    def rad(n):
        norm = mpmath.sqrt(2 * mpmath.factorial(n) / mpmath.gamma(n + ell + 1.5))
        return norm * mpmath.exp(-x / 2) * x ** (mpmath.mpf(ell) / 2) * mpmath.laguerre(n, ell + 0.5, x)

    want = mpmath.fsum(mpmath.exp(-(2 * n + ell + 1.5) * tau) * rad(n) ** 2 for n in range(n_cut + 1))
    got = radial_kernel_spectral(p, 0, 0, r, r, tau, n_cut).value
    assert abs(got - want) <= 1e-12 * want


def test_spectral_kernel_laguerre_overflow_is_reported():
    # x = 1600: L_n(x) leaves the float range before n = 600; the
    # unscaled recurrence cannot carry it, and the sum says so
    with pytest.raises(OverflowError, match="Laguerre polynomial"):
        radial_kernel_spectral(PotentialParams(), 0, 0, 40.0, 40.0, 0.1, 600)


@pytest.mark.filterwarnings("error")
def test_integrated_diagonal_kernel_laguerre_overflow_is_reported():
    # the radial quadrature reaches x of about 1560, where L_300 overflows;
    # the integral used to be nan, while n_cut = 200 still fits
    with pytest.raises(OverflowError, match="Laguerre polynomial"):
        integrated_diagonal_kernel(PotentialParams(), 0.5, 300, 2, 2)
    assert math.isfinite(integrated_diagonal_kernel(PotentialParams(), 0.5, 200, 2, 2))


@pytest.mark.filterwarnings("error")
def test_integrated_diagonal_kernel_overflows_only_beyond_float_range():
    # at v0 = 800 the ground weight e^{-E_0 tau} is about e^{797}: the integral
    # used to be inf, and the weight is refused before it is exponentiated,
    # with no overflow warning; at v0 = 700 it is about 2.2e303 and fits
    with pytest.raises(OverflowError, match="integrated_diagonal_kernel at tau=1.0 is beyond the float range"):
        integrated_diagonal_kernel(PotentialParams(v0=800.0), 1.0, 5, 2, 2)
    assert integrated_diagonal_kernel(PotentialParams(v0=700.0), 1.0, 5, 2, 2) == pytest.approx(
        2.228686756851997e303, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v0", [711.5, 712.0])
def test_integrated_diagonal_kernel_refuses_a_sum_beyond_float_range(v0):
    # the lowest weight fits here (e^{709.5} at v0 = 712, ground sector
    # ell_tilde = 1), but the weighted sum does not; with e^{-E_0 tau}
    # factored out of the weights no product overflows on the way
    p = PotentialParams(v0=v0)
    assert -ladder_energy(p, 0, effective_ell(p, 0, 0)) < math.log(np.finfo(float).max)
    with pytest.raises(OverflowError, match="integrated_diagonal_kernel at tau=1.0 is beyond the float range"):
        integrated_diagonal_kernel(p, 1.0, 5, 2, 2)


def test_angular_kernel_refuses_nan_angles():
    # angular_profiles alone checks the angles; NaN fails its range test
    with pytest.raises(ValueError, match="angles"):
        angular_kernel_spectral(COUPLED, 0, np.array([0.3, math.nan]), 0.5, 1.0, 4)


def test_full_kernel_at_large_x_matches_closed_sectors():
    # every sector's radial factor as the closed kernel; n_cut = 400 leaves
    # a radial tail far below the tolerance
    from ncosc.model import admissible_ell, angular_mode
    from ncosc.spectrum import angular_wavefunction

    q = PropagatorQuery(ra=28.0, rb=28.0, theta_a=0.6, theta_b=0.9, phi_a=0.3, phi_b=1.9,
                        tau=0.1, n_cut=400, ntheta_cut=2, m_cut=1)
    total, scale = 0.0, 0.0
    for m in range(-1, 2):
        for nt in range(3):
            if admissible_ell(COUPLED, nt, m) is None:
                continue
            mode = angular_mode(COUPLED, nt, m)
            term = (radial_kernel_closed(COUPLED, nt, m, 28.0, 28.0, 0.1) * math.cos(m * 1.6) / (2 * math.pi)
                    * angular_wavefunction(mode, 0.6) * angular_wavefunction(mode, 0.9))
            total += term
            scale += abs(term)
    k = full_kernel_spectral(COUPLED, q)
    assert k.imag == 0.0 and k.real != 0.0
    assert abs(k.real - total) <= 1e-10 * scale


def test_closed_kernel_past_sinh_range():
    # sinh(omega tau) overflows past tau ~ 710; the kernel grows like
    # e^{-E_0 tau/hbar}, E_0 = -1/2 here, and still fits; the other times
    # straddle 700 and 710
    p = PotentialParams(v0=3.0)
    for tau in (650.0, 699.99, 700.01, 709.5, 710.5, 800.0):
        spectral = radial_kernel_spectral(p, 0, 0, 1.2, 0.7, tau, 5).value
        assert radial_kernel_closed(p, 0, 0, 1.2, 0.7, tau) == pytest.approx(spectral, rel=1e-11)
    assert radial_kernel_closed(PotentialParams(), 0, 0, 1.2, 0.7, 800.0) == 0.0


def test_closed_kernel_bessel_argument_from_its_log_in_range():
    # the Bessel argument z is taken from its logarithm, past omega tau =
    # 700 and where sinh(omega tau) is subnormal alike; in both cases here z
    # itself is a normal float (1.3e-306 and 1e300)
    got = radial_kernel_closed(PotentialParams(v0=3.0), 0, 0, 1.0, 1.0, 705.0)
    assert got == pytest.approx(6.7905380162459842e+152, rel=1e-13)  # mpmath, 50 digits
    # at tau = 1e-320 the kernel between (1e-10, 1e-10) is the free kernel
    p, r, tau = PotentialParams(), 1e-10, 1e-320
    free = math.sqrt(p.mu / (2 * math.pi * p.hbar)) / math.sqrt(tau) / (r * r)
    assert radial_kernel_closed(p, 0, 0, r, r, tau) == pytest.approx(free, rel=1e-13)
    # and where omega tau rounds to 0 and ra rb = 9e320 overflows, so that
    # 1 - e^{-omega tau} = 0 must not meet ra rb = inf
    p, r, tau = PotentialParams(omega=0.1), 3e160, 5e-324
    free = math.sqrt(p.mu / (2 * math.pi * p.hbar)) / math.sqrt(tau) / r / r
    assert radial_kernel_closed(p, 0, 0, r, r, tau) == pytest.approx(free, rel=1e-13)


def _log_closed_kernel_mp(p, ell, ra, rb, tau):
    mpmath.mp.dps = 30
    wt = mpmath.mpf(p.omega * tau)
    scale = mpmath.mpf(p.mu * p.omega / p.hbar)
    sh = mpmath.sinh(wt)
    return (mpmath.log(scale / sh) + mpmath.log(mpmath.besseli(ell + 0.5, scale * ra * rb / sh))
            + p.v0 * tau / p.hbar - scale * (ra * ra + rb * rb) * mpmath.cosh(wt) / (2 * sh)
            - mpmath.log(ra * rb) / 2)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@given(
    alpha=st.floats(-3.0, 5.0), beta=st.floats(-2.0, 3.0), gamma=st.floats(-0.25, 4.0, exclude_min=True),
    v0=st.floats(-2.0, 2.0), n_theta=st.integers(0, 5), m=st.integers(-5, 5),
    tau=_log_uniform(1e-4, 50.0), ra=_log_uniform(1e-3, 6.0), rb=_log_uniform(1e-3, 6.0),
    n_cut=st.integers(1, 120),
)
# the two routes past the float range: a kernel of e^999, and a kernel of
# 1e-62 whose time weight e^{-E_0 tau} alone overflows
@example(alpha=0.0, beta=0.0, gamma=0.0, v0=3.0, n_theta=0, m=0, tau=2000.0, ra=1.2, rb=0.7, n_cut=5)
@example(alpha=0.0, beta=0.0, gamma=0.0, v0=3.0, n_theta=0, m=0, tau=1500.0, ra=30.0, rb=30.0, n_cut=5)
# x = 784 at both endpoints, where two polynomial parts multiply to e^784
@example(alpha=0.0, beta=0.0, gamma=0.0, v0=0.0, n_theta=0, m=0, tau=0.1, ra=28.0, rb=28.0, n_cut=400)
# short times, where the closed kernel's two large exponents cancel; at
# 1e-320 sinh(tau) is subnormal
@example(alpha=0.0, beta=0.0, gamma=0.0, v0=0.0, n_theta=0, m=0, tau=5e-324, ra=1.0, rb=1.0, n_cut=5)
@example(alpha=0.0, beta=0.0, gamma=0.0, v0=0.0, n_theta=0, m=0, tau=1e-320, ra=1.0, rb=1.0, n_cut=5)
@example(alpha=0.0, beta=0.0, gamma=0.0, v0=0.0, n_theta=0, m=0, tau=1e-300, ra=1.0, rb=1.0, n_cut=5)
@example(alpha=0.0, beta=0.0, gamma=0.0, v0=0.0, n_theta=0, m=0, tau=1e-20, ra=1.0, rb=1.0, n_cut=5)
@example(alpha=0.0, beta=0.0, gamma=0.0, v0=0.0, n_theta=0, m=0, tau=1e-20, ra=1.0, rb=1.0 + 1e-10, n_cut=5)
@example(alpha=0.0, beta=0.0, gamma=0.0, v0=0.0, n_theta=0, m=0, tau=1e-9, ra=3.0, rb=3.0, n_cut=5)
@example(alpha=0.0, beta=0.0, gamma=0.0, v0=0.0, n_theta=0, m=0, tau=2e-3, ra=3.0, rb=3.0, n_cut=120)
@settings(max_examples=300, deadline=None)
def test_kernel_routes_finite_or_fail_with_reason(alpha, beta, gamma, v0, n_theta, m, tau, ra, rb, n_cut):
    p = PotentialParams(v0=v0, alpha=alpha, beta=beta, gamma=gamma)
    # the sector holds bound states iff beta + m^2 >= 0 and ell_tilde >= 0
    bound = beta + m * m >= 0
    radicand = (math.sqrt(gamma + 0.25) + math.sqrt(beta + m * m) + 2 * n_theta + 1) ** 2 + alpha - beta if bound else -1.0
    if radicand < 0.25:
        with pytest.raises(ValueError):
            radial_kernel_closed(p, n_theta, m, ra, rb, tau)
        with pytest.raises(ValueError):
            radial_kernel_spectral(p, n_theta, m, ra, rb, tau, n_cut)
        return
    ell = math.sqrt(radicand) - 0.5
    try:
        closed = radial_kernel_closed(p, n_theta, m, ra, rb, tau)
    except OverflowError:
        assert _log_closed_kernel_mp(p, ell, ra, rb, tau) > math.log(sys.float_info.max)
        try:
            spectral = radial_kernel_spectral(p, n_theta, m, ra, rb, tau, n_cut)
        except OverflowError as exc:
            assert "beyond the float range" in str(exc)
        else:
            # a partial sum that fits although the kernel does not must
            # report the gap in its tail bound
            assert spectral.value + spectral.tail_bound >= sys.float_info.max
        return
    spectral = radial_kernel_spectral(p, n_theta, m, ra, rb, tau, n_cut)
    assert math.isfinite(closed) and math.isfinite(spectral.value)
    assert spectral.tail_bound > 0
    # rounding of the partial sum is bounded via Cauchy-Schwarz by the diagonal sums
    s_aa = radial_kernel_spectral(p, n_theta, m, ra, ra, tau, n_cut).value
    s_bb = radial_kernel_spectral(p, n_theta, m, rb, rb, tau, n_cut).value
    allowance = spectral.tail_bound + 1e-10 * abs(closed) + 1e-12 * (s_aa + s_bb)
    assert abs(closed - spectral.value) <= allowance


def test_spectral_tail_bound_where_omega_tau_rounds_to_zero():
    # at omega = 0.1, 2 omega tau is 0 at tau = 5e-324 and subnormal at
    # 1e-320: ln(1 - e^{-2 omega tau}) is taken from ln omega + ln tau there
    # (log of -expm1(0) used to raise a bare math domain error)
    p = PotentialParams(omega=0.1)
    for tau in (5e-324, 1e-320):
        closed = radial_kernel_closed(p, 0, 0, 1.0, 1.0, tau)
        spectral = radial_kernel_spectral(p, 0, 0, 1.0, 1.0, tau, 10)
        assert math.isfinite(closed) and math.isfinite(spectral.value)
        assert abs(closed - spectral.value) <= spectral.tail_bound


def test_hille_hardy_residual_small_on_seeded_draws():
    rng = np.random.default_rng(20260817)
    for _ in range(20):
        x = float(rng.uniform(1e-6, 3.0))
        y = float(rng.uniform(1e-6, 3.0))
        s = float(rng.uniform(0.1, 0.7))
        ell = float(rng.uniform(0.0, 6.0))
        assert hille_hardy_residual(x, y, s, ell) <= 1e-10


def test_quartic_moment_identity_across_scales():
    for a in (0.1, 0.5, 1.0, 10.0, 100.0):
        assert quartic_moment_check(a) <= 1e-12, a
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite a > 0"):
            quartic_moment_check(a)


def test_lattice_spec_validation():
    with pytest.raises(ValueError, match="n_slices"):
        LatticeSpec(n_slices=0, r_min=0.02, r_max=8.0, n_grid=400)
    with pytest.raises(ValueError, match="0 < r_min < r_max"):
        LatticeSpec(n_slices=4, r_min=2.0, r_max=1.0, n_grid=400)
    with pytest.raises(ValueError, match="n_grid"):
        LatticeSpec(n_slices=4, r_min=0.02, r_max=8.0, n_grid=8)


_QUERY = dict(ra=1.0, rb=1.2, theta_a=0.5, theta_b=0.6, phi_a=0.1, phi_b=0.2, tau=0.7)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: PropagatorQuery(**_QUERY, n_cut=10, ntheta_cut=3, m_cut=2.5), "m_cut must be an integer",
                 id="query-m_cut"),
    pytest.param(lambda: PropagatorQuery(**_QUERY, n_cut=10.0, ntheta_cut=3, m_cut=2), "n_cut must be an integer",
                 id="query-n_cut"),
    pytest.param(lambda: angular_kernel_spectral(COUPLED, 0, 0.5, 0.6, 1.0, 2.5), "ntheta_cut must be an integer",
                 id="angular-ntheta_cut"),
    pytest.param(lambda: radial_kernel_spectral(COUPLED, 0, 0, 1.0, 1.0, 1.0, 2.5), "n_cut must be an integer",
                 id="radial-n_cut"),
    pytest.param(lambda: enumerate_states(COUPLED, 6.0, 2.5), "m_max must be an integer", id="enumerate-m_max"),
    pytest.param(lambda: LatticeSpec(n_slices=2.5), "n_slices must be an integer", id="lattice-n_slices"),
    pytest.param(lambda: LatticeSpec(4, n_grid=400.5), "n_grid must be an integer", id="lattice-n_grid"),
    pytest.param(lambda: GridSpec(12.0, 500.5), "n_points must be an integer", id="grid-n_points"),
    pytest.param(lambda: GridSpec(12.0, 500, "no"), "richardson must be an integer", id="grid-richardson-str"),
    pytest.param(lambda: GridSpec(12.0, 500, 0.5), "richardson must be an integer", id="grid-richardson-float"),
    pytest.param(lambda: GridSpec(12.0, 500, math.nan), "richardson must be an integer", id="grid-richardson-nan"),
    pytest.param(lambda: GridSpec(12.0, 500, None), "richardson must be an integer", id="grid-richardson-none"),
    pytest.param(lambda: GridSpec(12.0, 500, -1), "richardson must be >= 0, got -1", id="grid-richardson-floor"),
    pytest.param(lambda: radial_eigenvalues_fd(PotentialParams(), 0, 0, GridSpec(12.0, 64, False), 70),
                 "count = 70 asks for 70 eigenvalues of a grid with n_points = 64", id="radial-count-past-grid"),
    pytest.param(lambda: angular_eigenvalues_fd(1.0, 1.5, default_angular_grid(256), 300),
                 r"count = 300 asks for 301 eigenvalues of a grid with n_points = 256 \(Richardson",
                 id="angular-count-past-grid"),
    pytest.param(lambda: integrated_diagonal_kernel(COUPLED, 1.0, -1, 3, 3), "n_cut must be >= 0, got -1",
                 id="trace-n_cut-floor"),
    pytest.param(lambda: integrated_diagonal_kernel(COUPLED, 1.0, 5, -1, 3), "ntheta_cut must be >= 0, got -1",
                 id="trace-ntheta_cut-floor"),
    pytest.param(lambda: integrated_diagonal_kernel(COUPLED, 1.0, 5, 3, -1), "m_cut must be >= 0, got -1",
                 id="trace-m_cut-floor"),
    pytest.param(lambda: integrated_diagonal_kernel(COUPLED, 1.0, 5, 3, 1.5), "m_cut must be an integer",
                 id="trace-m_cut"),
    pytest.param(lambda: gauss_panels(0.0, 1.0, 0, 5), "n_panels must be >= 1, got 0", id="panels-n_panels-floor"),
    pytest.param(lambda: gauss_panels(0.0, 1.0, 2.5, 5), "n_panels must be an integer", id="panels-n_panels"),
    pytest.param(lambda: gauss_panels(0.0, 1.0, 3, 0), "n_nodes must be >= 1, got 0", id="panels-n_nodes-floor"),
    pytest.param(lambda: gauss_panels(0.0, math.nan, 2, 3), "finite lo < hi, got lo=0.0, hi=nan", id="panels-nan"),
    pytest.param(lambda: gauss_panels(0.0, math.inf, 2, 3), "finite lo < hi, got lo=0.0, hi=inf", id="panels-inf"),
    pytest.param(lambda: gauss_panels(1.0, 0.0, 2, 3), "finite lo < hi, got lo=1.0, hi=0.0", id="panels-descending"),
    pytest.param(lambda: gauss_panels(1.0, 1.0, 2, 3), "finite lo < hi, got lo=1.0, hi=1.0", id="panels-empty"),
    pytest.param(lambda: radial_log_norm(COUPLED, 2.5, 1.0), "n_max must be an integer", id="log-norm-n_max"),
    pytest.param(lambda: radial_log_norm(COUPLED, -1, 1.0), "n_max must be >= 0, got -1", id="log-norm-n_max-floor"),
    pytest.param(lambda: radial_profiles(COUPLED, 1.0, 3.0, [1.0]), "n_max must be an integer",
                 id="profiles-n_max"),
    pytest.param(lambda: radial_profiles(COUPLED, [1.0, 2.0], -1, [1.0]), "n_max must be >= 0, got -1",
                 id="profiles-n_max-floor"),
    pytest.param(lambda: radial_wavefunction(COUPLED, 1.0, 1.0, 1.0), "n must be an integer", id="wavefunction-n"),
    pytest.param(lambda: radial_wavefunction(COUPLED, -1, 1.0, 1.0), "n must be >= 0, got -1",
                 id="wavefunction-n-floor"),
])
def test_counts_and_cutoffs_must_be_integers_at_their_floor(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_lattice_kernel_converges_to_closed_form():
    closed = radial_kernel_closed(PotentialParams(), 0, 0, 0.8, 1.2, 0.5)
    val = lattice_radial_kernel(PotentialParams(), 0, 0, 0.8, 1.2, 0.5, LATTICE_64)
    assert val == pytest.approx(closed, rel=1e-3)


def test_single_slice_is_bare_heat_kernel():
    # one slice at tiny tau: potential factor ~1, kernel ~ sqrt(mu/2 pi hbar tau)
    p = PotentialParams()
    tau = 1e-4
    spec = LatticeSpec(n_slices=1, r_min=0.02, r_max=8.0, n_grid=400)
    val = lattice_radial_kernel(p, 0, 0, 1.0, 1.0, tau, spec)
    assert val == pytest.approx(math.sqrt(p.mu / (2 * math.pi * p.hbar * tau)), rel=5e-4)


def test_lattice_bandwidth_guards():
    # slice kernel much narrower than the grid spacing
    with pytest.raises(ValueError, match="under-resolved"):
        lattice_radial_kernel(PotentialParams(), 0, 0, 1.0, 1.0, 0.5,
                              LatticeSpec(n_slices=4096, r_min=0.02, r_max=8.0, n_grid=400))
    # slice kernel wider than the box
    with pytest.raises(ValueError, match="spans the grid"):
        lattice_radial_kernel(PotentialParams(), 0, 0, 1.0, 1.0, 200.0,
                              LatticeSpec(n_slices=2, r_min=0.02, r_max=8.0, n_grid=400))


@pytest.mark.filterwarnings("error")
def test_lattice_grid_starting_where_r_squared_underflows():
    # below r_min of about 1.5e-162, r * r is 0: the harmonic split must stay
    # finite there and leave the kernel away from the origin unchanged. The
    # slice entries where ive (from r_min = 1e-150) or r r' (at 1e-300)
    # underflows are e^-inf = 0, and taking their logs must not warn
    spec = LatticeSpec(32, r_min=1e-300)
    ref = lattice_radial_kernel(PotentialParams(), 0, 0, 0.8, 1.2, 0.5, LatticeSpec(32, r_min=1e-150))
    _, kern = lattice_kernel_grid(PotentialParams(), 0, 0, 0.5, spec)
    assert lattice_radial_kernel(PotentialParams(), 0, 0, 0.8, 1.2, 0.5, spec) == ref
    assert np.all(np.isfinite(kern))


def test_lattice_endpoints_must_lie_on_grid_interval():
    with pytest.raises(ValueError, match="inside"):
        lattice_radial_kernel(PotentialParams(), 0, 0, 9.0, 1.0, 0.5, LATTICE_64)


def test_lattice_semigroup_property():
    # two 32-slice half-time kernels composed with the grid measure equal
    # the 64-slice full-time kernel
    p = PotentialParams()
    half = LatticeSpec(n_slices=32, r_min=0.02, r_max=8.0, n_grid=400)
    g, k_half = lattice_kernel_grid(p, 0, 0, 0.5, half)
    _, k_full = lattice_kernel_grid(p, 0, 0, 1.0, LATTICE_64)
    h = g[1] - g[0]
    w = np.full(len(g), h)
    w[0] = w[-1] = 0.5 * h
    composed = (k_half * (w * g * g)[None, :]) @ k_half
    ia, ib = 39, 59  # nodes at r = 0.8 and 1.2
    assert composed[ia, ib] == pytest.approx(k_full[ia, ib], rel=1e-6)


def _reference_chain(p, tau, spec):
    # the N-slice kernel as the plain chain T (W T)^(N-1), divided by r_i r_j
    grid = np.linspace(spec.r_min, spec.r_max, spec.n_grid)
    h = grid[1] - grid[0]
    w = np.full(spec.n_grid, h)
    w[0] = w[-1] = 0.5 * h
    t = _slice_matrix(p, effective_ell(p, 0, 0), grid, grid, tau / spec.n_slices)
    composed = t
    for _ in range(spec.n_slices - 1):
        composed = (composed * w[None, :]) @ t
    return grid, composed / (grid[:, None] * grid[None, :])


def test_slice_matrix_mirrors_its_upper_triangle():
    # distinct row and column arrays make _slice_matrix evaluate every entry
    grid = np.linspace(0.02, 8.0, 400)
    for p in (PotentialParams(alpha=1.0), PotentialParams(mu=0.7, alpha=1.0)):
        half = _slice_matrix(p, 1.3, grid, grid, 0.05)
        full = _slice_matrix(p, 1.3, grid, grid.copy(), 0.05)
        assert np.array_equal(half, half.T)
        if p.mu == 1.0:
            # (mu x_i) y_j rounds like (mu x_j) y_i only at mu = 1
            assert np.array_equal(half, full)
        else:
            big = full > 1e-8 * full.max()
            assert np.max(np.abs(half[big] / full[big] - 1)) <= 1e-14
            assert np.max(np.abs(half - full)) <= 1e-14 * full.max()


def _unbanded(monkeypatch):
    # an infinite reach makes _slice_matrix evaluate every entry
    monkeypatch.setattr(propagator, "_slice_reach", lambda *args: math.inf)


# (params, (r_min, r_max, n_grid), n_slices, tau, (n_theta, m)). The first
# three are where a reach of 745/N + 45 moves composed entries below 5e-210;
# at mu = 50, v0 = 3 the harmonic potential climbs 1600 over the box, where
# a reach blind to the potential moves entries near 1e-304 by one ulp
BAND_CASES = [
    *((PotentialParams(hbar=0.6, mu=1.7, omega=1.3, v0=-2.0, alpha=-0.2), (0.01, 12.0, 600), n, 0.05, (0, 0))
      for n in (2, 3, 4)),
    (PotentialParams(mu=10.0, alpha=1.0, beta=0.5, gamma=2.0), (0.01, 3.0, 300), 16, 0.16, (1, 2)),  # mu/(hbar eps) = 1e3
    (PotentialParams(hbar=2.0, mu=50.0, v0=3.0, alpha=0.4), (0.02, 8.0, 400), 8, 2.0, (0, 0)),
    (COUPLED, (0.05, 5.0, 250), 16, 0.5, (1, 2)),
    (PotentialParams(), (0.02, 8.0, 400), 64, 0.5, (0, 0)),
]


def test_banded_lattice_equals_unbanded_bit_for_bit(monkeypatch):
    banded = []
    for p, box, n_slices, tau, (n_theta, m) in BAND_CASES:
        spec = LatticeSpec(n_slices, *box)
        grid = np.linspace(*box)
        # the N-aware reach cuts the slice: the case tests the band
        assert propagator._slice_reach(p, tau / n_slices, grid, grid, n_slices) < box[1] - box[0]
        _, kern = lattice_kernel_grid(p, n_theta, m, tau, spec)
        banded.append((kern, lattice_radial_kernel(p, n_theta, m, 0.81, 1.234, tau, spec)))
    _unbanded(monkeypatch)
    for (p, box, n_slices, tau, (n_theta, m)), (kern, val) in zip(BAND_CASES, banded):
        spec = LatticeSpec(n_slices, *box)
        assert np.array_equal(kern, lattice_kernel_grid(p, n_theta, m, tau, spec)[1]), (p, n_slices)
        assert val == lattice_radial_kernel(p, n_theta, m, 0.81, 1.234, tau, spec), (p, n_slices)


def test_band_keeps_every_entry_a_returned_slice_holds(monkeypatch):
    # one slice, and the end slices of the endpoint route, take the exact
    # reach: every entry that fits in a float, down to the tails near 1e-300
    p = PotentialParams()
    _, kern = lattice_kernel_grid(p, 0, 0, 0.045, LatticeSpec(1))
    ends = [(ra, rb, n) for ra, rb in ((0.8, 1.2), (0.05, 7.9)) for n in (1, 2)]
    vals = [lattice_radial_kernel(p, 0, 0, ra, rb, 0.045, LatticeSpec(n)) for ra, rb, n in ends]
    _unbanded(monkeypatch)
    _, full = lattice_kernel_grid(p, 0, 0, 0.045, LatticeSpec(1))
    assert np.any((full > 0) & (full < 1e-290))
    assert np.array_equal(kern, full)
    assert vals == [lattice_radial_kernel(p, 0, 0, ra, rb, 0.045, LatticeSpec(n)) for ra, rb, n in ends]
    assert 0 < vals[-1] < 1e-250


def test_verify_lattice_checks_evaluate_under_half_their_slice_entries(monkeypatch):
    # a square slice holds its upper triangle, a rectangular one every entry
    held, evaluated = [], []
    build, log_kernel = propagator._slice_matrix, propagator._log_radial_kernel

    def counted_build(p, ell, x, y, *rest):
        held.append(len(x) * (len(x) + 1) // 2 if x is y else len(x) * len(y))
        return build(p, ell, x, y, *rest)

    def counted_log_kernel(*args):
        out = log_kernel(*args)
        if isinstance(out, np.ndarray):
            evaluated.append(out.size)
        return out

    monkeypatch.setattr(propagator, "_slice_matrix", counted_build)
    monkeypatch.setattr(propagator, "_log_radial_kernel", counted_log_kernel)
    for name in ("semigroup", "lattice-order", "lattice-accuracy"):
        assert run_check("propagator", name).passed, name
    assert len(held) == 16  # six 400x400 slices and ten end slices
    assert sum(evaluated) < 0.5 * sum(held)


def test_log_radial_kernel_at_zero_omega_is_the_free_kernel():
    # at nu = 1/2 the free radial kernel is elementary,
    # (e^{-(ra-rb)^2/2tau} - e^{-(ra+rb)^2/2tau}) / (ra rb sqrt(2 pi tau)) at
    # mu = hbar = 1, and shares no code with the Bessel path; compared in
    # log space, over the lattice box, on arrays and on floats
    r = np.geomspace(0.02, 8.0, 40)
    ra, rb = np.meshgrid(r, r, indexing="ij")
    for tau in np.geomspace(0.01, 5.0, 12):
        want = (-(ra - rb) ** 2 / (2 * tau) + np.log(-np.expm1(-2 * ra * rb / tau))
                - np.log(ra * rb * np.sqrt(2 * np.pi * tau)))
        got = _log_radial_kernel(1.0, 0.0, 0.5, ra, rb, tau)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), tau
        one = _log_radial_kernel(1.0, 0.0, 0.5, 1.1, 0.7, float(tau))
        assert isinstance(one, float)
        want_one = -0.08 / tau + math.log(-math.expm1(-1.54 / tau)) - math.log(0.77 * math.sqrt(2 * math.pi * tau))
        assert abs(one - want_one) <= 1e-13 * max(1.0, abs(want_one)), tau


@pytest.mark.filterwarnings("error")
def test_log_radial_kernel_arrays_match_scalar_calls():
    # the array path takes scipy's ive ufunc and np.log where floats take the
    # compiled scalar ive and math.log; at nu = 300.5 ive underflows over
    # much of the grid, and those entries take the float path
    r = np.geomspace(0.05, 4.0, 25)
    ra, rb = r[:, None], r[None, :]
    for nu in (0.5, 1.5, 5.77, 40.5, 300.5):
        for omega in (0.0, 1.3):
            for tau in (1e-3, 0.02, 0.3, 2.0):
                batch = _log_radial_kernel(0.7, omega, nu, ra, rb, tau)
                assert batch.shape == (25, 25)
                for i, j in np.ndindex(25, 25):
                    one = _log_radial_kernel(0.7, omega, nu, float(r[i]), float(r[j]), tau)
                    assert abs(batch[i, j] - one) <= 1e-13 * max(1.0, abs(one)), (nu, omega, tau, i, j)


def test_lattice_grid_powering_matches_reference_chain():
    # powers of two and other slice counts; the 200-point grid resolves
    # the 64-slice width at tau = 1
    p = PotentialParams()
    for n_slices in (1, 2, 3, 5, 16, 17, 64):
        spec = LatticeSpec(n_slices=n_slices, r_min=0.02, r_max=8.0, n_grid=200)
        g, kern = lattice_kernel_grid(p, 0, 0, 1.0, spec)
        g_ref, ref = _reference_chain(p, 1.0, spec)
        assert np.array_equal(g, g_ref)
        assert np.all(kern > 0), n_slices
        assert np.max(np.abs(kern / ref - 1)) <= 1e-12, n_slices


def test_lattice_endpoints_on_nodes_equal_grid_entries():
    p = PotentialParams()
    for n_slices in (1, 2, 3, 16, 64):
        spec = LatticeSpec(n_slices=n_slices, r_min=0.02, r_max=8.0, n_grid=200)
        g, kern = lattice_kernel_grid(p, 0, 0, 1.0, spec)
        for ia, ib in ((19, 29), (29, 19), (0, 199), (50, 50)):
            val = lattice_radial_kernel(p, 0, 0, float(g[ia]), float(g[ib]), 1.0, spec)
            assert val == pytest.approx(kern[ib, ia], rel=1e-13, abs=0), (n_slices, ia, ib)


def test_lattice_off_grid_endpoints_are_lattice_values():
    # no interpolation between nodes: an off-grid pair carries the same
    # Trotter error as a nearby node pair at the same slice count
    p = PotentialParams()
    for n_slices in (16, 32, 64):
        spec = LatticeSpec(n_slices=n_slices, r_min=0.02, r_max=8.0, n_grid=400)
        node_err = abs(lattice_radial_kernel(p, 0, 0, 0.8, 1.2, 0.5, spec)
                       / radial_kernel_closed(p, 0, 0, 0.8, 1.2, 0.5) - 1)
        off_err = abs(lattice_radial_kernel(p, 0, 0, 0.81, 1.234, 0.5, spec)
                      / radial_kernel_closed(p, 0, 0, 0.81, 1.234, 0.5) - 1)
        assert off_err <= node_err, n_slices
    # two slices: one trapezoid sum over the intermediate point
    spec = LatticeSpec(n_slices=2, r_min=0.02, r_max=8.0, n_grid=400)
    g = np.linspace(0.02, 8.0, 400)
    w = np.full(400, g[1] - g[0])
    w[0] = w[-1] = 0.5 * (g[1] - g[0])
    ell = effective_ell(p, 0, 0)
    ra, rb = np.array([0.81]), np.array([1.234])
    want = float(_slice_matrix(p, ell, rb, g, 0.25)[0] @ (w * _slice_matrix(p, ell, g, ra, 0.25)[:, 0]))
    val = lattice_radial_kernel(p, 0, 0, 0.81, 1.234, 0.5, spec)
    assert val == pytest.approx(want / (0.81 * 1.234), rel=1e-13)


def test_import_leaves_spline_module_unloaded():
    src = Path(ncosc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ncosc; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_angular_kernel_filters_eigenmodes():
    # projecting the kernel onto one eigenmode returns its Boltzmann weight
    from ncosc.model import angular_mode
    from ncosc.oracle import inner_product_angular
    from ncosc.spectrum import angular_wavefunction

    mode = angular_mode(COUPLED, 1, 1)
    proj = inner_product_angular(
        lambda th: np.array([angular_kernel_spectral(COUPLED, 1, float(t), 0.6, 0.8, 12) for t in np.atleast_1d(th)]),
        lambda th: angular_wavefunction(mode, th),
    ).value
    want = math.exp(-mode.eps * 0.8) * angular_wavefunction(mode, 0.6)
    assert proj == pytest.approx(want, rel=1e-8)


def test_spectral_kernel_array_endpoints_match_scalar_calls():
    ra = np.array([0.05, 0.6, 1.1, 2.517, 4.0])
    rb = np.array([[1.7], [0.3]])
    for tau, n_cut in ((0.1, 40), (1.0, 20), (2000.0, 5)):
        batch = radial_kernel_spectral(COUPLED, 1, 2, ra, rb, tau, n_cut)
        assert batch.value.shape == batch.tail_bound.shape == (2, 5)
        for i, j in np.ndindex(2, 5):
            one = radial_kernel_spectral(COUPLED, 1, 2, float(ra[j]), float(rb[i, 0]), tau, n_cut)
            assert isinstance(one.value, float) and isinstance(one.tail_bound, float)
            assert batch.value[i, j] == pytest.approx(one.value, rel=1e-15, abs=0)
            assert batch.tail_bound[i, j] == pytest.approx(one.tail_bound, rel=1e-15, abs=0)


def test_angular_kernel_array_angles_match_scalar_calls():
    th = np.linspace(0.05, 1.5, 9)
    batch = angular_kernel_spectral(COUPLED, 1, th, 0.6, 0.8, 12)
    assert batch.shape == (9,)
    for t, val in zip(th, batch):
        one = angular_kernel_spectral(COUPLED, 1, float(t), 0.6, 0.8, 12)
        assert isinstance(one, float)
        assert val == pytest.approx(one, rel=1e-15, abs=1e-300)
    grid = angular_kernel_spectral(COUPLED, 2, th[:, None], th[None, :], 0.5, 6)
    assert grid.shape == (9, 9)
    assert grid[3, 7] == pytest.approx(angular_kernel_spectral(COUPLED, 2, th[3], th[7], 0.5, 6), rel=1e-15)


def test_full_kernel_matches_signed_m_loop():
    # every (n_theta, m) sector summed one at a time with its complex phase
    from ncosc.model import admissible_ell, angular_mode
    from ncosc.spectrum import angular_wavefunction

    # at zero couplings sectors (1, 0) and (0, 2) share ell_tilde: repeated orders
    for p in (COUPLED, PotentialParams(alpha=-1.5, beta=-0.7, gamma=0.3, v0=0.4), PotentialParams()):
        q = PropagatorQuery(ra=0.9, rb=1.4, theta_a=0.6, theta_b=0.9, phi_a=0.3, phi_b=1.9,
                            tau=0.8, n_cut=25, ntheta_cut=8, m_cut=6)
        total, scale = 0.0 + 0.0j, 0.0
        for m in range(-6, 7):
            phase = complex(math.cos(m * 1.6), math.sin(m * 1.6)) / (2 * math.pi)
            for nt in range(9):
                if admissible_ell(p, nt, m) is None:
                    continue
                mode = angular_mode(p, nt, m)
                term = (radial_kernel_spectral(p, nt, m, 0.9, 1.4, 0.8, 25).value
                        * angular_wavefunction(mode, 0.6) * angular_wavefunction(mode, 0.9) * phase)
                total += term
                scale += abs(term)
        k = full_kernel_spectral(p, q)
        assert isinstance(k, complex) and k.imag == 0.0
        assert abs(k - total) <= 1e-14 * scale


def test_full_kernel_overflows_only_beyond_float_range():
    q = dict(ra=1.2, rb=0.7, theta_a=0.6, theta_b=0.9, phi_a=0.3, phi_b=1.9, n_cut=5, ntheta_cut=2, m_cut=1)
    with pytest.raises(OverflowError, match="beyond the float range"):
        full_kernel_spectral(PotentialParams(v0=3.0), PropagatorQuery(tau=2000.0, **q))
    # the largest sector weight e^{-E_0 tau} alone overflows, the kernel fits
    far = dict(q, ra=30.0, rb=30.0)
    k = full_kernel_spectral(PotentialParams(v0=3.0), PropagatorQuery(tau=1500.0, **far))
    assert 0 < k.real < 1e-50


def test_full_kernel_hermitian_and_phi_translation_invariant():
    q = dict(ra=0.9, rb=1.4, theta_a=0.6, theta_b=0.9, tau=0.8, n_cut=20, ntheta_cut=6, m_cut=4)
    k_ab = full_kernel_spectral(COUPLED, PropagatorQuery(phi_a=0.3, phi_b=1.9, **q))
    swapped = dict(q, ra=q["rb"], rb=q["ra"], theta_a=q["theta_b"], theta_b=q["theta_a"])
    k_ba = full_kernel_spectral(COUPLED, PropagatorQuery(phi_a=1.9, phi_b=0.3, **swapped))
    assert k_ba.conjugate() == pytest.approx(k_ab, rel=1e-12)
    k_shift = full_kernel_spectral(COUPLED, PropagatorQuery(phi_a=1.3, phi_b=2.9, **q))
    assert k_shift == pytest.approx(k_ab, rel=1e-12)


def test_full_kernel_diagonal_real_positive():
    diag = full_kernel_spectral(COUPLED, PropagatorQuery(
        ra=0.9, rb=0.9, theta_a=0.7, theta_b=0.7, phi_a=0.2, phi_b=0.2,
        tau=0.9, n_cut=20, ntheta_cut=6, m_cut=4))
    assert abs(diag.imag) < 1e-14
    assert diag.real > 0


def test_full_kernel_skips_inadmissible_sectors():
    # beta = -1 removes every m = 0 sector; the remaining sum matches a
    # hand-built sum over |m| >= 1
    p = PotentialParams(beta=-1.0)
    q = PropagatorQuery(ra=1.0, rb=1.1, theta_a=0.7, theta_b=0.8, phi_a=0.0, phi_b=0.4,
                        tau=1.0, n_cut=15, ntheta_cut=5, m_cut=3)
    from ncosc.model import angular_mode
    from ncosc.spectrum import angular_wavefunction

    total = 0.0 + 0.0j
    for m in (-3, -2, -1, 1, 2, 3):
        phase = complex(math.cos(m * 0.4), math.sin(m * 0.4)) / (2 * math.pi)
        for nt in range(6):
            mode = angular_mode(p, nt, m)
            ang = angular_wavefunction(mode, 0.7) * angular_wavefunction(mode, 0.8)
            rad = radial_kernel_spectral(p, nt, m, 1.0, 1.1, 1.0, 15).value
            total += rad * ang * phase
    assert full_kernel_spectral(p, q) == pytest.approx(total, rel=1e-13)


def test_query_validation():
    kw = dict(ra=1.0, rb=1.0, theta_a=0.5, theta_b=0.5, phi_a=0.0, phi_b=0.0,
              tau=1.0, n_cut=5, ntheta_cut=3, m_cut=2)
    with pytest.raises(ValueError, match="tau must be positive"):
        PropagatorQuery(**dict(kw, tau=0.0))
    with pytest.raises(ValueError, match="theta_a"):
        PropagatorQuery(**dict(kw, theta_a=2.0))
    with pytest.raises(ValueError, match="ra > 0"):
        PropagatorQuery(**dict(kw, ra=0.0))
    with pytest.raises(ValueError, match="m_cut"):
        PropagatorQuery(**dict(kw, m_cut=-1))


@pytest.mark.parametrize("p, m_cut", [(PotentialParams(alpha=-100.0), 2), (PotentialParams(beta=-3.0), 1)])
def test_integrated_diagonal_kernel_of_a_box_without_bound_sectors(p, m_cut):
    # every sector of the box is inadmissible: fall-to-center for the first,
    # beta + m^2 < 0 for the second
    q = PropagatorQuery(1.0, 1.2, 0.5, 0.7, 0.0, 0.3, 1.0, n_cut=5, ntheta_cut=2, m_cut=m_cut)
    assert full_kernel_spectral(p, q) == 0
    assert integrated_diagonal_kernel(p, 1.0, 5, 2, m_cut) == 0.0


def test_integrated_diagonal_kernel_equals_state_sum():
    # small index box where the two truncations coincide below the cutoff
    tau = 2.0
    z_kernel = integrated_diagonal_kernel(COUPLED, tau, 12, 6, 6)
    states = enumerate_states(COUPLED, e_max=40.0, m_max=6)
    kept = [s for s in states if s.qn.n <= 12 and s.qn.n_theta <= 6]
    z_states = math.fsum(math.exp(-s.energy * tau) for s in kept)
    # the box holds states the energy cutoff misses and vice versa; at
    # e_max=40 and tau=2 both leftovers weigh under 1e-9
    assert z_kernel == pytest.approx(z_states, abs=1e-9)
