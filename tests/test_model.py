"""Potential definition, parameter validation, and the index maps."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncosc.model import (
    PotentialParams,
    QuantumNumbers,
    admissible_ell,
    admissible_sectors,
    angular_mode,
    effective_ell,
    energy_floor,
    potential_cartesian,
    potential_spherical,
    radial_extent,
    radial_log_norm,
)
from ncosc import model
from ncosc.propagator import PropagatorQuery, full_kernel_spectral, integrated_diagonal_kernel, radial_kernel_closed
from ncosc.spectrum import eigenstate, energy, enumerate_states

COUPLED = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)


def test_params_defaults_are_free_oscillator():
    p = PotentialParams()
    assert (p.hbar, p.mu, p.omega, p.v0) == (1.0, 1.0, 1.0, 0.0)
    assert (p.alpha, p.beta, p.gamma) == (0.0, 0.0, 0.0)


def test_params_validation_messages():
    with pytest.raises(ValueError, match="hbar must be positive"):
        PotentialParams(hbar=0.0)
    with pytest.raises(ValueError, match="mu must be positive"):
        PotentialParams(mu=-1.0)
    with pytest.raises(ValueError, match="omega must be positive"):
        PotentialParams(omega=0.0)
    with pytest.raises(ValueError, match="gamma must exceed -1/4"):
        PotentialParams(gamma=-0.3)
    # the boundary itself is excluded
    with pytest.raises(ValueError, match="gamma must exceed -1/4"):
        PotentialParams(gamma=-0.25)
    PotentialParams(gamma=-0.2499)  # just inside is fine


def test_quantum_number_validation():
    with pytest.raises(ValueError, match="n must be >= 0"):
        QuantumNumbers(-1, 0, 0)
    with pytest.raises(ValueError, match="n_theta must be >= 0"):
        QuantumNumbers(0, -2, 0)
    assert QuantumNumbers(0, 0, -3).m == -3  # m may be negative
    # every quantum number is an integer; numpy integers count
    for qn in ((0.5, 0, 0), (0, 1.0, 0), (0, 0, 0.5), (0, 0, math.nan), (0, 0, np.float64(1.0)), ("1", 0, 0)):
        with pytest.raises(ValueError, match="quantum numbers must be integers"):
            QuantumNumbers(*qn)
    assert QuantumNumbers(np.int64(2), np.uint8(1), np.int32(-1)) == QuantumNumbers(2, 1, -1)
    with pytest.raises(ValueError, match="quantum numbers must be integers"):
        eigenstate(COUPLED, 0, 0, 0.5)


def test_quantum_numbers_are_a_checked_immutable_record():
    qn = QuantumNumbers(1, 0, 1)
    assert repr(qn) == "QuantumNumbers(n=1, n_theta=0, m=1)"  # as the README example prints
    assert QuantumNumbers(n=1, n_theta=0, m=1) == qn and hash(qn) == hash((1, 0, 1))
    with pytest.raises(AttributeError):
        qn.n = 2
    # the copying constructors check as the public one does
    with pytest.raises(ValueError, match="n must be >= 0"):
        qn._replace(n=-1)
    with pytest.raises(ValueError, match="quantum numbers must be integers"):
        QuantumNumbers._make((0, 0.5, 0))
    assert qn._replace(m=-1) == QuantumNumbers(1, 0, -1)
    mode = angular_mode(COUPLED, 1, 2)
    with pytest.raises(AttributeError):
        mode.norm = 1.0


def test_potential_value_by_hand():
    # V = -v0 + mu w^2 r^2/2 + (hbar^2/2 mu r^2)(alpha + beta cot^2 + gamma/cos^2)
    p = PotentialParams(v0=0.7, alpha=1.0, beta=0.5, gamma=2.0, omega=1.3, mu=0.8, hbar=1.1)
    r, th = 1.3, 0.7
    c = p.hbar**2 / (2 * p.mu * r**2)
    want = (
        -0.7
        + 0.5 * p.mu * p.omega**2 * r**2
        + c * (1.0 + 0.5 * math.cos(th) ** 2 / math.sin(th) ** 2 + 2.0 / math.cos(th) ** 2)
    )
    assert potential_spherical(p, r, th) == pytest.approx(want, rel=1e-15)


def test_potential_domain():
    with pytest.raises(ValueError, match="r > 0"):
        potential_spherical(COUPLED, 0.0, 0.5)
    with pytest.raises(ValueError, match="theta"):
        potential_spherical(COUPLED, 1.0, math.pi / 2)
    with pytest.raises(ValueError, match="theta"):
        potential_spherical(COUPLED, 1.0, 0.0)
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite r > 0"):
            potential_spherical(COUPLED, r, 0.5)
    with pytest.raises(ValueError, match="theta"):
        potential_spherical(COUPLED, 1.0, math.nan)
    with pytest.raises(ValueError, match="finite x, y and z"):
        potential_cartesian(COUPLED, math.nan, 1.0, 1.0)


def test_potential_where_r_squared_underflows():
    # r * r is 0 below r of about 1.5e-162: with no coupling the centrifugal
    # term is 0, not 0 * inf, and with couplings it is the barrier's +inf
    assert potential_spherical(PotentialParams(), 1e-170, 0.5) == 0.0
    with np.errstate(over="ignore"):
        assert potential_spherical(COUPLED, 1e-170, 0.5) == math.inf


@given(r=st.floats(0.05, 8.0), theta=st.floats(0.05, math.pi / 2 - 0.05))
@settings(max_examples=300, deadline=None)
def test_cartesian_and_spherical_forms_agree(r, theta):
    p = PotentialParams(v0=0.3, alpha=1.7, beta=0.4, gamma=1.1, omega=0.9, mu=1.2, hbar=0.8)
    phi = 0.83
    x = r * math.sin(theta) * math.cos(phi)
    y = r * math.sin(theta) * math.sin(phi)
    z = r * math.cos(theta)
    vs = potential_spherical(p, r, theta)
    vc = potential_cartesian(p, x, y, z)
    assert vc == pytest.approx(vs, rel=1e-12, abs=1e-12)


def test_cartesian_singular_axis_guards():
    with pytest.raises(ValueError, match="x\\^2\\+y\\^2 > 0"):
        potential_cartesian(COUPLED, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="z != 0"):
        potential_cartesian(COUPLED, 1.0, 0.0, 0.0)
    # with the angular couplings off, on-axis points are regular
    free = PotentialParams(alpha=1.0)
    assert potential_cartesian(free, 0.0, 0.0, 2.0) == pytest.approx(2.0 + 1.0 / 8.0)


def test_index_maps_by_hand():
    # lambda = sqrt(beta + m^2), k = sqrt(gamma + 1/4)
    assert angular_mode(COUPLED, 0, 0).lam == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert angular_mode(COUPLED, 0, 2).lam == pytest.approx(math.sqrt(4.5), rel=1e-15)
    assert angular_mode(COUPLED, 0, -2).lam == angular_mode(COUPLED, 0, 2).lam
    assert angular_mode(COUPLED, 0, 0).k == pytest.approx(1.5, rel=1e-15)
    base = 1.5 + math.sqrt(0.5) + 1.0
    want = math.sqrt(base * base + 0.5) - 0.5
    assert effective_ell(COUPLED, 0, 0) == pytest.approx(want, rel=1e-15)


def test_index_maps_collapse_at_zero_couplings():
    # ell_tilde must come out integer: 2 n_theta + |m| + 1
    p = PotentialParams()
    for n_theta in range(4):
        for m in range(-3, 4):
            assert effective_ell(p, n_theta, m) == 2 * n_theta + abs(m) + 1


def test_inadmissible_sectors_raise():
    for sector_reader in (effective_ell, angular_mode):
        with pytest.raises(ValueError, match="beta \\+ m\\^2"):
            sector_reader(PotentialParams(beta=-2.0), 0, 1)
    with pytest.raises(ValueError, match="fall-to-center"):
        effective_ell(PotentialParams(alpha=-7.0), 0, 0)
    # alpha - beta in (-(k+lam+1)^2, 0.25 - (k+lam+1)^2] lands ell_tilde < 0
    with pytest.raises(ValueError, match="not normalizable"):
        effective_ell(PotentialParams(alpha=-2.1), 0, 0)
    # non-integer sector indices name no sector
    with pytest.raises(ValueError, match="sector indices must be integers"):
        angular_mode(PotentialParams(), 0, 0.5)
    with pytest.raises(ValueError, match="sector indices must be integers"):
        effective_ell(PotentialParams(), 1.5, 0.5)
    with pytest.raises(ValueError, match="sector indices must be integers"):
        radial_kernel_closed(PotentialParams(), 0, 0.5, 1.0, 1.2, 0.7)


def test_angular_mode_eigenvalue():
    # eps = (hbar^2/2 mu)(2 n_theta + k + lam + 1)^2
    mode = angular_mode(COUPLED, 2, 1)
    s = 2 * 2 + 1.5 + math.sqrt(1.5) + 1
    assert mode.eps == pytest.approx(0.5 * s * s, rel=1e-15)
    assert mode.lam == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert mode.k == 1.5
    mode_scaled = angular_mode(PotentialParams(hbar=2.0, mu=0.5, alpha=1.0, beta=0.5, gamma=2.0), 2, 1)
    assert mode_scaled.eps == pytest.approx(4.0 * s * s, rel=1e-15)


def test_radial_mode_energy_scaling():
    ell = effective_ell(COUPLED, 1, 1)
    for hbar, omega, v0 in [(1.0, 1.0, 0.0), (2.0, 0.7, 1.5)]:
        p = PotentialParams(hbar=hbar, mu=1.0, omega=omega, v0=v0, alpha=1.0, beta=0.5, gamma=2.0)
        state = eigenstate(p, 2, 1, 1)
        assert state.energy == pytest.approx((4 + ell + 1.5) * hbar * omega - v0, rel=1e-14)
        assert state.ell_tilde == pytest.approx(ell, rel=1e-14)


@given(m=st.integers(-6, 6), n_theta=st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_ell_is_even_in_m_and_monotone_in_ntheta(m, n_theta):
    ell = effective_ell(COUPLED, n_theta, m)
    assert ell == effective_ell(COUPLED, n_theta, -m)
    assert effective_ell(COUPLED, n_theta + 1, m) > ell


# beta = -m^2 exactly at |m| = 2 (lambda = 0, still bound) and |m| = 1, and
# alpha - beta << 0, where admissible_sectors skips ahead past hundreds of sectors
SECTOR_COUPLINGS = st.one_of(
    st.tuples(st.floats(-40.0, 40.0), st.sampled_from([-4.0, -1.0, -0.5, 0.0, 2.5]), st.floats(-0.24, 3.0)),
    st.tuples(st.floats(-1e6, -1e3), st.floats(-9.0, 9.0), st.floats(-0.24, 3.0)),
)


@given(couplings=SECTOR_COUPLINGS, m=st.integers(-4, 4), n_max=st.integers(0, 40))
@example(couplings=(0.0, -4.0, 0.0), m=2, n_max=3)
@example(couplings=(-2.0, -4.0, 0.0), m=-2, n_max=3)
@example(couplings=(-1e6, -4.0, 0.5), m=2, n_max=3)
@settings(max_examples=300, deadline=None)
def test_sector_readers_agree(couplings, m, n_max):
    alpha, beta, gamma = couplings
    p = PotentialParams(alpha=alpha, beta=beta, gamma=gamma)
    bound = beta + m * m >= 0
    assert (energy_floor(p, m) == -math.inf) == (not bound)
    for n_theta in (0, n_max):
        if bound:
            assert angular_mode(p, n_theta, m).lam == math.sqrt(beta + m * m)
        else:
            with pytest.raises(ValueError, match="bound angular sector"):
                angular_mode(p, n_theta, m)
    if not bound:
        assert list(admissible_sectors(p, m)) == []
    # the radicand is about (2 n_theta)^2 + alpha - beta, so this passes the
    # first admissible sector by n_max
    stop = n_max + 1 + math.isqrt(int(max(0.0, beta - alpha)))
    want = []
    for n_theta in range(stop):
        ell = admissible_ell(p, n_theta, m)
        if ell is None:
            with pytest.raises(ValueError):
                effective_ell(p, n_theta, m)
        else:
            assert effective_ell(p, n_theta, m) == ell
            want.append((n_theta, ell, angular_mode(p, n_theta, m)))
    if bound:
        got = list(itertools.islice(admissible_sectors(p, m), len(want) + 1))
        assert got[:-1] == want and got[-1][0] >= stop


@pytest.mark.filterwarnings("error")
def test_numpy_integer_indices_do_not_wrap():
    # m^2, 2 n_theta, 2 n and 4 n are formed in floats: in int64 they wrap
    # at these points, with a RuntimeWarning at most
    p = PotentialParams()

    def points(big, huge):
        return (angular_mode(p, 0, big), effective_ell(p, 0, big), energy(p, QuantumNumbers(huge, 0, 0)),
                angular_mode(p, huge, 0), radial_extent(p, huge, 0.0))

    want = points(2**32, 2**62)
    assert points(np.int64(2**32), np.int64(2**62)) == want
    assert want[0].lam == 2.0**32 and want[2] == 2.0**63 + 1.5


def test_scans_evaluate_each_sector_once(monkeypatch):
    # the scans take each sector's ell_tilde and angular mode from one
    # _sector call; the enumeration reads (0, m) once more, through energy_floor
    calls = {}

    def counted(p, n_theta, m, _sector=model._sector):
        calls[n_theta, m] = calls.get((n_theta, m), 0) + 1
        return _sector(p, n_theta, m)

    def most(run):
        """The most evaluations of one (0, m) sector and of one other sector."""
        calls.clear()
        run()
        return (max(n for (nt, _), n in calls.items() if nt == 0),
                max(n for (nt, _), n in calls.items() if nt >= 1))

    monkeypatch.setattr(model, "_sector", counted)
    p = PotentialParams(alpha=-0.9, beta=2.0, gamma=1.0)
    query = PropagatorQuery(1.0, 1.2, 0.6, 0.8, 0.0, 0.5, 0.7, n_cut=25, ntheta_cut=8, m_cut=6)
    zero, rest = most(lambda: enumerate_states(p, 30.0, 200))
    assert zero <= 2 and rest == 1
    zero, rest = most(lambda: full_kernel_spectral(p, query))
    assert zero <= 1 and rest == 1
    zero, rest = most(lambda: integrated_diagonal_kernel(p, 0.7, 4, 3, 2))
    assert zero <= 1 and rest == 1


def _mp_log_norm(p, n, ell):
    c = mpmath.mpf(p.mu) * p.omega / p.hbar
    return 0.5 * (mpmath.log(2) + 1.5 * mpmath.log(c) + mpmath.loggamma(n + 1) - mpmath.loggamma(n + ell + 1.5))


# measured worst |ln N - ln N_mpmath|, the relative error of N: 1.41e-12 at
# (n, ell_tilde) = (352, 300.5), and 6.4e-14 over n <= 80, ell_tilde <= 63.2
# (about the same as scipy's gammaln there); the tolerances leave about 3.5x
@pytest.mark.parametrize("n_max, ells, tol", [
    (600, [0.0, 1.0, 20.5, 300.5], 5e-12),
    (80, list(np.linspace(0.0, 63.2, 17)), 2e-13),
], ids=["n600", "n80"])
def test_radial_log_norm_matches_mpmath(n_max, ells, tol):
    p = PotentialParams(hbar=1.1, mu=2.3, omega=0.7)
    got = radial_log_norm(p, n_max, np.array(ells))
    assert got.shape == (n_max + 1, len(ells))
    with mpmath.workdps(40):
        worst = max(abs(float(got[n, j] - _mp_log_norm(p, n, mpmath.mpf(ell))))
                    for j, ell in enumerate(ells) for n in range(n_max + 1))
    assert worst <= tol
    # one path: each column is the call with that ell_tilde alone, bit for bit
    for j, ell in enumerate(ells):
        assert np.array_equal(radial_log_norm(p, n_max, ell), got[:, j])
