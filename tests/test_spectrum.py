"""Closed-form energies, eigenfunctions, and state enumeration.

The frozen energies were generated offline with mpmath at 25 digits from
the index maps; everything else is checked against structural facts
(node counts, parity in m, measure-weighted inner products).
"""

import math
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncosc import cli, oracle, propagator
from ncosc.model import (
    AngularMode,
    PotentialParams,
    QuantumNumbers,
    angular_mode,
    effective_ell,
    ladder_energy,
    radial_log_norm,
)
from ncosc.propagator import PropagatorQuery, full_kernel_spectral
from ncosc.spectrum import (
    EigenState,
    angular_profiles,
    angular_wavefunction,
    eigenstate,
    energy,
    enumerate_states,
    full_wavefunction,
    radial_profiles,
    radial_wavefunction,
)

COUPLED = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)

# (n, n_theta, m, E) at couplings (1, 0.5, 2), hbar = mu = omega = 1, v0 = 0
ENERGY_REF = [
    (0, 0, 0, 4.284133661398807566),
    (1, 0, 0, 6.284133661398807566),
    (0, 1, 0, 6.254898765026680104),
    (0, 0, 1, 4.791269491470890578),
    (0, 0, 2, 5.67510446062953901),
    (2, 1, 1, 10.76824963420657631),
    (0, 0, -3, 6.626813930407015078),
]


def test_energy_reference_values():
    for n, n_theta, m, want in ENERGY_REF:
        got = energy(COUPLED, QuantumNumbers(n, n_theta, m))
        assert got == pytest.approx(want, rel=1e-15), (n, n_theta, m)


def test_energy_offset_and_scale():
    base = energy(COUPLED, QuantumNumbers(1, 1, 1))
    shifted = PotentialParams(v0=2.5, alpha=1.0, beta=0.5, gamma=2.0)
    assert energy(shifted, QuantumNumbers(1, 1, 1)) == base - 2.5
    scaled = PotentialParams(hbar=2.0, omega=3.0, alpha=1.0, beta=0.5, gamma=2.0)
    assert energy(scaled, QuantumNumbers(1, 1, 1)) == pytest.approx(6.0 * base, rel=1e-15)


# angular_wavefunction(angular_mode(p, n_theta, m), theta) at THETA_SETS[i]
# and theta = 0.05, 0.7, 1.5, as float.hex: frozen values that pin the norm
# and the Jacobi recurrence bit for bit up to degree 40
THETA_SETS = [COUPLED, PotentialParams(hbar=1.3, mu=0.7, alpha=-0.9, beta=2.0, gamma=1.0)]
THETA_HEX = {
    (0, 0, 0): ('0x1.b9baf0ac60f1cp-2', '0x1.8acf466fe3443p+0', '0x1.266e66c001783p-6'),
    (0, 0, 3): ('0x1.bb35f414199f1p-11', '0x1.4f5c131848a29p+0', '0x1.613aa3c50f3d2p-5'),
    (0, 7, 0): ('0x1.963c8c4b75aaep+1', '-0x1.17f10ab659ca2p+0', '-0x1.ead52c8e838a2p-2'),
    (0, 7, 3): ('0x1.89a065c835485p-4', '-0x1.48f64ad60c02ap-1', '-0x1.2bbab34620d6fp-1'),
    (0, 40, 0): ('-0x1.ac82d26d2843cp+1', '0x1.602e16935c5dcp+0', '-0x1.1e00ea07b98bep+0'),
    (0, 40, 3): ('0x1.68f8eb64e6651p+2', '-0x1.afe978f7a8c2ap-1', '-0x1.24a1ba63c0337p+0'),
    (1, 0, 0): ('0x1.fa6a235cf1714p-5', '0x1.7deb64356f681p+0', '0x1.e1a4c7400eac8p-5'),
    (1, 0, 3): ('0x1.725cc322b9392p-12', '0x1.1a80a7bd1b65ap+0', '0x1.993c1e6fd5b69p-4'),
    (1, 7, 0): ('0x1.5a60a8c9ccf6dp+0', '-0x1.66deb767e641cp+0', '-0x1.732341587105fp-1'),
    (1, 7, 3): ('0x1.ddd165d135249p-5', '-0x1.79754bb500bb1p-4', '-0x1.a05e4c5797469p-1'),
    (1, 40, 0): ('0x1.01da6b3c04311p+0', '0x1.562911c2e6cc2p-1', '-0x1.15177eae47f71p+0'),
    (1, 40, 3): ('0x1.5a8af9c8a6a89p+2', '-0x1.40e05ec38f8b5p+0', '-0x1.0738a11dad291p+0'),
}


def test_degenerate_ladder_is_exact():
    p = PotentialParams()
    for n in range(6):
        for n_theta in range(6):
            for m in range(-5, 6):
                assert energy(p, QuantumNumbers(n, n_theta, m)) == 2 * n + 2 * n_theta + abs(m) + 2.5


def test_angular_energy_by_hand():
    s = 2 * 3 + 1.5 + math.sqrt(0.5 + 4.0) + 1.0
    assert angular_mode(COUPLED, 3, 2).eps == pytest.approx(0.5 * s * s, rel=1e-15)


def test_radial_wavefunction_node_count():
    r = np.linspace(0.01, 8.0, 4000)
    ell = effective_ell(COUPLED, 0, 0)
    for n in range(4):
        vals = radial_wavefunction(COUPLED, n, ell, r)
        changes = int(np.sum(vals[:-1] * vals[1:] < 0))
        assert changes == n, f"expected {n} radial nodes, found {changes}"


def test_angular_wavefunction_node_count():
    th = np.linspace(1e-3, math.pi / 2 - 1e-3, 4000)
    for n_theta in range(4):
        mode = angular_mode(COUPLED, n_theta, 1)
        vals = angular_wavefunction(mode, th)
        changes = int(np.sum(vals[:-1] * vals[1:] < 0))
        assert changes == n_theta


def test_ground_state_positive_everywhere():
    r = np.linspace(0.01, 10.0, 500)
    th = np.linspace(1e-3, math.pi / 2 - 1e-3, 500)
    assert np.all(radial_wavefunction(COUPLED, 0, effective_ell(COUPLED, 0, 0), r) > 0)
    assert np.all(angular_wavefunction(angular_mode(COUPLED, 0, 0), th) > 0)


def test_radial_profiles_match_single_state_evaluation():
    ell = effective_ell(COUPLED, 1, 1)
    r = np.linspace(0.1, 6.0, 50)
    stack = radial_profiles(COUPLED, ell, 5, r)
    assert stack.shape == (6, 50)
    for n in range(6):
        want = radial_wavefunction(COUPLED, n, ell, r)
        assert np.allclose(stack[n], want, rtol=1e-13, atol=0)


def test_radial_profiles_over_ell_array_match_scalar_calls():
    ells = np.array([0.0, 1.0, 2.7912878474779, 6.25])
    r = np.linspace(0.05, 7.0, 40)
    stack = radial_profiles(COUPLED, ells, 30, r)
    assert stack.shape == (31, 4, 40)
    for i, ell in enumerate(ells):
        want = radial_profiles(COUPLED, float(ell), 30, r)
        assert np.max(np.abs(stack[:, i] - want)) <= 1e-15 * np.max(np.abs(want))


def test_angular_profiles_rows_equal_single_mode_evaluation():
    th = np.linspace(0.01, math.pi / 2 - 0.01, 33)
    modes = [angular_mode(COUPLED, nt, 2) for nt in (0, 3, 1, 5)]
    stack = angular_profiles(modes, th)
    assert stack.shape == (4, 33)
    for row, mode in zip(stack, modes):
        assert np.array_equal(row, angular_wavefunction(mode, th))
    with pytest.raises(ValueError, match="one \\(lam, k\\)"):
        angular_profiles([angular_mode(COUPLED, 0, 1), angular_mode(COUPLED, 0, 2)], th)
    with pytest.raises(ValueError, match="at least one mode"):
        angular_profiles([], th)


def test_factor_orthonormality():
    ell = effective_ell(COUPLED, 0, 1)
    for i, j, want in [(0, 0, 1.0), (0, 2, 0.0), (1, 3, 0.0), (3, 3, 1.0)]:
        val = oracle.inner_product_radial(
            lambda r, n=i: radial_wavefunction(COUPLED, n, ell, r),
            lambda r, n=j: radial_wavefunction(COUPLED, n, ell, r),
            14.0,
        ).value
        assert val == pytest.approx(want, abs=1e-11)
        ai, aj = angular_mode(COUPLED, i, 1), angular_mode(COUPLED, j, 1)
        aval = oracle.inner_product_angular(
            lambda t, a=ai: angular_wavefunction(a, t),
            lambda t, b=aj: angular_wavefunction(b, t),
        ).value
        assert aval == pytest.approx(want, abs=1e-11)


def test_angular_wavefunctions_are_pinned_bit_for_bit_to_degree_40():
    for (i, n_theta, m), want in THETA_HEX.items():
        for sm in (m, -m):
            mode = angular_mode(THETA_SETS[i], n_theta, sm)
            got = tuple(angular_wavefunction(mode, th).hex() for th in (0.05, 0.7, 1.5))
            assert got == want, (i, n_theta, sm)


def test_angular_orthonormality_at_degree_40():
    # Gauss panels, with narrow end panels for the (sin theta)^{2 lam + 1}
    # and (cos theta)^{2k + 1} ends of the integrand
    parts = [oracle.gauss_panels(0.0, 0.01, 1, 40), oracle.gauss_panels(0.01, math.pi / 2 - 0.01, 16, 40),
             oracle.gauss_panels(math.pi / 2 - 0.01, math.pi / 2, 1, 40)]
    th = np.concatenate([x for x, _ in parts])
    weight = np.concatenate([w for _, w in parts]) * np.sin(th)
    for p in THETA_SETS:
        for m in (0, 3):
            prof = angular_profiles([angular_mode(p, nt, m) for nt in (38, 39, 40)], th)
            gram = (prof * weight) @ prof.T
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-12, (p, m)


def test_angular_norms_are_formed_only_for_profiled_modes(monkeypatch):
    # a mode holds no norm and a norm takes four lgamma calls: the sector
    # scan forms none, so the enumeration calls lgamma never, and the full
    # kernel forms one norm per mode it profiles (the radial sums' own
    # lgamma calls are counted apart)
    assert AngularMode._fields == ("lam", "k", "n_theta", "eps")
    p = PotentialParams(alpha=-0.9, beta=2, gamma=1)
    calls = {"all": 0, "radial": 0}
    lgamma, sums = math.lgamma, propagator._spectral_sums

    def counted_lgamma(x):
        calls["all"] += 1
        return lgamma(x)

    def counted_sums(*args):
        before = calls["all"]
        out = sums(*args)
        calls["radial"] += calls["all"] - before
        return out

    monkeypatch.setattr(math, "lgamma", counted_lgamma)
    monkeypatch.setattr(propagator, "_spectral_sums", counted_sums)
    assert len(enumerate_states(p, 30, 200)) > 0
    assert calls["all"] == 0
    profiled = sum(len(modes) for _, modes, _ in propagator._sector_blocks(p, 8, 6))
    assert profiled == 63 and calls["all"] == 0
    q = PropagatorQuery(ra=1.1, rb=0.9, theta_a=0.6, theta_b=0.8, phi_a=0.1, phi_b=0.4, tau=0.5,
                        n_cut=25, ntheta_cut=8, m_cut=6)
    assert full_kernel_spectral(p, q).real > 0
    assert calls["radial"] > 0 and calls["all"] - calls["radial"] == 4 * profiled


def test_eigenstate_rejects_inadmissible_sector():
    with pytest.raises(ValueError, match="fall-to-center"):
        eigenstate(PotentialParams(alpha=-7.0), 0, 0, 0)


def test_full_wavefunction_phase_structure():
    r, th = 1.2, 0.7
    phis = np.linspace(0.0, 2 * math.pi, 9)
    qn = QuantumNumbers(1, 1, 2)
    vals = full_wavefunction(COUPLED, qn, r, th, phis)
    # 2 pi periodic, modulus independent of phi, m -> -m conjugates
    assert vals[0] == pytest.approx(vals[-1], rel=1e-14)
    assert np.max(np.abs(np.abs(vals) - np.abs(vals[0]))) <= 1e-15
    conj = full_wavefunction(COUPLED, QuantumNumbers(1, 1, -2), r, th, phis)
    assert np.allclose(conj, np.conj(vals), rtol=1e-14, atol=0)


def test_enumerate_states_matches_brute_force_at_zero_couplings():
    # E = 2n + 2 n_theta + |m| + 5/2 <= 9 counted by direct triple loop
    p = PotentialParams()
    want = sorted(
        (2 * n + 2 * nt + abs(m) + 2.5, n, nt, m)
        for n in range(4)
        for nt in range(4)
        for m in range(-7, 8)
        if 2 * n + 2 * nt + abs(m) + 2.5 <= 9.0
    )
    got = enumerate_states(p, e_max=9.0, m_max=7)
    assert len(got) == len(want)
    assert [(s.qn.n, s.qn.n_theta, s.qn.m) for s in got] == [(n, nt, m) for _, n, nt, m in want]


# zero couplings; coupled; ell_tilde = 0 in sector (0, 0); inadmissible
# low sectors with negative alpha, beta and gamma; beta + m^2 < 0 at m = 0
@pytest.mark.parametrize("alpha, beta, gamma", [
    (0.0, 0.0, 0.0), (1.0, 0.5, 2.0), (-2.0, 0.0, 0.0), (-2.0, -0.5, -0.2), (-4.0, 3.0, 0.0), (-3.0, -1.0, 0.5),
])
def test_enumerated_states_equal_eigenstate(alpha, beta, gamma):
    p = PotentialParams(v0=0.3, alpha=alpha, beta=beta, gamma=gamma)
    states = enumerate_states(p, e_max=12.0, m_max=6)
    assert states
    for s in states:
        assert s == eigenstate(p, s.qn.n, s.qn.n_theta, s.qn.m), s.qn
    if (alpha, beta, gamma) == (-2.0, 0.0, 0.0):
        assert states[0].ell_tilde == 0.0


def test_enumerated_records_are_the_public_types():
    # enumerate_states skips the constructor's checks, not its types
    states = enumerate_states(COUPLED, e_max=10.0, m_max=4)
    assert all(type(s) is EigenState and type(s.qn) is QuantumNumbers for s in states)
    s = states[-1]
    with pytest.raises(AttributeError):
        s.energy = 0.0
    back = pickle.loads(pickle.dumps(s))
    assert back == s and type(back) is EigenState and type(back.qn) is QuantumNumbers
    assert repr(back) == repr(s)


def test_enumerate_states_invariants():
    states = enumerate_states(COUPLED, e_max=10.0, m_max=6)
    energies = [s.energy for s in states]
    assert energies == sorted(energies)
    assert all(e <= 10.0 for e in energies)
    keys = [(s.qn.n, s.qn.n_theta, s.qn.m) for s in states]
    assert len(keys) == len(set(keys)), "duplicate states emitted"
    present = set(keys)
    for n, nt, m in keys:
        assert (n, nt, -m) in present, "m -> -m partner missing"


def test_enumerate_states_skips_inadmissible_sectors():
    # beta = -1: |m| = 0 has no bound angular sector, |m| >= 1 does
    p = PotentialParams(beta=-1.0)
    states = enumerate_states(p, e_max=8.0, m_max=4)
    assert states and all(abs(s.qn.m) >= 1 for s in states)


def test_enumerate_states_stops_at_the_first_m_above_emax():
    # energy_floor never decreases with |m|, so a huge m_max costs nothing
    # once the floor has passed e_max
    t0 = time.perf_counter()
    states = enumerate_states(PotentialParams(), 3.0, 10**9)
    assert time.perf_counter() - t0 < 1.0
    assert states == enumerate_states(PotentialParams(), 3.0, 2)


def _brute_force_states(p, e_max, m_max, n_top=12, n_theta_top=16):
    """Every admissible state with |m| <= m_max and energy <= e_max from a
    triple loop over eigenstate, sorted by (energy, n, n_theta, m)."""
    found = []
    for m in range(-m_max, m_max + 1):
        for n_theta in range(n_theta_top):
            for n in range(n_top):
                try:
                    s = eigenstate(p, n, n_theta, m)
                except ValueError:  # inadmissible sector
                    continue
                if s.energy <= e_max:
                    found.append(s)
    # the loop bounds are not what ends the list: energy rises with n and n_theta
    assert all(s.qn.n < n_top - 1 and s.qn.n_theta < n_theta_top - 1 for s in found)
    return sorted(found, key=lambda s: (s.energy, *s.qn))


@st.composite
def level_setups(draw):
    """(p, e_max, m_max) with random, equal or zero couplings, the last two
    with exact energy ties across n and n_theta, at unit or other scales."""
    kind = draw(st.sampled_from(["random", "equal", "zero"]))
    alpha = draw(st.floats(-2.0, 3.0))
    beta = alpha if kind == "equal" else draw(st.floats(-1.0, 3.0))
    gamma = draw(st.floats(-0.2, 3.0))
    if kind == "zero":
        alpha = beta = gamma = 0.0
    scales = draw(st.fixed_dictionaries({k: st.floats(0.7, 1.5) for k in ("hbar", "mu", "omega")})
                  | st.just({}))
    v0 = draw(st.floats(-3.0, 3.0) | st.just(0.0))
    p = PotentialParams(v0=v0, alpha=alpha, beta=beta, gamma=gamma, **scales)
    e_max = -v0 + p.hbar * p.omega * draw(st.floats(0.0, 9.0))
    return p, e_max, draw(st.integers(0, 5))


@given(setup=level_setups())
@settings(max_examples=60, deadline=None)
def test_enumerate_states_equals_the_sorted_brute_force(setup):
    p, e_max, m_max = setup
    assert enumerate_states(p, e_max, m_max) == _brute_force_states(p, e_max, m_max)


def test_enumerate_states_orders_levels_that_tie_across_m():
    # at alpha = beta = 1e32, lambda rounds to 1e16 for every small |m|, so
    # levels at different |m| tie on (energy, n, n_theta): each such group
    # lists every -|m| state before every +|m| one
    p = PotentialParams(alpha=1e32, beta=1e32)
    e_max = ladder_energy(p, 0, effective_ell(p, 0, 0)) + 12
    states = enumerate_states(p, e_max, 3)
    assert len(states) == 175
    assert [tuple(s.qn) for s in states[:7]] == [(0, 0, m) for m in range(-3, 4)]
    assert states == _brute_force_states(p, e_max, 3)

def test_enumerate_states_argument_validation():
    with pytest.raises(ValueError, match="e_max must be finite"):
        enumerate_states(COUPLED, e_max=math.inf, m_max=2)
    with pytest.raises(ValueError, match="m_max must be >= 0"):
        enumerate_states(COUPLED, e_max=5.0, m_max=-1)


@given(n=st.integers(0, 8), n_theta=st.integers(0, 6), m=st.integers(-6, 6))
@settings(max_examples=200, deadline=None)
def test_energy_symmetry_and_monotonicity(n, n_theta, m):
    e = energy(COUPLED, QuantumNumbers(n, n_theta, m))
    assert e == energy(COUPLED, QuantumNumbers(n, n_theta, -m))
    assert energy(COUPLED, QuantumNumbers(n + 1, n_theta, m)) == pytest.approx(e + 2.0, rel=1e-14)
    assert energy(COUPLED, QuantumNumbers(n, n_theta + 1, m)) > e


def test_radial_wavefunction_raises_where_its_laguerre_overflows():
    # at n = 300, r = 40 (x = 1600) L_n overflows while the envelope
    # underflows; their product used to be 0 * inf = nan
    p = PotentialParams()
    ell = effective_ell(p, 0, 0)
    for r in (40.0, np.array([1.0, 40.0])):
        with pytest.raises(OverflowError, match="Laguerre polynomial .*, n = 300, is beyond the float range"):
            radial_wavefunction(p, 300, ell, r)
    assert math.isfinite(radial_wavefunction(p, 300, ell, 20.0))


@pytest.mark.filterwarnings("error")
def test_radial_profiles_raise_where_their_laguerre_overflows():
    # x = 1600: L_n overflows before n = 600; the stack used to hold nan rows
    with pytest.raises(OverflowError, match="Laguerre polynomial .*, n = 600, is beyond the float range"):
        radial_profiles(PotentialParams(), 1.0, 600, [40.0])


@pytest.mark.filterwarnings("error")
def test_angular_profiles_raise_where_their_jacobi_overflows():
    # lam = 3000, n_theta = 300: near theta = 0 P_n(cos 2 theta) overflows while
    # (sin theta)^lam underflows, and their product used to be nan
    mode = angular_mode(PotentialParams(), 300, 3000)
    with pytest.raises(OverflowError, match="Jacobi polynomial .*, n = 300, is beyond the float range"):
        angular_wavefunction(mode, [0.05, 0.3, 1.2, 1.5])
    assert np.all(np.isfinite(angular_wavefunction(mode, [1.2, 1.5])))


@pytest.mark.filterwarnings("error")
def test_radial_functions_where_r_squared_underflows():
    # at r = 1e-200, x = mu omega r^2/hbar is 0 but ln r is not: R is N_n L_n(0)
    # at ell_tilde = 0, N_0 x^{1/4} = 1e-100 N_0 at ell_tilde = 1/2 and 0 at ell_tilde = 3
    p, r = PotentialParams(), 1e-200
    norms = np.exp(radial_log_norm(p, 4, 0.0))
    lag_at_0 = np.array([math.gamma(n + 1.5) / (math.factorial(n) * math.gamma(1.5)) for n in range(5)])
    for n in range(5):
        assert radial_wavefunction(p, n, 0.0, r) == pytest.approx(norms[n] * lag_at_0[n], rel=1e-14)
    assert radial_wavefunction(p, 0, 0.5, r) == pytest.approx(1e-100 * math.exp(radial_log_norm(p, 0, 0.5)[0]),
                                                              rel=1e-13)
    assert radial_wavefunction(p, 2, 3.0, r) == 0.0
    stack = radial_profiles(p, np.array([0.0, 0.5, 3.0]), 4, [r])
    assert np.all(np.isfinite(stack)) and np.all(stack[:, :2] > 0) and np.all(stack[:, 2] == 0)
    assert np.allclose(stack[:, 0, 0], norms * lag_at_0, rtol=1e-14, atol=0)


@pytest.mark.filterwarnings("error")
def test_radial_functions_where_r_squared_overflows(capsys):
    # at r = 1e200, x = mu omega r^2/hbar is inf: R_0 is 0, and a Laguerre
    # polynomial past degree 0 is infinite, which raises OverflowError
    p = PotentialParams()
    for ell in (0.0, 3.5):
        assert radial_wavefunction(p, 0, ell, 1e200) == 0.0
        assert np.all(radial_profiles(p, ell, 0, [1e160, 1e200]) == 0.0)
    with pytest.raises(OverflowError, match="n = 1, is beyond the float range"):
        radial_wavefunction(p, 1, 0.0, 1e200)
    with pytest.raises(OverflowError, match="n = 3, is beyond the float range"):
        radial_profiles(p, 0.0, 3, [1e160])
    with pytest.raises(OverflowError, match="n = 60, is beyond the float range"):
        propagator.radial_kernel_spectral(p, 0, 0, 1e308, 1e308, 1.0, 60)
    # the command says so in its error line alone, with no numpy warning before it
    assert cli.main(["propagator", "--ra", "1e308", "--rb", "1e308"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: a Laguerre polynomial L_n(mu omega r^2/hbar), n = 60, is beyond the float range\n")


def test_wavefunction_domain_validation():
    ell = effective_ell(COUPLED, 0, 0)
    for r in (np.array([0.5, -1.0]), np.array([1.0, math.nan, math.inf]), math.nan, math.inf, 0.0,
              [-1.0], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="requires finite r > 0"):
            radial_wavefunction(COUPLED, 0, ell, r)
        with pytest.raises(ValueError, match="radial_factors requires finite r > 0"):
            radial_profiles(COUPLED, ell, 2, r)
    # model._sector holds no state at ell_tilde < 0; NaN and inf are refused by the same name
    for ell_bad in (-0.7, -1.2, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite ell_tilde >= 0"):
            radial_wavefunction(PotentialParams(), 0, ell_bad, 1.0)
        with pytest.raises(ValueError, match="finite ell_tilde >= 0"):
            radial_profiles(PotentialParams(), ell_bad, 2, [1.0])
    with pytest.raises(ValueError, match="finite ell_tilde >= 0"):
        radial_profiles(PotentialParams(), np.array([0.5, -1.2, 2.0]), 2, [1.0])
    with pytest.raises(ValueError, match="finite ell_tilde >= 0"):
        radial_log_norm(PotentialParams(), 3, np.array([[1.0, math.nan]]))
    qn = QuantumNumbers(1, 1, 2)
    for phi in (math.nan, math.inf, -math.inf, np.array([0.3, math.nan])):
        with pytest.raises(ValueError, match="requires finite phi"):
            full_wavefunction(COUPLED, qn, 1.0, 0.7, phi)
    with pytest.raises(ValueError, match="requires finite r > 0"):
        full_wavefunction(COUPLED, qn, math.inf, 0.7, 0.3)
    amode = angular_mode(COUPLED, 0, 0)
    with pytest.raises(ValueError, match="0 < theta < pi/2"):
        angular_wavefunction(amode, math.pi / 2)
