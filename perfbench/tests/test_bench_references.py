"""Tests of the benchmark's own references and statistics.

Run from the repository root with

    python3 -m pytest perfbench/tests -q

They are not part of the package's test suite (pytest's testpaths is
tests/), so the Tier-1 gate does not slow down.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402
from reference import Phys  # noqa: E402
from spans import span_totals  # noqa: E402

mp.mp.dps = 40


def _mp_kernel(ph: Phys, ell: float, ra: float, rb: float, tau: float) -> mp.mpf:
    c = mp.mpf(ph.mu) * ph.omega / ph.hbar
    sh = mp.sinh(mp.mpf(ph.omega) * tau)
    coth = mp.cosh(mp.mpf(ph.omega) * tau) / sh
    return (mp.exp(mp.mpf(ph.v0) * tau / ph.hbar) * (c / sh) * mp.besseli(mp.mpf(ell) + 0.5, c * ra * rb / sh)
            * mp.exp(-c / 2 * (mp.mpf(ra) ** 2 + mp.mpf(rb) ** 2) * coth) / mp.sqrt(mp.mpf(ra) * rb))


KERNEL_CASES = [
    # the short-time points the benchmark keeps as failed operations
    (Phys(), 0, 0, 3.0, 3.0, 2e-3),
    (Phys(), 0, 0, 3.0, 3.0, 1e-2),
    (Phys(), 0, 0, 1.0, 1.0, 1e-4),
    (Phys(), 0, 0, 2.2, 2.4, 2e-3),
    # the kernel-grid ranges: r in [0.2, 3], tau in {0.1 .. 2}, sectors up to (3, 3)
    (Phys(alpha=2.5, beta=1.7, gamma=2.9), 3, -3, 0.2, 3.0, 0.1),
    (Phys(alpha=0.3, beta=0.1, gamma=0.0), 0, 1, 0.2, 0.2, 2.0),
    (Phys(alpha=1.0, beta=0.5, gamma=2.0), 1, 2, 2.9, 3.0, 0.25),
    (Phys(v0=0.7, omega=1.3, mu=0.8, hbar=1.1, alpha=1.0), 2, 0, 0.9, 1.7, 1.0),
]


@pytest.mark.parametrize("ph,n_theta,m,ra,rb,tau", KERNEL_CASES)
def test_log_space_closed_kernel_matches_mpmath(ph, n_theta, m, ra, rb, tau):
    ell = ref.ell_tilde(ph, n_theta, m)
    got = math.exp(float(ref.log_radial_kernel(ph, ell, ra, rb, tau)))
    want = _mp_kernel(ph, ell, ra, rb, tau)
    assert abs(got / float(want) - 1) < 1e-12


def test_brute_force_enumeration_reproduces_zero_coupling_ladder():
    e_max = 22.5
    states = ref.states_below(Phys(), e_max)
    levels: dict[int, int] = {}
    for (n, n_theta, m), e in states.items():
        big_n = 2 * n + 2 * n_theta + abs(m)
        assert abs(e - (big_n + 2.5)) < 1e-12
        levels[big_n] = levels.get(big_n, 0) + 1
    # N = 2n + 2 n_theta + |m|: for each signed m with N - |m| even there are
    # (N - |m|)/2 + 1 ways to split the rest between n and n_theta
    for big_n in range(21):
        want = sum((big_n - abs(m)) // 2 + 1 for m in range(-big_n, big_n + 1) if (big_n - abs(m)) % 2 == 0)
        assert levels.get(big_n, 0) == want
    assert set(levels) == set(range(21))


def test_brute_force_enumeration_skips_inadmissible_sectors():
    ph = Phys(alpha=-3.0, beta=-0.5, gamma=-0.2)
    states = ref.states_below(ph, 20.0)
    assert states and all(m != 0 for _, _, m in states)  # beta + m^2 < 0 at m = 0
    for (n, n_theta, m), e in states.items():
        lam = math.sqrt(ph.beta + m * m)
        base = math.sqrt(ph.gamma + 0.25) + lam + 2 * n_theta + 1
        assert base * base + ph.alpha - ph.beta >= 0.25
        assert e <= 20.0


def _mp_factors(ph: Phys, n: int, n_theta: int, m: int):
    """The paper's radial and angular factors, in 40-digit arithmetic."""
    lam = mp.sqrt(mp.mpf(ph.beta) + m * m)
    k = mp.sqrt(mp.mpf(ph.gamma) + mp.mpf(1) / 4)
    ell = mp.sqrt((k + lam + 2 * n_theta + 1) ** 2 + mp.mpf(ph.alpha) - ph.beta) - mp.mpf(1) / 2
    c = mp.mpf(ph.mu) * ph.omega / ph.hbar
    nr = mp.sqrt(2 * c ** 1.5 * mp.factorial(n) / mp.gamma(n + ell + 1.5))
    s = 2 * n_theta + k + lam + 1
    nt = mp.sqrt(2 * s * mp.factorial(n_theta) * mp.gamma(n_theta + k + lam + 1)
                 / (mp.gamma(n_theta + k + 1) * mp.gamma(n_theta + lam + 1)))

    def radial(r):
        x = c * mp.mpf(r) ** 2
        return nr * mp.exp(-x / 2) * x ** (ell / 2) * mp.laguerre(n, ell + 0.5, x)

    def angular(th):
        th = mp.mpf(th)
        return nt * mp.sin(th) ** lam * mp.cos(th) ** (k + 0.5) * mp.jacobi(n_theta, lam, k, mp.cos(2 * th))

    return radial, angular


WAVE_CASES = [
    (Phys(alpha=1.0, beta=0.5, gamma=2.0), 2, 1, 1),
    (Phys(alpha=-3.2, beta=-0.7, gamma=-0.15), 5, 3, -4),
    (Phys(alpha=2.9, beta=1.9, gamma=2.8), 0, 0, 2),
]


@pytest.mark.parametrize("ph,n,n_theta,m", WAVE_CASES)
def test_wavefunction_matches_mpmath(ph, n, n_theta, m):
    rng = np.random.default_rng(7)
    r = rng.uniform(0.05, 4.5, 6)
    th = rng.uniform(0.02, math.pi / 2 - 0.02, 6)
    phi = rng.uniform(0, 2 * math.pi, 6)
    got = ref.wavefunction(ph, n, n_theta, m, r, th, phi)
    radial, angular = _mp_factors(ph, n, n_theta, m)
    want = np.array([complex(radial(a) * angular(b) * mp.expj(m * mp.mpf(c)) / mp.sqrt(2 * mp.pi))
                     for a, b, c in zip(r, th, phi)])
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("ph,n,n_theta,m", WAVE_CASES)
def test_wavefunction_factors_are_normalized(ph, n, n_theta, m):
    # the paper's norm constants against 40-digit quadrature of the factors
    radial, angular = _mp_factors(ph, n, n_theta, m)
    assert abs(mp.quad(lambda r: radial(r) ** 2 * r * r, [0, 1, 3, mp.inf]) - 1) < 1e-20
    assert abs(mp.quad(lambda t: angular(t) ** 2 * mp.sin(t), [0, mp.pi / 4, mp.pi / 2]) - 1) < 1e-20


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert ref.tail_percentile(range(39)) is None          # below forty: median alone
    assert ref.tail_percentile(range(40)) == (75.0, 29)    # ten samples above index 29
    assert ref.tail_percentile(range(100)) == (90.0, 89)
    assert ref.tail_percentile(range(999)) == (95.0, 949)  # p99 would leave nine beyond
    assert ref.tail_percentile(range(1000)) == (99.0, 989)
    assert ref.tail_percentile(range(10000)) == (99.9, 9989)


def test_median_of_an_even_count_averages_the_middle_pair():
    assert ref.median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_self_time_is_span_minus_children():
    # a(0..10) holds b(1..4) and c(5..9); c holds d(6..7); e(12..13) is top level
    names = ["a", "b", "c", "d", "e"]
    fn = np.array([0, 1, 2, 3, 4])
    start = np.array([0.0, 1.0, 5.0, 6.0, 12.0])
    end = np.array([10.0, 4.0, 9.0, 7.0, 13.0])
    parent = np.array([-1, 0, 0, 2, -1])
    totals = span_totals(names, fn, start, end, parent)
    assert totals["a"] == (1, 10.0, 3.0)
    assert totals["c"] == (1, 4.0, 3.0)
    assert totals["d"] == (1, 1.0, 1.0)
    assert sum(own for _, _, own in totals.values()) == 11.0  # the top-level spans' total
