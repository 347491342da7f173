"""Finite-difference eigensolvers, the radial sinc DVR and quadrature: the independent routes.

These tests exercise the oracle on problems with known closed forms and,
just as deliberately, on problems where it must refuse to answer: coarse
grids, undersized boxes, attractive walls, stalled quadrature.
"""

import math
import warnings

import numpy as np
import pytest

from ncosc.model import PotentialParams, QuantumNumbers, ladder_energy
from ncosc.oracle import (
    GridSpec,
    _radial_dvr,
    angular_eigenvalues_fd,
    default_angular_grid,
    default_radial_grid,
    gauss_panels,
    inner_product_angular,
    inner_product_radial,
    radial_eigenvalues_fd,
)
from ncosc.spectrum import energy

COUPLED = PotentialParams(alpha=1.0, beta=0.5, gamma=2.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="hi > 0"):
        GridSpec(0.0, 100)
    with pytest.raises(ValueError, match="finite hi > 0"):
        GridSpec(math.inf, 100)
    with pytest.raises(ValueError, match="n_points must be >= 64"):
        GridSpec(1.0, 10)


def test_refined_grid_nests_coarse_nodes():
    g = GridSpec(3.0, 100)
    f = g.refined()
    assert f.n_points == 201
    assert f.h == pytest.approx(g.h / 2, rel=1e-15)
    # coarse node j sits at refined node 2j
    assert np.allclose(f.nodes()[1::2], g.nodes(), rtol=0, atol=1e-14)


def test_radial_eigenvalues_match_closed_form():
    grid = default_radial_grid(COUPLED, 3000)
    for n_theta, m in [(0, 0), (1, 1)]:
        eigs = radial_eigenvalues_fd(COUPLED, n_theta, m, grid, 3)
        for n in range(3):
            want = energy(COUPLED, QuantumNumbers(n, n_theta, m))
            assert eigs[n] == pytest.approx(want, rel=1e-6), (n, n_theta, m)


def test_radial_eigenvalues_with_scaled_constants():
    p = PotentialParams(hbar=0.7, mu=1.9, omega=1.4, v0=0.6, alpha=1.0, beta=0.5, gamma=2.0)
    grid = default_radial_grid(p, 3000)
    eigs = radial_eigenvalues_fd(p, 0, 0, grid, 2)
    for n in range(2):
        want = energy(p, QuantumNumbers(n, 0, 0))
        assert eigs[n] == pytest.approx(want, rel=1e-6)


def test_angular_eigenvalues_match_closed_form():
    grid = default_angular_grid(2000)
    for lam, k in [(1.0, 0.5), (2.0, 1.5)]:
        eigs = angular_eigenvalues_fd(lam, k, grid, 4)
        for nt in range(4):
            want = 0.5 * (2 * nt + k + lam + 1) ** 2
            assert eigs[nt] == pytest.approx(want, rel=1e-6), (lam, k, nt)


def test_raw_error_scales_as_h_squared():
    p = PotentialParams()
    errs = [
        abs(radial_eigenvalues_fd(p, 0, 0, GridSpec(12.0, n, richardson=False), 1)[0] - 2.5)
        for n in (250, 501, 1003)
    ]
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.1)


def test_richardson_extrapolation_gains_two_orders():
    p = PotentialParams()
    raw = abs(radial_eigenvalues_fd(p, 0, 0, GridSpec(12.0, 500, richardson=False), 1)[0] - 2.5)
    rich = abs(radial_eigenvalues_fd(p, 0, 0, GridSpec(12.0, 500, richardson=True), 1)[0] - 2.5)
    assert rich <= raw / 100


def test_coarse_grid_guard_fires():
    # at 250 points the ground state moves ~3e-4 under h -> h/2, past the
    # 1e-4-of-gap threshold the extrapolation trusts
    with pytest.raises(ValueError, match="grid too coarse"):
        radial_eigenvalues_fd(PotentialParams(), 0, 0, GridSpec(12.0, 250), 1)


def test_undersized_box_rejected_after_solve():
    with pytest.raises(ValueError, match="radial box"):
        radial_eigenvalues_fd(PotentialParams(), 0, 0, GridSpec(4.0, 2000), 4)


def test_box_wall_counts_the_energy_offset():
    # the wall is the potential at hi, -v0 included: a deep well lowers it
    # with the levels, so this box is too small at any v0
    with pytest.raises(ValueError, match="radial box"):
        radial_eigenvalues_fd(PotentialParams(v0=100.0), 0, 0, GridSpec(6.3, 2000), 6)


def test_default_box_holds_a_raised_ladder():
    # at v0 = -30 the levels and the wall rise together: the 12-length box
    # holds the lowest four levels
    p = PotentialParams(v0=-30.0)
    eigs = radial_eigenvalues_fd(p, 0, 0, default_radial_grid(p, 3000), 4)
    want = [energy(p, QuantumNumbers(n, 0, 0)) for n in range(4)]
    assert eigs == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("hbar, mu, omega, v0", [(1.0, 1.0, 1.0, 0.0), (0.9, 1.7, 1.3, 0.7),
                                                (0.01, 1e3, 3.0, -50.0)])
def test_radial_dvr_holds_the_ladder(hbar, mu, omega, v0):
    # the sinc DVR in s = ln r picks its own grid from ell_tilde and the top
    # degree; the ladder n <= 8 holds to 1e-9 from the r^(ell+1) wall of
    # ell_tilde = 0 to the far-out well of ell_tilde = 330
    p = PotentialParams(hbar=hbar, mu=mu, omega=omega, v0=v0)
    for ell in (0.0, 0.3, 1.0, 5.27, 20.5, 100.0, 330.0):
        want = ladder_energy(p, np.arange(9), ell)
        assert _radial_dvr(p, ell, 9) == pytest.approx(want, rel=1e-9, abs=0), ell


def test_angular_solver_validation():
    grid = default_angular_grid(256)
    with pytest.raises(ValueError, match="lam must be >= 0"):
        angular_eigenvalues_fd(-1.0, 0.5, grid, 1)
    with pytest.raises(ValueError, match="k must be positive"):
        angular_eigenvalues_fd(1.0, 0.0, grid, 1)
    with pytest.raises(ValueError, match="span"):
        angular_eigenvalues_fd(1.0, 0.5, GridSpec(1.0, 256), 1)
    with pytest.raises(ValueError, match="count"):
        angular_eigenvalues_fd(1.0, 0.5, grid, 0)


def test_attractive_wall_warns_and_converges_only_logarithmically():
    # lam < 1/2 puts theta = 0 in the limit-circle regime. The Dirichlet
    # eigenvalue still heads for (2n + k + lam + 1)^2 / 2 but the error
    # decays like 1/ln(1/h); at 2000 points it is still ~0.17, so the
    # solver must warn rather than pretend second-order accuracy.
    with pytest.warns(UserWarning, match="convergence degrades"):
        eig = angular_eigenvalues_fd(0.0, 0.5, default_angular_grid(2000), 1)[0]
    err = abs(eig - 1.125)
    assert 0.02 < err < 0.5
    # and the drift really is logarithmic: quadrupling the grid barely helps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eig4 = angular_eigenvalues_fd(0.0, 0.5, default_angular_grid(8000), 1)[0]
    err4 = abs(eig4 - 1.125)
    assert err4 < err
    assert err4 > err / 3, "decay faster than logarithmic would contradict the warning"


def test_regular_wall_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        angular_eigenvalues_fd(0.5, 0.5, default_angular_grid(512), 1)


def test_inner_product_reference_integrals():
    one = lambda x: np.ones_like(x)
    res = inner_product_radial(one, one, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.error_estimate <= 1e-10
    res = inner_product_angular(one, one)
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_inner_product_of_f_with_itself_calls_f_once_per_level():
    calls = []

    def bump(x):
        calls.append(x.size)
        return np.exp(-x)

    radial = inner_product_radial(bump, bump, 3.0)
    assert len(calls) == 2  # two panel levels, one call each
    assert radial.value == inner_product_radial(bump, lambda x: np.exp(-x), 3.0).value
    calls.clear()
    angular = inner_product_angular(bump, bump)
    assert len(calls) == 2
    assert angular.value == inner_product_angular(bump, lambda x: np.exp(-x)).value


@pytest.mark.parametrize("r_max", [math.inf, -math.inf, math.nan, -1.0, 0.0])
def test_inner_product_radial_requires_finite_positive_r_max(r_max):
    one = lambda x: np.ones_like(x)
    with pytest.raises(ValueError, match="requires finite r_max > 0"):
        inner_product_radial(one, one, r_max)


@pytest.mark.parametrize("lo, hi, n_panels, n_nodes",
                         [(0.0, 12.0, 6, 48), (1e-9, math.pi / 2 - 1e-9, 4, 24), (-0.3, 17.3, 7, 5)])
def test_gauss_panels_equal_panel_by_panel_rule(lo, hi, n_panels, n_nodes):
    base_x, base_w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(lo, hi, n_panels + 1)
    want_x, want_w = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        want_x.append(0.5 * (a + b) + 0.5 * (b - a) * base_x)
        want_w.append(0.5 * (b - a) * base_w)
    x, w = gauss_panels(lo, hi, n_panels, n_nodes)
    assert np.array_equal(x, np.concatenate(want_x))
    assert np.array_equal(w, np.concatenate(want_w))
    # the cached base rule is shared, so callers get fresh arrays
    x[:] = 0.0
    assert np.array_equal(gauss_panels(lo, hi, n_panels, n_nodes)[0], np.concatenate(want_x))


def test_quadrature_stall_raises():
    # an integrand oscillating far below panel resolution never stabilizes
    wiggle = lambda x: np.cos(2.0e5 * x)
    one = lambda x: np.ones_like(x)
    with pytest.raises(RuntimeError, match="stalled"):
        inner_product_radial(wiggle, one, 1.0)
