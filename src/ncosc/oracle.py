"""Independent numerical cross-checks: finite-difference Sturm-Liouville
eigensolvers for the radial and angular equations, composite Gauss-Legendre
panels, and the inner products built on them under the r^2 dr and
sin(theta) d(theta) measures.

Nothing here consumes the closed-form spectrum or eigenfunctions; the
solvers discretize the differential operators directly so their output
can stand as evidence for (or against) the analytic results. The only
shared ingredient is the index map (n_theta, m) -> effective angular
momentum, which parameterizes both sides of every comparison.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import PotentialParams, _check_count, _radial_potential, effective_ell, radial_extent

__all__ = [
    "GridSpec",
    "QuadratureResult",
    "default_radial_grid",
    "default_angular_grid",
    "gauss_panels",
    "radial_eigenvalues_fd",
    "angular_eigenvalues_fd",
    "inner_product_radial",
    "inner_product_angular",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform finite-difference grid on [0, hi] with Dirichlet endpoints.

    Interior nodes sit at j*h for j = 1..n_points with spacing
    h = hi/(n_points + 1); the boundary values are pinned to zero and never
    stored. `richardson` is the number of Richardson levels, an integer
    >= 0: the solvers then also solve on the nested grids h/2, ...,
    h/2^richardson and cancel the error terms h^2, ..., h^(2 richardson).
    False and True mean 0 and 1.
    """

    hi: float
    n_points: int
    richardson: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.hi < math.inf:
            raise ValueError(f"grid requires finite hi > 0, got {self.hi}")
        _check_count("n_points", self.n_points, 64)
        _check_count("richardson", self.richardson, 0)

    @property
    def h(self) -> float:
        return self.hi / (self.n_points + 1)

    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_points + 1)

    def refined(self) -> "GridSpec":
        """Same interval with spacing halved; coarse nodes are a subset."""
        return GridSpec(self.hi, 2 * self.n_points + 1, self.richardson)


class QuadratureResult(NamedTuple):
    """Integral value with the last panel-refinement change as error estimate."""

    value: float
    error_estimate: float


def default_radial_grid(p: PotentialParams, n_points: int = 2000) -> GridSpec:
    """Box large enough that all low-lying bound states decay below 1e-14."""
    return GridSpec(radial_extent(p, 0, 0.0), n_points)


def default_angular_grid(n_points: int = 2000) -> GridSpec:
    return GridSpec(math.pi / 2, n_points)


def _sturm_liouville_eigs(v_of_x: Callable[[np.ndarray], np.ndarray], grid: GridSpec,
                          count: int, hbar: float, mu: float) -> np.ndarray:
    """Lowest eigenvalues of -(hbar^2/2mu) u'' + V u = E u, Dirichlet ends.

    Second-order central differences on the interior nodes give a symmetric
    tridiagonal matrix; eigenvalues come from bisection with Sturm counts,
    which is deterministic and cheap for the leading part of the spectrum.
    """
    from scipy.linalg import eigh_tridiagonal

    h = grid.h
    x = grid.nodes()
    kin = hbar * hbar / (2 * mu * h * h)
    diag = 2 * kin + v_of_x(x)
    off = np.full(grid.n_points - 1, -kin)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1), eigvals_only=True)


def _solve_with_richardson(v_of_x: Callable[[np.ndarray], np.ndarray], grid: GridSpec,
                           count: int, hbar: float, mu: float, guard: bool = True) -> tuple[np.ndarray, float]:
    """Lowest `count` eigenvalues, extrapolated over grid.richardson levels,
    and the worst shift/gap ratio of the last pair of estimates (nan at
    level 0).

    At L = grid.richardson >= 1 the eigenvalues are solved on the L + 1
    nested grids h, h/2, ..., h/2^L. Romberg steps j = 1..L-1,
    (4^j fine - coarse)/(4^j - 1), cancel h^2, ..., h^(2L-2) and leave two
    estimates; the guard requires their difference to be within 1e-4 of
    the gap to the next eigenvalue, and the last step j = L returns the
    extrapolated value. L = 1 is (4 E_{h/2} - E_h)/3.
    """
    levels = int(grid.richardson)
    # one extra eigenvalue so the last requested one has a gap to measure
    wanted = count + 1 if levels else count
    if wanted > grid.n_points:
        raise ValueError(
            f"count = {count} asks for {wanted} eigenvalues of a grid with n_points = {grid.n_points}"
            + (" (Richardson solves count + 1)" if levels else "")
        )
    if not levels:
        return _sturm_liouville_eigs(v_of_x, grid, count, hbar, mu), math.nan
    estimates = []
    for _ in range(levels + 1):
        estimates.append(_sturm_liouville_eigs(v_of_x, grid, wanted, hbar, mu))
        grid = grid.refined()
    for j in range(1, levels):
        estimates = [(4**j * fine - coarse) / (4**j - 1) for coarse, fine in zip(estimates, estimates[1:])]
    coarse, fine = estimates
    shift = np.abs(fine[:count] - coarse[:count])
    gap = fine[1 : count + 1] - fine[:count]
    bad = guard & (shift > 1e-4 * gap)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"grid too coarse: eigenvalue {i} moved {shift[i]:.3e} under h -> h/2, "
            f"more than 1e-4 of its gap {gap[i]:.3e}; increase n_points"
        )
    return (4**levels * fine[:count] - coarse[:count]) / (4**levels - 1), float(np.max(shift / gap))


def _radial_fd(p: PotentialParams, n_theta: int, m: int, grid: GridSpec, count: int) -> tuple[np.ndarray, float]:
    """radial_eigenvalues_fd with the worst Richardson shift/gap ratio."""
    _check_count("count", count, 1)
    ell = effective_ell(p, n_theta, m)
    v_of_r = functools.partial(_radial_potential, p, ell * (ell + 1))
    eigs, shift_gap = _solve_with_richardson(v_of_r, grid, count, p.hbar, p.mu)
    wall = v_of_r(grid.hi)
    if wall < eigs[-1] + 40 * p.hbar * p.omega:
        raise ValueError(
            f"radial box hi={grid.hi} too small: V_ell(hi) = {wall:.3g} must exceed "
            f"the highest requested eigenvalue {eigs[-1]:.3g} by 40*hbar*omega"
        )
    return eigs, shift_gap


def radial_eigenvalues_fd(p: PotentialParams, n_theta: int, m: int, grid: GridSpec, count: int) -> np.ndarray:
    """Finite-difference eigenvalues of the radial problem in one angular sector.

    Solves -(hbar^2/2mu) u'' + [-v0 + mu omega^2 r^2/2 + hbar^2 ell(ell+1)/(2 mu r^2)] u = E u
    with u(0) = u(hi) = 0, where ell is the effective angular momentum of the
    (n_theta, m) sector. Returns the lowest `count` eigenvalues ascending,
    Richardson-extrapolated over grid.richardson levels (grids h, h/2, ...,
    h/2^richardson) when the grid requests it.

    Parameters
    ----------
    p : PotentialParams
        Physical constants and couplings.
    n_theta, m : int
        Angular sector; must be admissible for these couplings.
    grid : GridSpec
        Radial box [0, hi]; checked a posteriori, V_ell(hi) must exceed the
        highest returned eigenvalue by 40 hbar omega.
    count : int
        Number of eigenvalues, >= 1 and at most grid.n_points (one less
        with Richardson levels, which solve one eigenvalue more).

    Returns
    -------
    numpy.ndarray
        Eigenvalues sorted ascending.
    """
    return _radial_fd(p, n_theta, m, grid, count)[0]


def angular_eigenvalues_fd(lam: float, k: float, grid: GridSpec, count: int) -> np.ndarray:
    """Finite-difference eigenvalues of the angular problem on (0, pi/2).

    Solves -(1/2) phi'' + (1/2)[(lam^2 - 1/4)/sin^2(theta)
    + (k^2 - 1/4)/cos^2(theta)] phi = eps phi with Dirichlet ends, in units
    hbar = mu = 1 (eps scales with hbar^2/mu). For
    lam < 1/2 or k < 1/2 the wall terms turn attractive; the Dirichlet
    problem stays well posed but loses convergence order, which is
    reported as a warning.
    """
    _check_count("count", count, 1)
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be >= 0 and finite, got {lam}")
    if not 0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    if abs(grid.hi - math.pi / 2) > 1e-12:
        raise ValueError("angular grid must span (0, pi/2)")
    # below 1/2 the wall exponent enters the limit-circle regime: the
    # discrete Dirichlet eigenvalue still converges, but only
    # logarithmically, so the h -> h/2 shift guard would always fire;
    # the warning takes over as the degradation report
    regular = lam >= 0.5 and k >= 0.5
    if not regular:
        warnings.warn(
            f"angular solver with lam={lam}, k={k}: wall potential attractive, "
            "convergence degrades below second order near the boundary",
            stacklevel=2,
        )
    c_lam = (lam * lam - 0.25) / 2
    c_k = (k * k - 0.25) / 2

    def v_of_theta(th: np.ndarray) -> np.ndarray:
        s, c = np.sin(th), np.cos(th)
        return c_lam / (s * s) + c_k / (c * c)

    return _solve_with_richardson(v_of_theta, grid, count, 1.0, 1.0, guard=regular)[0]


@functools.lru_cache(maxsize=16)
def _leggauss(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # read-only, since every caller shares the cached arrays
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(lo: float, hi: float, n_panels: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [lo, hi]: n_panels equal
    panels of n_nodes each, nodes ascending. Requires finite lo < hi and
    integer counts >= 1."""
    _check_count("n_panels", n_panels, 1)
    _check_count("n_nodes", n_nodes, 1)
    # phrased so that NaN fails too
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"gauss_panels requires finite lo < hi, got lo={lo!r}, hi={hi!r}")
    base_x, base_w = _leggauss(n_nodes)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * base_x).ravel(), (half * base_w).ravel()


def _panel_refine(integrand: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> QuadratureResult:
    """Composite 32-node Gauss-Legendre with panel doubling until two
    successive totals agree to 1e-10; a total that is not finite raises ValueError at once."""
    prev = None
    err = math.inf
    n_panels = 8
    for _ in range(8):
        x, w = gauss_panels(lo, hi, n_panels, 32)
        total = float(np.dot(w, integrand(x)))
        if not math.isfinite(total):
            raise ValueError(f"quadrature on [{lo}, {hi}]: the integrand is not finite (panel total {total})")
        if prev is not None:
            err = abs(total - prev)
            if err <= 1e-10:
                return QuadratureResult(value=total, error_estimate=err)
        prev = total
        n_panels *= 2
    raise RuntimeError(
        f"quadrature on [{lo}, {hi}] stalled at {n_panels // 2} panels (last change {err:.3e})"
    )


def _product(f: Callable[[np.ndarray], np.ndarray], g: Callable[[np.ndarray], np.ndarray],
             x: np.ndarray) -> np.ndarray:
    """f(x) g(x), with f called once where g is f."""
    fx = np.asarray(f(x))
    return fx * (fx if g is f else np.asarray(g(x)))


def inner_product_radial(f: Callable[[np.ndarray], np.ndarray], g: Callable[[np.ndarray], np.ndarray],
                         r_max: float) -> QuadratureResult:
    """<f, g> = int_0^r_max f(r) g(r) r^2 dr, finite r_max > 0, with a reported error estimate.
    Where g is f, f is evaluated once per panel level."""
    if not 0 < r_max < math.inf:
        raise ValueError(f"inner_product_radial requires finite r_max > 0, got r_max={r_max}")

    def integrand(r: np.ndarray) -> np.ndarray:
        return _product(f, g, r) * r * r

    return _panel_refine(integrand, 0.0, r_max)


def inner_product_angular(f: Callable[[np.ndarray], np.ndarray],
                          g: Callable[[np.ndarray], np.ndarray]) -> QuadratureResult:
    """<f, g> = int_0^{pi/2} f(theta) g(theta) sin(theta) d(theta) with a reported error estimate.
    Where g is f, f is evaluated once per panel level."""

    def integrand(th: np.ndarray) -> np.ndarray:
        return _product(f, g, th) * np.sin(th)

    return _panel_refine(integrand, 0.0, math.pi / 2)
