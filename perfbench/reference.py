"""Independent references for the benchmark's output checks, and its
summary statistics.

Nothing here imports ncosc. Each function re-derives a result of the paper
from its formulas with numpy/scipy, through a different numerical route
from the package's own (scipy's exponentially scaled Bessel function in
place of the package's series, scipy's orthogonal polynomials in place of
its recurrences, a brute-force box in place of its pruned scan), so a fault
in the package cannot hide behind the same fault in its reference.

All physics functions take a `Phys` with the same seven fields as
`ncosc.PotentialParams`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, eval_jacobi, gammaln, ive


@dataclass(frozen=True)
class Phys:
    hbar: float = 1.0
    mu: float = 1.0
    omega: float = 1.0
    v0: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0


def ell_tilde(ph: Phys, n_theta: int, m: int) -> float | None:
    """Effective orbital number of sector (n_theta, m), or None where the
    sector holds no bound state (beta + m^2 < 0, fall to centre, or a
    state not normalizable at the origin)."""
    lam2 = ph.beta + m * m
    if lam2 < 0:
        return None
    base = math.sqrt(ph.gamma + 0.25) + math.sqrt(lam2) + 2 * n_theta + 1
    radicand = base * base + ph.alpha - ph.beta
    if radicand < 0.25:
        return None
    return math.sqrt(radicand) - 0.5


def energy(ph: Phys, n: int, ell: float) -> float:
    """E = (2n + ell_tilde + 3/2) hbar omega - v0."""
    return (2 * n + ell + 1.5) * ph.hbar * ph.omega - ph.v0


def box_bound(ph: Phys, e_max: float) -> int:
    """A bound B with 2n <= B, 2 n_theta <= B and |m| <= B for every state
    with E <= e_max.

    From ell >= 2 n_theta + lambda - sqrt|alpha - beta| and
    lambda >= |m| - sqrt|beta| (both from sqrt(x^2 - c) >= x - sqrt(c)),
    and ell >= 0 for the radial number.
    """
    slack = math.sqrt(abs(ph.alpha - ph.beta)) + math.sqrt(abs(ph.beta))
    return int(math.ceil((e_max + ph.v0) / (ph.hbar * ph.omega) + slack)) + 1


def states_below(ph: Phys, e_max: float) -> dict[tuple[int, int, int], float]:
    """Every bound state (n, n_theta, m) with E <= e_max, by brute force over
    the whole box of `box_bound`, mapped to its energy."""
    b = box_bound(ph, e_max)
    out = {}
    for m in range(-b, b + 1):
        for n_theta in range(b // 2 + 1):
            ell = ell_tilde(ph, n_theta, m)
            if ell is None:
                continue
            for n in range(b // 2 + 1):
                e = energy(ph, n, ell)
                if e <= e_max:
                    out[(n, n_theta, m)] = e
    return out


def log_radial_kernel(ph: Phys, ell: float, ra, rb, tau: float) -> np.ndarray:
    """ln of the closed radial kernel, assembled in log space.

    K = e^{v0 tau/hbar} (c/sinh) I_{ell+1/2}(c ra rb/sinh)
        exp[-(c/2)(ra^2+rb^2) coth] / sqrt(ra rb),  c = mu omega/hbar,
    with I taken as ive(z) e^z and the exponents combined exactly as
    -(c/2)[(ra-rb)^2 coth + 2 ra rb tanh(omega tau/2)], so neither the
    Bessel factor nor the Gaussian is ever formed on its own.
    """
    ra = np.asarray(ra, dtype=float)
    rb = np.asarray(rb, dtype=float)
    c = ph.mu * ph.omega / ph.hbar
    wt = ph.omega * tau
    sh = math.sinh(wt)
    z = c * ra * rb / sh
    expo = -0.5 * c * ((ra - rb) ** 2 / math.tanh(wt) + 2 * ra * rb * math.tanh(0.5 * wt))
    return (ph.v0 * tau / ph.hbar + math.log(c / sh) - 0.5 * np.log(ra * rb)
            + np.log(ive(ell + 0.5, z)) + expo)


def wavefunction(ph: Phys, n: int, n_theta: int, m: int, r, theta, phi) -> np.ndarray:
    """psi = R(r) Theta(theta) e^{i m phi}/sqrt(2 pi) from the paper's
    closed forms, with scipy's Laguerre and Jacobi polynomials.

    R = N_r e^{-x/2} x^{ell/2} L_n^{ell+1/2}(x), x = mu omega r^2/hbar,
        N_r^2 = 2 (mu omega/hbar)^{3/2} n!/Gamma(n+ell+3/2);
    Theta = N_t sin^lam cos^{k+1/2} P_{n_theta}^{(lam,k)}(cos 2 theta),
        N_t^2 = 2 s n_theta! Gamma(n_theta+k+lam+1)
                / [Gamma(n_theta+k+1) Gamma(n_theta+lam+1)],
        s = 2 n_theta + k + lam + 1.
    """
    ell = ell_tilde(ph, n_theta, m)
    if ell is None:
        raise ValueError(f"sector ({n_theta}, {m}) holds no bound state")
    lam = math.sqrt(ph.beta + m * m)
    k = math.sqrt(ph.gamma + 0.25)
    c = ph.mu * ph.omega / ph.hbar
    r, theta, phi = (np.asarray(a, dtype=float) for a in (r, theta, phi))
    x = c * r * r
    log_nr = 0.5 * (math.log(2.0) + 1.5 * math.log(c) + gammaln(n + 1) - gammaln(n + ell + 1.5))
    radial = np.exp(log_nr - 0.5 * x) * x ** (0.5 * ell) * eval_genlaguerre(n, ell + 0.5, x)
    s = 2 * n_theta + k + lam + 1
    log_nt = 0.5 * (math.log(2 * s) + gammaln(n_theta + 1) + gammaln(n_theta + k + lam + 1)
                    - gammaln(n_theta + k + 1) - gammaln(n_theta + lam + 1))
    angular = (math.exp(log_nt) * np.sin(theta) ** lam * np.cos(theta) ** (k + 0.5)
               * eval_jacobi(n_theta, lam, k, np.cos(2 * theta)))
    return radial * angular * np.exp(1j * m * phi) / math.sqrt(2 * math.pi)


# ------------------------------------------------------------- statistics

def median(values) -> float:
    return float(statistics.median(values))


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest percentile in TAIL_PERCENTILES that has at
    least ten samples beyond it, by nearest rank; None below forty samples,
    where only the median is worth reporting."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100 - 1e-9)  # p * n / 100 is often an integer
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None
