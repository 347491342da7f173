"""Physical model: potential parameters, quantum numbers, the potential in
spherical and Cartesian coordinates, and the derived spectral indices.

The potential is

    V(r, theta) = -v0 + mu omega^2 r^2 / 2 + hbar^2 c(theta) / (2 mu r^2),
    c(theta)    = alpha + beta cot^2(theta) + gamma / cos^2(theta)

on r > 0, theta in (0, pi/2). The gamma barrier decouples the two
hemispheres, so the domain stays the upper half even at gamma = 0; in the
fully coupled-free limit alpha = beta = gamma = 0 the model therefore
reproduces only the odd-parity subset of the isotropic oscillator.

Separation constants:

    lambda    = sqrt(beta + m^2)
    k         = sqrt(gamma + 1/4)
    ell_tilde = sqrt((k + lambda + 2 n_theta + 1)^2 + alpha - beta) - 1/2

ell_tilde acts as the orbital quantum number of the reduced radial
problem. States need ell_tilde >= 0 to be normalizable; a negative
radicand means the fall-to-center regime, which is rejected rather than
modeled. admissible_sectors evaluates each sector once for its ell_tilde and
AngularMode. QuantumNumbers and AngularMode are immutable NamedTuples that
hash as tuples; QuantumNumbers checks its fields. The module needs numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PotentialParams",
    "QuantumNumbers",
    "AngularMode",
    "potential_spherical",
    "potential_cartesian",
    "admissible_ell",
    "effective_ell",
    "admissible_sectors",
    "energy_floor",
    "ladder_energy",
    "radial_log_norm",
    "radial_extent",
    "angular_mode",
]


@dataclass(frozen=True)
class PotentialParams:
    """Scales (hbar, mu, omega), energy offset v0, couplings alpha/beta/gamma."""

    hbar: float = 1.0
    mu: float = 1.0
    omega: float = 1.0
    v0: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.gamma <= -0.25:
            raise ValueError(f"gamma must exceed -1/4, got {self.gamma}")


# the types a quantum number, count or cutoff may have: Python and numpy integers
_INTEGER = (int, np.integer)


def _check_count(name: str, value, floor: int) -> None:
    """Reject a count or cutoff that is not an integer >= floor."""
    if not isinstance(value, _INTEGER):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value}")


class _QuantumNumbers(NamedTuple):
    n: int
    n_theta: int
    m: int


class QuantumNumbers(_QuantumNumbers):
    """Radial n, angular n_theta, azimuthal m: integers, n and n_theta >= 0.

    An immutable NamedTuple; the constructor, _make and _replace check every
    field."""

    __slots__ = ()

    def __new__(cls, n: int, n_theta: int, m: int):
        if not (isinstance(n, _INTEGER) and isinstance(n_theta, _INTEGER) and isinstance(m, _INTEGER)):
            raise ValueError(f"quantum numbers must be integers, got n={n!r}, n_theta={n_theta!r}, m={m!r}")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n_theta < 0:
            raise ValueError(f"n_theta must be >= 0, got {n_theta}")
        return super().__new__(cls, n, n_theta, m)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class AngularMode(NamedTuple):
    """One angular sector: indices (lam, k), degree n_theta, eigenvalue eps,
    and the norm that makes Theta orthonormal under sin(theta) d(theta)."""

    lam: float
    k: float
    n_theta: int
    eps: float
    norm: float


def potential_spherical(p: PotentialParams, r, theta):
    """V(r, theta); finite r > 0 and theta strictly inside (0, pi/2).

    Accepts scalars or broadcastable arrays.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    # phrased so that NaN fails too
    if not np.all((r > 0) & (r < math.inf)):
        raise ValueError("potential_spherical requires finite r > 0")
    if not np.all((theta > 0) & (theta < math.pi / 2)):
        raise ValueError("potential_spherical requires 0 < theta < pi/2")
    cos2 = np.cos(theta) ** 2
    out = _radial_potential(p, p.alpha + p.beta * cos2 / np.sin(theta) ** 2 + p.gamma / cos2, r)
    return float(out) if out.ndim == 0 else out


def _radial_potential(p: PotentialParams, c, r):
    """-v0 + mu omega^2 r^2 / 2 + hbar^2 c / (2 mu r^2) at checked r > 0: V at
    c = c(theta), the separated radial potential at c = ell_tilde (ell_tilde + 1)."""
    # dividing by r twice keeps the c = 0 term at 0 where r * r underflows
    return -p.v0 + 0.5 * p.mu * p.omega**2 * r * r + p.hbar * p.hbar * c / (2 * p.mu) / r / r


def potential_cartesian(p: PotentialParams, x, y, z):
    """V in Cartesian form; agrees with potential_spherical under the
    spherical coordinate map.

    The grouping differs from the spherical form: the central part is
    _radial_potential at c = alpha - beta, the x^2+y^2 term carries beta.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
        raise ValueError("potential_cartesian requires finite x, y and z")
    r2 = x**2 + y**2 + z**2
    rho2 = x**2 + y**2
    if np.any(r2 == 0):
        raise ValueError("potential_cartesian requires (x,y,z) != 0")
    if p.beta != 0 and np.any(rho2 == 0):
        raise ValueError("potential_cartesian requires x^2+y^2 > 0 when beta != 0")
    if p.gamma != 0 and np.any(z == 0):
        raise ValueError("potential_cartesian requires z != 0 when gamma != 0")
    c = p.hbar**2 / (2 * p.mu)
    out = _radial_potential(p, p.alpha - p.beta, np.sqrt(r2))
    # the singular terms only enter when switched on, so 0/0 never forms
    if p.beta != 0:
        out = out + p.beta * c / rho2
    if p.gamma != 0:
        out = out + p.gamma * c / z**2
    return float(out) if np.ndim(out) == 0 else out


def _sector(
    p: PotentialParams, n_theta: int, m: int
) -> tuple[float | None, float | None, float | None, float | None, str]:
    """(lam, k, base, ell, why) of the (n_theta, m) sector.

    lam = sqrt(beta + m^2), k = sqrt(gamma + 1/4), base = k + lam + 2 n_theta + 1
    fixes the angular eigenvalue and ell = sqrt(base^2 + alpha - beta) - 1/2 is
    ell_tilde. The one admissibility test of the package: the sector holds
    bound states only if the angular sector is bound (beta + m^2 >= 0) and
    ell_tilde >= 0, which rules out the fall-to-center regime (negative
    radicand) as well. Otherwise ell is None and why gives the reason; where
    beta + m^2 < 0, lam, k and base are None too. Raises ValueError for
    non-integer n_theta or m, and for n_theta < 0.
    """
    if not (isinstance(n_theta, _INTEGER) and isinstance(m, _INTEGER)):
        raise ValueError(f"sector indices must be integers, got n_theta={n_theta!r}, m={m!r}")
    if n_theta < 0:
        raise ValueError(f"n_theta must be >= 0, got {n_theta}")
    lam_sq = p.beta + m * float(m)  # in floats, so a numpy integer never wraps
    if lam_sq < 0:
        why = f"beta + m^2 must be >= 0 for a bound angular sector, got {lam_sq} (beta={p.beta}, m={m})"
        return None, None, None, None, why
    lam, k = math.sqrt(lam_sq), math.sqrt(p.gamma + 0.25)
    base = k + lam + 2.0 * n_theta + 1
    radicand = base * base + (p.alpha - p.beta)
    if radicand < 0:
        why = f"(k+lambda+2*n_theta+1)^2 + alpha - beta = {radicand} < 0: fall-to-center regime, no bound state"
        return lam, k, base, None, why
    ell = math.sqrt(radicand) - 0.5
    if ell < 0:
        return lam, k, base, None, f"ell_tilde = {ell} < 0: state not normalizable at the origin (inadmissible sector)"
    return lam, k, base, ell, ""


def admissible_ell(p: PotentialParams, n_theta: int, m: int) -> float | None:
    """ell_tilde of the (n_theta, m) sector, or None when it holds no bound state."""
    return _sector(p, n_theta, m)[3]


def effective_ell(p: PotentialParams, n_theta: int, m: int) -> float:
    """Effective orbital quantum number ell_tilde of the reduced radial problem.

    Raises:
        ValueError: with the reason the sector holds no bound state:
            beta + m^2 < 0, negative radicand (fall-to-center regime) or
            ell_tilde < 0 (state not normalizable at the origin).
    """
    _, _, _, ell, why = _sector(p, n_theta, m)
    if ell is None:
        raise ValueError(why)
    return ell


def admissible_sectors(p: PotentialParams, m: int):
    """Yield (n_theta, ell_tilde, AngularMode) of every sector (n_theta, m)
    that holds bound states, from one evaluation each, by increasing n_theta
    and without end; nothing if beta + m^2 < 0.

    Strongly attractive couplings (alpha - beta << 0) make thousands of low
    n_theta inadmissible; the scan starts at a lower bound, exact up to
    rounding, on the first n_theta whose radicand reaches 1/4, and so skips
    them in O(1).
    """
    first = _sector(p, 0, m)
    if first[2] is None:
        return
    need = 0.25 - (p.alpha - p.beta)
    start = 0 if need <= 0 else max(0, math.floor((math.sqrt(need) - first[2]) / 2) - 1)
    for n_theta in itertools.count(start):
        lam, k, base, ell, _ = first if n_theta == 0 else _sector(p, n_theta, m)
        if ell is not None:
            yield n_theta, ell, _angular(p, n_theta, lam, k, base)


def energy_floor(p: PotentialParams, m: int) -> float:
    """A lower bound on every energy with azimuthal number m that never
    decreases with |m|.

    It is the floor of the (0, m) sector, with ell_tilde taken as 0 where
    that sector is inadmissible, and -inf where beta + m^2 < 0 leaves no
    state at this m.
    """
    _, _, base, ell, _ = _sector(p, 0, m)
    if base is None:
        return -math.inf
    return ladder_energy(p, 0, 0.0 if ell is None else ell)


def ladder_energy(p: PotentialParams, n, ell: float):
    """E = (2n + ell_tilde + 3/2) hbar omega - v0, for an integer n or an ndarray of them."""
    return (2.0 * n + ell + 1.5) * p.hbar * p.omega - p.v0


def radial_log_norm(p: PotentialParams, n_max: int, ell):
    """ln N_0..ln N_{n_max} of N_n = sqrt(2 (mu omega/hbar)^{3/2} n! / Gamma(n + ell_tilde + 3/2)), shape
    (n_max + 1,) + shape(ell) for finite ell_tilde >= 0: ln N_0 from math.lgamma, then
    the running sum of half the log of N_n^2 / N_{n-1}^2 = n / (n + ell_tilde + 1/2)."""
    _check_count("n_max", n_max, 0)
    ell = np.asarray(ell, dtype=float)
    flat = ell.ravel().tolist()
    if not all(0 <= e < math.inf for e in flat):
        raise ValueError(f"the radial functions require finite ell_tilde >= 0, got ell_tilde={ell}")
    lead = 0.5 * (math.log(2.0) + 1.5 * math.log(p.mu * p.omega / p.hbar))
    steps = np.empty((n_max + 1,) + ell.shape)
    steps[0] = np.reshape([lead - 0.5 * math.lgamma(e + 1.5) for e in flat], ell.shape)
    steps[1:] = -0.5 * np.log1p((ell + 0.5) / np.arange(1.0, n_max + 1).reshape((-1,) + (1,) * ell.ndim))
    return np.cumsum(steps, axis=0)


def radial_extent(p: PotentialParams, n: int, ell: float) -> float:
    """Radius past which every radial state of degree <= n and ell_tilde <= ell
    has decayed: 6 oscillator lengths past the outermost classical turning
    point sqrt(4n + 2 ell_tilde + 3) sqrt(hbar/(mu omega)), and never less
    than 12 oscillator lengths."""
    return math.sqrt(p.hbar / (p.mu * p.omega)) * max(12.0, math.sqrt(4.0 * n + 2 * ell + 3) + 6.0)


def angular_mode(p: PotentialParams, n_theta: int, m: int) -> AngularMode:
    """The AngularMode of the (n_theta, m) sector, which must be bound (beta + m^2 >= 0)."""
    lam, k, base, _, why = _sector(p, n_theta, m)
    if base is None:
        raise ValueError(why)
    return _angular(p, n_theta, lam, k, base)


def _angular(p: PotentialParams, n_theta: int, lam: float, k: float, base: float) -> AngularMode:
    """The AngularMode of a bound sector from its _sector values lam, k, base.

    eps = (hbar^2/2mu) base^2 with base = k + lam + 2 n_theta + 1. The norm
    squares to 2 base n_theta! Gamma(n_theta+k+lam+1)
    / [Gamma(n_theta+k+1) Gamma(n_theta+lam+1)], evaluated through log-gamma
    differences so large degrees stay in range.
    """
    eps = (p.hbar**2 / (2 * p.mu)) * base * base
    log_norm_sq = (
        math.log(2 * base)
        + math.lgamma(n_theta + 1.0)
        + math.lgamma(n_theta + k + lam + 1)
        - math.lgamma(n_theta + k + 1)
        - math.lgamma(n_theta + lam + 1)
    )
    return AngularMode(lam=lam, k=k, n_theta=n_theta, eps=eps, norm=math.exp(0.5 * log_norm_sq))
