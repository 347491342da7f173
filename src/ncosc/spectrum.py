"""Closed-form bound-state data: energies, angular and radial
eigenfunctions, full normalized wavefunctions, and state enumeration.

Wavefunctions factorize as psi = R(r) Theta(theta) e^{i m phi} / sqrt(2 pi)
with R orthonormal under r^2 dr on (0, inf) and Theta orthonormal under
sin(theta) d(theta) on (0, pi/2). R and the energy depend on (n, ell_tilde)
alone, which the radial functions take as model.ladder_energy does; an
EigenState is the flat record (qn, angular, ell_tilde, energy), an immutable
NamedTuple like its qn and angular. enumerate_states builds its records
without re-checking the quantum numbers its scan takes from range(). R is
coded once, in radial_factors, on numpy alone, and Theta in angular_profiles,
the one place an angular norm is formed.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .model import (
    AngularMode,
    PotentialParams,
    QuantumNumbers,
    _check_count,
    admissible_sectors,
    angular_log_norm,
    angular_mode,
    effective_ell,
    energy_floor,
    ladder_energy,
    radial_log_norm,
)
from .specfun import jacobi_all, laguerre_all

__all__ = [
    "EigenState",
    "energy",
    "angular_wavefunction",
    "angular_profiles",
    "radial_wavefunction",
    "full_wavefunction",
    "eigenstate",
    "enumerate_states",
    "radial_factors",
    "radial_profiles",
]


class EigenState(NamedTuple):
    """One bound state: quantum numbers, angular mode, the ell_tilde of its
    sector and its energy ladder_energy(p, qn.n, ell_tilde)."""

    qn: QuantumNumbers
    angular: AngularMode
    ell_tilde: float
    energy: float


def energy(p: PotentialParams, qn: QuantumNumbers) -> float:
    """E = (2n + ell_tilde + 3/2) hbar omega - v0."""
    return ladder_energy(p, qn.n, effective_ell(p, qn.n_theta, qn.m))


def angular_wavefunction(mode: AngularMode, theta):
    """Theta(theta) = norm (sin theta)^lam (cos theta)^{k+1/2} P_{n_theta}^{(lam,k)}(cos 2theta),
    norm = exp(angular_log_norm(mode)).

    Orthonormal under the sin(theta) d(theta) measure on (0, pi/2).
    Accepts scalar or ndarray theta strictly inside the interval.
    """
    val = angular_profiles([mode], theta)[0]
    return float(val[0]) if np.ndim(theta) == 0 else val


def angular_profiles(modes: Sequence[AngularMode], theta) -> np.ndarray:
    """Stacked angular eigenfunctions of modes that share one (lam, k), i.e.
    one |m|, with shape (len(modes),) + shape(theta), theta made at least 1-d.

    One Jacobi recurrence up to the largest n_theta serves every mode, and
    row i equals angular_wavefunction(modes[i], theta) bit for bit. It raises
    ValueError unless 0 < theta < pi/2 and OverflowError past the Jacobi float range.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    flat = th.ravel()
    if flat.size and not (0 < flat.min() and flat.max() < math.pi / 2):
        raise ValueError("angular eigenfunctions require angles 0 < theta < pi/2")
    if not modes:
        raise ValueError("angular_profiles requires at least one mode")
    lam, k = modes[0].lam, modes[0].k
    if any(md.lam != lam or md.k != k for md in modes):
        raise ValueError("angular_profiles requires modes of one (lam, k)")
    degrees = [md.n_theta for md in modes]
    with np.errstate(over="ignore", invalid="ignore"):
        jac = jacobi_all(max(degrees), lam, k, np.cos(2 * flat))[degrees]
    if not np.isfinite(jac).all():
        raise OverflowError(f"a Jacobi polynomial P_n(cos 2 theta), n = {max(degrees)}, is beyond the float range")
    norm = np.array([math.exp(angular_log_norm(md)) for md in modes])[:, None]
    return (norm * np.sin(flat) ** lam * np.cos(flat) ** (k + 0.5) * jac).reshape((len(modes),) + th.shape)


def radial_wavefunction(p: PotentialParams, n: int, ell: float, r):
    """R(r) = N_n e^{-x/2} x^{ell/2} L_n^{ell+1/2}(x), x = mu omega r^2/hbar, of degree n and
    ell_tilde ell, orthonormal under r^2 dr on (0, inf), at scalar or ndarray finite r > 0: row n
    of radial_profiles, as angular_wavefunction is a row of angular_profiles. The Laguerre
    polynomial is unscaled; past x of about 1400 it can overflow, and OverflowError is raised."""
    _check_count("n", n, 0)
    log_env, poly = radial_factors(p, ell, n, np.ravel(r))
    val = (np.exp(log_env) * poly[n]).reshape(np.shape(r))
    return float(val) if np.ndim(r) == 0 else val


def full_wavefunction(p: PotentialParams, qn: QuantumNumbers, r, theta, phi):
    """psi(r, theta, phi) = R Theta e^{i m phi} / sqrt(2 pi), unit norm under
    r^2 sin(theta) dr d(theta) d(phi) over the half-space theta < pi/2.
    Requires finite r > 0, 0 < theta < pi/2 and finite phi."""
    ph = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(ph)):
        raise ValueError("full_wavefunction requires finite phi")
    st = eigenstate(p, qn.n, qn.n_theta, qn.m)
    rad = radial_wavefunction(p, qn.n, st.ell_tilde, r)
    ang = angular_wavefunction(st.angular, theta)
    val = rad * ang * np.exp(1j * qn.m * ph) / math.sqrt(2 * math.pi)
    return complex(val) if np.ndim(val) == 0 else val


def eigenstate(p: PotentialParams, n: int, n_theta: int, m: int) -> EigenState:
    """Assemble the EigenState for (n, n_theta, m), rejecting inadmissible sectors."""
    qn = QuantumNumbers(n, n_theta, m)
    ang, ell = angular_mode(p, n_theta, m), effective_ell(p, n_theta, m)
    return EigenState(qn, ang, ell, ladder_energy(p, n, ell))


def enumerate_states(p: PotentialParams, e_max: float, m_max: int) -> list[EigenState]:
    """All admissible states with |m| <= m_max and energy <= e_max.

    Sorted by (energy, n, n_theta, m). The scan prunes on monotonicity:
    at fixed m the sector floor rises with n_theta, and within a sector
    the energy rises by 2 hbar omega per radial node, so each loop
    terminates from the energy bound alone. The |m| loop stops at the
    first |m| whose energy_floor exceeds e_max, since that floor bounds
    every energy at |m| and never decreases with it. Inadmissible sectors
    (non-bound lambda, fall-to-center radicand, ell_tilde < 0) hold no
    states and are skipped; admissibility is restored at larger n_theta
    or |m|, so skipping never ends a scan early. The scan evaluates each
    sector once and yields its ell_tilde and angular mode, which sectors +m
    and -m share; each level's energy is computed once, serves as the loop
    bound and is stored in both of its states. The sort reads one key per
    level, made alongside it, and the records are then built in their
    final order; only where two levels tie on (energy, n, n_theta) are they
    sorted again, by (energy, n, n_theta, m).
    The records are made with tuple.__new__, which skips QuantumNumbers'
    checks: the scan takes n, n_theta and m from range() and
    admissible_sectors, so they are valid integers already.
    """
    if not math.isfinite(e_max):
        raise ValueError(f"e_max must be finite, got {e_max}")
    _check_count("m_max", m_max, 0)
    # one key per level, (energy, n, n_theta, -|m|, mode, ell_tilde), which
    # both signs of m share: the first four never tie, so the sort never
    # compares modes
    levels: list[tuple] = []
    for m in range(0, m_max + 1):
        if energy_floor(p, m) > e_max:
            break
        for n_theta, ell, ang in admissible_sectors(p, m):
            e = ladder_energy(p, 0, ell)
            if e > e_max:
                break
            n = 0
            while e <= e_max:
                levels.append((e, n, n_theta, -m, ang, ell))
                n += 1
                e = ladder_energy(p, n, ell)
    levels.sort()
    # each level gives its -|m| state, then its +|m| one: the order of
    # (energy, n, n_theta, m) unless levels at two |m| tie on (energy, n,
    # n_theta), as where their ell_tilde round to one float
    states: list[EigenState] = []
    append = states.append
    new = tuple.__new__
    tied = False
    last_e = last_n = last_t = None
    for e, n, n_theta, neg, ang, ell in levels:
        if e == last_e and n == last_n and n_theta == last_t:
            tied = True
        last_e, last_n, last_t = e, n, n_theta
        append(new(EigenState, (new(QuantumNumbers, (n, n_theta, neg)), ang, ell, e)))
        if neg:
            append(new(EigenState, (new(QuantumNumbers, (n, n_theta, -neg)), ang, ell, e)))
    if tied:
        states.sort(key=lambda s: (s.energy, *s.qn))
    return states


def radial_factors(p: PotentialParams, ell, n_max: int, r) -> tuple[np.ndarray, np.ndarray]:
    """Radial eigenfunctions R_0..R_{n_max} in factored form (log_env, poly).

    R_n(r) = exp(log_env) poly[n], where log_env = ell (ln c / 2 + ln r) - x/2, c = mu omega/hbar
    and x = c r^2, is the same for every degree (and finite also where x underflows) and
    poly[n] = N_n L_n^{ell+1/2}(x). The envelope under- or overflows long before the polynomial
    part, so sums over n keep it in log space. ell may be an array of ell_tilde values, and one
    Laguerre recurrence serves them all: log_env has shape shape(ell) + (P,) and poly
    (n_max + 1,) + shape(ell) + (P,), with r made 1-d of length P; every r must be finite and
    > 0, every ell_tilde finite and >= 0. Past x of about 1400 the unscaled Laguerre polynomials
    can overflow; OverflowError is then raised, naming n_max, the degree that overflow climbs to.
    """
    ell = np.asarray(ell, dtype=float)
    ra = np.atleast_1d(np.asarray(r, dtype=float))
    # NaN fails too, since min and max propagate it
    if ra.size and not (0 < ra.min() and ra.max() < math.inf):
        raise ValueError("radial_factors requires finite r > 0")
    norm = np.exp(radial_log_norm(p, n_max, ell))
    c = p.mu * p.omega / p.hbar
    # x overflows to inf at huge r: the envelope is then 0 and a Laguerre
    # polynomial past degree 0 infinite, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        x = c * ra * ra
        log_env = ell[..., None] * (0.5 * math.log(c) + np.log(ra)) - 0.5 * x
        poly = norm[..., None] * laguerre_all(n_max, ell + 0.5, x)
    if not np.isfinite(poly).all():
        raise OverflowError(f"a Laguerre polynomial L_n(mu omega r^2/hbar), n = {n_max}, is beyond the float range")
    return log_env, poly


def radial_profiles(p: PotentialParams, ell, n_max: int, r) -> np.ndarray:
    """Stacked radial eigenfunctions R_0..R_{n_max}, shape (n_max + 1, P) for
    one ell_tilde and (n_max + 1,) + shape(ell) + (P,) for an array of them.

    Shares one Laguerre recurrence pass across all degrees and orders, raising where radial_factors
    does; quadrature loops call this instead of radial_wavefunction per n.
    """
    log_env, poly = radial_factors(p, ell, n_max, r)
    return np.exp(log_env) * poly
