"""Exact solution of the 3D noncentral anharmonic oscillator.

Closed-form spectrum, eigenfunctions, and Euclidean propagator for the
potential

    V(r, theta) = -v0 + mu omega^2 r^2 / 2
                  + (hbar^2 / 2 mu r^2) [alpha
                                         + beta cos^2(theta)/sin^2(theta)
                                         + gamma / cos^2(theta)]

on the upper half-space, together with independent finite-difference and
quadrature oracles that validate every closed form numerically.
"""

from . import model, oracle, propagator, specfun, spectrum, verify  # noqa: F401  (loaded on import)
from .model import PotentialParams, QuantumNumbers
from .verify import run_check

__version__ = "0.1.0"

__all__ = ["__version__", "PotentialParams", "QuantumNumbers", "run_check"]
