"""The benchmark's workloads: inputs drawn from the seed, the operations of
one round, and the check on each operation's output.

Every round of a run repeats the same operations on the same inputs; the
seed only chooses those inputs. Couplings are drawn one per stratum of
their range (a Latin hypercube), so that the work in a round, which
depends on the couplings, changes little from seed to seed.

Program calls go through module attributes (`nc.propagator.radial_...`)
at call time, so the traced run sees them once its wrappers are installed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from reference import Phys


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    # returns None when the output is right, else what is wrong with it
    check: Callable[[object], str | None]
    # (exception type, function raising it) of a known program fault that
    # makes this operation fail in every round
    known_fault: tuple[type, str] | None = None


@dataclass
class Workload:
    ops: list[Op]
    # run once, before the timed rounds; each returns None or a failure
    spot_checks: list[Callable[[], str | None]]
    warmup_round: bool


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi), one in each of n equal strata, in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _couplings(rng: np.random.Generator, n: int, alpha, beta, gamma) -> list[Phys]:
    a, b, g = (_strata(rng, n, lo, hi) for lo, hi in (alpha, beta, gamma))
    return [Phys(alpha=float(x), beta=float(y), gamma=float(z)) for x, y, z in zip(a, b, g)]


def _params(nc, ph: Phys):
    return nc.PotentialParams(**dataclasses.asdict(ph))


def _run_cli(nc, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = nc.cli.main(argv)
    return rc, buf.getvalue()


def _coupling_flags(ph: Phys) -> list[str]:
    # '=' keeps negative values from reading as flags
    return [f"--alpha={ph.alpha!r}", f"--beta={ph.beta!r}", f"--gamma={ph.gamma!r}"]


def _rel_err(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# ----------------------------------------------------------------- verify-all

# the 30 checks of `ncosc verify --suite all`, one operation each
VERIFY_CHECKS = (
    ("specfun", ("laguerre-reference", "jacobi-reference", "bessel-reference", "bessel-recurrence",
                 "gamma-identity", "short-time-asymptotic", "batch-consistency")),
    ("spectrum", ("degenerate-limit", "gram-identity", "angular-orthonormality",
                  "radial-orthonormality", "enumeration-order", "norm-round-trip")),
    ("oracle", ("radial-spectrum-agreement", "angular-spectrum-agreement", "fd-convergence-order",
                "richardson-gain", "variational-bound", "quadrature-reference")),
    ("propagator", ("closed-vs-spectral", "hille-hardy", "quartic-moment", "lattice-accuracy",
                    "lattice-order", "trace-consistency", "semigroup", "kernel-symmetries",
                    "angular-filtering", "tail-bound-honesty", "lattice-short-time")),
)


def verify_all(nc, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    checks = [(suite, name) for suite, names in VERIFY_CHECKS for name in names]
    ops = []
    for i in rng.permutation(len(checks)):
        suite, name = checks[i]

        def check(res, suite=suite, name=name):
            if (res.suite, res.name) != (suite, name):
                return f"asked for {suite}/{name}, got {res.suite}/{res.name}"
            if not res.passed:
                return f"{suite}/{name}: observed {res.observed:.3e} > tolerance {res.tolerance:.3e}"
            return None

        ops.append(Op(f"{suite}/{name}", lambda s=suite, n=name: nc.verify.run_check(s, n), check))

    def fd_ladder():
        # FD radial eigenvalues of one drawn sector against the paper formula
        ph = Phys(alpha=float(rng.uniform(0, 2)), beta=float(rng.uniform(0, 0.5)),
                  gamma=float(rng.uniform(0, 2)))
        n_theta, m = int(rng.integers(0, 3)), int(rng.integers(-2, 3))
        p = _params(nc, ph)
        eigs = nc.oracle.radial_eigenvalues_fd(p, n_theta, m, nc.oracle.default_radial_grid(p, 4000), 4)
        ell = ref.ell_tilde(ph, n_theta, m)
        want = np.array([ref.energy(ph, n, ell) for n in range(4)])
        err = float(np.max(np.abs(eigs / want - 1)))
        return None if err <= 1e-6 else f"FD eigenvalues off the ladder by {err:.3e} relative ({ph}, {n_theta}, {m})"

    def lattice_kernel():
        # a 16-slice lattice kernel at grid nodes against the log-space closed kernel
        ph = Phys(alpha=float(rng.uniform(0, 1)), beta=float(rng.uniform(0, 0.5)),
                  gamma=float(rng.uniform(0, 1)))
        spec = nc.propagator.LatticeSpec(n_slices=16, r_min=0.02, r_max=8.0, n_grid=400)
        grid, kern = nc.propagator.lattice_kernel_grid(_params(nc, ph), 0, 0, 0.5, spec)
        nodes = rng.integers(25, 100, size=(8, 2))  # r in [0.5, 2.0]
        ell = ref.ell_tilde(ph, 0, 0)
        want = np.exp(ref.log_radial_kernel(ph, ell, grid[nodes[:, 0]], grid[nodes[:, 1]], 0.5))
        err = float(np.max(np.abs(kern[nodes[:, 0], nodes[:, 1]] / want - 1)))
        return None if err <= 1e-3 else f"16-slice lattice kernel off by {err:.3e} relative ({ph})"

    return Workload(ops, [fd_ladder, lattice_kernel], warmup_round=False)


# ---------------------------------------------------------------- kernel-grid

MAP_TAUS = (0.1, 0.25, 0.5, 1.0, 2.0)
MAPS_PER_TAU = 8
MAP_GRID = 12            # endpoints per side of each closed-kernel map
MAP_R = (0.2, 3.0)
SPECTRAL_POINTS = 2      # per map with tau >= 0.5
SPECTRAL_N_CUT = 80
PAIRS_3D = 3
TAUS_3D = (0.5, 0.8, 1.2)
CUTS_3D = (25, 8, 6)     # n_cut, ntheta_cut, m_cut
# (ra, rb, tau) in the (0, 0) sector at zero couplings; radial_kernel_closed
# raises OverflowError at both although the kernel itself fits in a float
# (0.98230 and 0.42376): only the intermediate I_{ell+1/2} overflows
SHORT_TIME = ((3.0, 3.0, 2e-3), (3.0, 3.0, 1e-2))
KERNEL_COUPLINGS = ((0.0, 3.0), (0.0, 2.0), (0.0, 3.0))  # every sector admissible


def kernel_grid(nc, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    prop = nc.propagator
    units: list[list[Op]] = []

    n_maps = MAPS_PER_TAU * len(MAP_TAUS)
    taus = np.repeat(MAP_TAUS, MAPS_PER_TAU)[rng.permutation(n_maps)]
    for ph, tau in zip(_couplings(rng, n_maps, *KERNEL_COUPLINGS), taus):
        tau = float(tau)
        n_theta, m = int(rng.integers(0, 4)), int(rng.integers(-3, 4))
        ra = [float(x) for x in np.sort(rng.uniform(*MAP_R, MAP_GRID))]
        rb = [float(x) for x in np.sort(rng.uniform(*MAP_R, MAP_GRID))]
        subset = []
        if tau >= 0.5:
            flat = rng.choice(MAP_GRID * MAP_GRID, SPECTRAL_POINTS, replace=False)
            subset = [divmod(int(k), MAP_GRID) for k in flat]
        want = np.exp(ref.log_radial_kernel(ph, ref.ell_tilde(ph, n_theta, m),
                                            np.array(ra)[:, None], np.array(rb)[None, :], tau))
        p = _params(nc, ph)

        def call(p=p, n_theta=n_theta, m=m, ra=ra, rb=rb, tau=tau, subset=subset):
            closed = [[prop.radial_kernel_closed(p, n_theta, m, a, b, tau) for b in rb] for a in ra]
            spectral = [prop.radial_kernel_spectral(p, n_theta, m, ra[i], rb[j], tau, SPECTRAL_N_CUT)
                        for i, j in subset]
            return closed, spectral

        def check(out, want=want, subset=subset):
            closed, spectral = np.array(out[0]), out[1]
            err = float(np.max(np.abs(closed / want - 1)))
            if not err <= 1e-10:
                return f"closed kernel off the log-space reference by {err:.3e} relative"
            for (i, j), s in zip(subset, spectral):
                gap = abs(s.value - closed[i, j])
                if not gap <= s.tail_bound + 1e-10 * abs(closed[i, j]):
                    return f"spectral sum off the closed kernel by {gap:.3e} > tail bound {s.tail_bound:.3e}"
            return None

        units.append([Op("closed-map", call, check)])

    for k, ph in enumerate(_couplings(rng, PAIRS_3D, *KERNEL_COUPLINGS)):
        r_ab = rng.uniform(0.5, 2.0, 2)
        th_ab = rng.uniform(0.2, 1.35, 2)
        phi_ab = rng.uniform(0.0, 2 * math.pi, 2)
        tau = TAUS_3D[k % len(TAUS_3D)]
        cuts = dict(zip(("n_cut", "ntheta_cut", "m_cut"), CUTS_3D))
        q_ab = prop.PropagatorQuery(float(r_ab[0]), float(r_ab[1]), float(th_ab[0]), float(th_ab[1]),
                                    float(phi_ab[0]), float(phi_ab[1]), tau, **cuts)
        q_ba = prop.PropagatorQuery(q_ab.rb, q_ab.ra, q_ab.theta_b, q_ab.theta_a, q_ab.phi_b, q_ab.phi_a,
                                    tau, **cuts)
        p = _params(nc, ph)
        first: dict[str, complex] = {}

        def check_ab(val, first=first):
            first["ab"] = val
            return None if math.isfinite(abs(val)) and val != 0 else f"3D kernel {val!r}"

        def check_ba(val, first=first):
            if "ab" not in first:
                return "the first query of the swapped pair failed"
            kab = first.pop("ab")
            err = abs(val - kab.conjugate()) / abs(kab)
            return None if err <= 1e-12 else f"K(b,a) differs from conj K(a,b) by {err:.3e} relative"

        units.append([Op("full-3d", lambda p=p, q=q_ab: prop.full_kernel_spectral(p, q), check_ab),
                      Op("full-3d", lambda p=p, q=q_ba: prop.full_kernel_spectral(p, q), check_ba)])

    zero = Phys()
    for ra, rb, tau in SHORT_TIME:
        want = math.exp(float(ref.log_radial_kernel(zero, ref.ell_tilde(zero, 0, 0), ra, rb, tau)))

        def check(val, want=want):
            err = abs(val / want - 1)
            return None if err <= 1e-10 else f"short-time kernel off by {err:.3e} relative"

        units.append([Op("short-time",
                         lambda ra=ra, rb=rb, tau=tau: prop.radial_kernel_closed(
                             nc.PotentialParams(), 0, 0, ra, rb, tau),
                         check, known_fault=(OverflowError, "radial_kernel_closed"))])

    ops = [op for i in rng.permutation(len(units)) for op in units[i]]
    return Workload(ops, [], warmup_round=True)


# ------------------------------------------------------------ spectrum-tables

TABLE_COUPLINGS = ((-4.0, 3.0), (-0.9, 2.0), (-0.2, 3.0))  # inadmissible sectors occur
ENUM_E_MAX = 30.0
ENUMS = 8
CLI_E_MAX = 20.0
CLI_TABLES = 3           # per format
# every (n, n_theta) with n < 4 and n_theta < 4 once, since the cost of a
# wave function grows with both; the seed draws m and the couplings
WF_DEGREES = [(n, n_theta) for n in range(4) for n_theta in range(4)]
CLI_WF_DEGREES = ((0, 0), (1, 1), (2, 2), (3, 3), (4, 0), (5, 1))
WF_M = 4
WF_GRID = (24, 16, 12)   # r, theta, phi samples of each full_wavefunction call


def _draw_m(rng: np.random.Generator, ph: Phys, n_theta: int) -> int:
    """|m| <= WF_M of an admissible sector; |m| = 4 always is one here."""
    while True:
        m = int(rng.integers(-WF_M, WF_M + 1))
        if ref.ell_tilde(ph, n_theta, m) is not None:
            return m


def _cli_check(content: Callable[[str], str | None]) -> Callable[[tuple[int, str]], str | None]:
    """Exit code 0, and output byte-identical to the first call's; the
    content check runs on the first output and holds for its repeats."""
    first: dict[str, object] = {}

    def check(out: tuple[int, str]) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        if not first:
            first.update(text=text, verdict=content(text))
        elif text != first["text"]:
            return "--no-timestamp output changed between calls"
        return first["verdict"]

    return check


def _table_rows(text: str, fmt: str) -> list[tuple[int, int, int, float]]:
    if fmt == "json":
        return [(r["n"], r["n_theta"], r["m"], r["energy"]) for r in json.loads(text)["rows"]]
    rows = [ln.split(",") for ln in text.splitlines() if ln[:1].isdigit()]
    return [(int(f[0]), int(f[1]), int(f[2]), float(f[-1])) for f in rows]


def _state_errors(got: list[tuple[int, int, int, float]], want: dict) -> str | None:
    """The listed states against the brute-force set: same states, none
    twice, ascending energy, energies to 1e-12."""
    energies = [e for *_, e in got]
    if any(b < a for a, b in zip(energies, energies[1:])):
        return "states not in ascending energy"
    keys = [q for *q, _ in got]
    qs = {tuple(q) for q in keys}
    if len(qs) != len(keys):
        return "a state is listed twice"
    if qs != set(want):
        return f"{len(set(want) - qs)} states missing, {len(qs - set(want))} extra"
    err = max((abs(e - want[tuple(q)]) / max(1.0, abs(e)) for *q, e in got), default=0.0)
    return None if err <= 1e-12 else f"energy off the paper formula by {err:.3e}"


def spectrum_tables(nc, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    spec = nc.spectrum
    ops = []

    for ph in _couplings(rng, ENUMS, *TABLE_COUPLINGS):
        want = ref.states_below(ph, ENUM_E_MAX)
        p, m_max = _params(nc, ph), ref.box_bound(ph, ENUM_E_MAX)

        def check(states, want=want):
            return _state_errors([(s.qn.n, s.qn.n_theta, s.qn.m, s.energy) for s in states], want)

        ops.append(Op("enumerate", lambda p=p, m_max=m_max: spec.enumerate_states(p, ENUM_E_MAX, m_max),
                      check))

    for fmt in ("csv", "json"):
        for ph in _couplings(rng, CLI_TABLES, *TABLE_COUPLINGS):
            argv = ["spectrum", f"--emax={CLI_E_MAX!r}", *_coupling_flags(ph), f"--format={fmt}",
                    "--no-timestamp"]
            want = ref.states_below(ph, CLI_E_MAX)

            def content(text, want=want, fmt=fmt):
                return _state_errors(_table_rows(text, fmt), want)

            ops.append(Op(f"cli-spectrum-{fmt}", lambda argv=argv: _run_cli(nc, argv), _cli_check(content)))

    n_r, n_t, n_p = WF_GRID
    for ph, (n, n_theta) in zip(_couplings(rng, len(WF_DEGREES), *TABLE_COUPLINGS), WF_DEGREES):
        m = _draw_m(rng, ph, n_theta)
        r = np.sort(rng.uniform(0.05, 4.5, n_r))[:, None, None]
        th = np.sort(rng.uniform(0.02, math.pi / 2 - 0.02, n_t))[None, :, None]
        phi = rng.uniform(0.0, 2 * math.pi, n_p)[None, None, :]
        want = ref.wavefunction(ph, n, n_theta, m, r, th, phi)
        qn, p = nc.QuantumNumbers(n, n_theta, m), _params(nc, ph)

        def check(psi, want=want):
            err = _rel_err(psi, want)
            return None if err <= 1e-10 else f"wave function off the paper formula by {err:.3e}"

        ops.append(Op("wavefunction",
                      lambda p=p, qn=qn, r=r, th=th, phi=phi: spec.full_wavefunction(p, qn, r, th, phi),
                      check))

    for ph, (n, n_theta) in zip(_couplings(rng, len(CLI_WF_DEGREES), *TABLE_COUPLINGS), CLI_WF_DEGREES):
        m = _draw_m(rng, ph, n_theta)
        argv = ["wavefunction", f"--n={n}", f"--ntheta={n_theta}", f"--m={m}", *_coupling_flags(ph),
                "--no-timestamp"]

        def content(text, ph=ph, q=(n, n_theta, m)):
            lines = text.splitlines()
            norm = float(next(ln for ln in lines if ln.startswith("# norm ")).split()[-1])
            if not abs(norm - 1) <= 1e-8:
                return f"reported norm {norm!r} is not 1 to 1e-8"
            rows = np.array([[float(f) for f in ln.split(",")] for ln in lines if ln[:1].isdigit()])
            want = ref.wavefunction(ph, *q, rows[:, 0], rows[:, 1], rows[:, 2])
            err = _rel_err(rows[:, 3] + 1j * rows[:, 4], want)
            return None if err <= 1e-10 else f"printed wave function off by {err:.3e}"

        ops.append(Op("cli-wavefunction", lambda argv=argv: _run_cli(nc, argv), _cli_check(content)))

    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops, [], warmup_round=True)


WORKLOADS = {"verify-all": verify_all, "kernel-grid": kernel_grid, "spectrum-tables": spectrum_tables}
