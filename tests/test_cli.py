"""Command-line surface: artifact layout, exit codes, config handling.

Most cases drive cli.main() in process. One case runs the console-script
entry point declared in pyproject.toml in a separate process, the way the
generated wrapper does, and checks it and `python -m ncosc` against
`python -m ncosc.cli`; where an installed `ncosc` executable is on PATH, that
is checked too.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncosc
from ncosc import cli
from ncosc.model import PotentialParams, QuantumNumbers, admissible_ell
from ncosc.spectrum import energy, enumerate_states, full_wavefunction

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# what pip's generated console-script wrapper does, given the script name and
# the entry-point spec as the first two arguments
WRAPPER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "name, spec = sys.argv[1:3]\n"
    "sys.argv[:3] = [name]\n"
    "sys.exit(EntryPoint(name, spec, 'console_scripts').load()())\n"
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------- spectrum

def test_spectrum_ground_state_and_ordering(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--emax", "6", "--no-timestamp")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "n,n_theta,m,lambda,k,ell_tilde,energy"
    assert rows[0] == ["0", "0", "0", "0", "0.5", "1", "2.5"]
    energies = [float(r[-1]) for r in rows]
    assert energies == sorted(energies)
    assert all(e <= 6.0 for e in energies)


def test_spectrum_deterministic_output(capsys):
    args = ("spectrum", "--emax", "7", "--alpha", "1", "--no-timestamp")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert "# generated" not in first


def test_spectrum_json_mirrors_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--emax", "6", "--format", "json",
                           "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert "generated" not in payload
    _, rows = csv_rows(run_cli(capsys, "spectrum", "--emax", "6", "--no-timestamp")[1])
    assert len(payload["rows"]) == len(rows)
    assert payload["rows"][0]["energy"] == 2.5


def test_spectrum_timestamp_present_by_default(capsys):
    _, out, _ = run_cli(capsys, "spectrum", "--emax", "4")
    assert "# generated " in out


def test_spectrum_potential_shift_moves_every_level(capsys):
    # dropping the well floor by 1 with the cutoff lowered by 1 selects the
    # same states, each shifted down by exactly 1
    _, base, _ = run_cli(capsys, "spectrum", "--emax", "6", "--no-timestamp")
    _, shifted, _ = run_cli(capsys, "spectrum", "--emax", "5", "--v0", "1",
                            "--no-timestamp")
    _, rows_a = csv_rows(base)
    _, rows_b = csv_rows(shifted)
    assert len(rows_a) == len(rows_b)
    for a, b in zip(rows_a, rows_b):
        assert a[:6] == b[:6]
        assert float(b[6]) == pytest.approx(float(a[6]) - 1.0, abs=1e-15)


def test_spectrum_explicit_m_cap(capsys):
    _, out, _ = run_cli(capsys, "spectrum", "--emax", "8", "--m", "1",
                        "--no-timestamp")
    _, rows = csv_rows(out)
    assert {r[2] for r in rows} <= {"-1", "0", "1"}


def _scan_m_max(p, e_max):
    # the sector-by-sector scan the closed-form cutoff replaced: stop at the
    # first bound sector whose lowest admissible level exceeds e_max
    m = 0
    while True:
        if p.beta + m * m >= 0:
            floor = None
            for n_theta in range(200):
                try:
                    floor = energy(p, QuantumNumbers(0, n_theta, m))
                    break
                except ValueError:
                    continue
            if floor is not None and floor > e_max:
                return max(0, m - 1), floor
        m += 1


COUPLING_GRID = [
    (PotentialParams(alpha=a, beta=b, gamma=g), e_max)
    for a in (-2.0, -0.5, 0.0, 1.5)
    for b in (-3.0, -0.5, 0.0, 0.5, 4.0)
    for g in (-0.2, 0.0, 2.0)
    for e_max in (1.0, 3.0, 6.0, 15.0)
]


def test_derived_m_cap_matches_scan_where_floor_is_monotone():
    # where n_theta = 0 is admissible in every bound sector up to where the
    # scan stops, the sector floor is the closed-form bound and rises with |m|
    compared = 0
    for p, e_max in COUPLING_GRID:
        m_scan, _ = _scan_m_max(p, e_max)
        m_low = math.ceil(math.sqrt(max(-p.beta, 0.0)))
        if any(admissible_ell(p, 0, m) is None for m in range(m_low, m_scan + 2)):
            continue
        assert cli._derive_m_max(p, e_max) == m_scan, (p, e_max)
        compared += 1
    assert compared >= len(COUPLING_GRID) // 2


def test_derived_m_cap_keeps_every_state():
    # beta just below -4: sqrt(-beta) rounds to 2, yet beta + 4 < 0
    for p, e_max in COUPLING_GRID + [(PotentialParams(beta=-4.000000000000001), 8.0)]:
        m_max = cli._derive_m_max(p, e_max)
        wider = enumerate_states(p, e_max=e_max, m_max=m_max + 8)
        assert all(abs(s.qn.m) <= m_max for s in wider), (p, e_max)


def test_spectrum_strong_attraction_lists_every_state(capsys):
    # at alpha = -1e4 the lowest admissible n_theta falls with |m|, so the
    # sector floor is not monotone; m = 0 alone has no state below 15
    code, out, _ = run_cli(capsys, "spectrum", "--alpha=-1e4", "--emax", "15", "--no-timestamp")
    assert code == 0
    m_max = int(out.split("mmax=")[1].split()[0])
    _, rows = csv_rows(out)
    assert {int(r[2]) for r in rows} >= {-5, -3, -1, 1, 3, 5}
    assert float(rows[0][-1]) == pytest.approx(11.0125, abs=1e-4)
    p = PotentialParams(alpha=-1e4)
    want = enumerate_states(p, e_max=15.0, m_max=m_max + 50)
    assert len(rows) == len(want)
    assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == [
        (s.qn.n, s.qn.n_theta, s.qn.m) for s in want
    ]


def test_spectrum_extreme_attraction_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "spectrum", "--alpha=-1e8", "--emax", "15", "--no-timestamp")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    # half-integer bases put every level at or above E = 101
    assert csv_rows(out)[1] == []


def test_spectrum_huge_explicit_m_cap_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "spectrum", "--emax", "3", "--m", "1000000000", "--no-timestamp")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert csv_rows(out)[1] == [["0", "0", "0", "0", "0.5", "1", "2.5"]]


def test_spectrum_cutoff_past_scan_limit_asks_for_m(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--emax", "1e6", "--no-timestamp")
    assert code == 2
    assert "pass --m" in err


# `ncosc spectrum <args> --no-timestamp [--format json]` as printed before
# the sector maps were gathered into model.py; the tables depend only on
# admissibility and energies
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_ARGS = {
    "default": [],
    "coupled": ["--alpha", "1", "--beta", "0.5", "--gamma", "2", "--emax", "12"],
    "inadmissible": ["--alpha=-2", "--beta=-0.5", "--gamma=-0.2", "--emax", "6"],
    "attractive": ["--alpha=-1e4", "--emax", "15"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
@pytest.mark.filterwarnings("error")
def test_spectrum_matches_golden_table(capsys, name, fmt):
    code, out, _ = run_cli(capsys, "spectrum", *GOLDEN_ARGS[name], "--format", fmt, "--no-timestamp")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"spectrum_{name}.{fmt}").read_bytes()


def test_spectrum_rejects_fall_to_center(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--gamma", "-0.3")
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------ wavefunction

WAVEFUNCTION_GOLDEN_ARGS = {
    "default": [],
    "coupled": ["--n", "3", "--ntheta", "2", "--m", "1", "--alpha", "1", "--beta", "0.5", "--gamma", "2"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(WAVEFUNCTION_GOLDEN_ARGS))
@pytest.mark.filterwarnings("error")
def test_wavefunction_matches_golden_table(capsys, name, fmt):
    code, out, _ = run_cli(capsys, "wavefunction", *WAVEFUNCTION_GOLDEN_ARGS[name], "--format", fmt,
                           "--no-timestamp")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"wavefunction_{name}.{fmt}").read_bytes()


def test_wavefunction_with_one_point_exits_2(capsys):
    code, out, err = run_cli(capsys, "wavefunction", "--points", "1", "--no-timestamp")
    assert (code, out, err) == (2, "", "error: --points must be >= 2, got 1\n")


def test_wavefunction_norm_and_phase_structure(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--n", "0", "--ntheta", "0",
                           "--m", "1", "--beta", "0.5", "--format", "json",
                           "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm"] == pytest.approx(1.0, abs=1e-6)
    # |psi| must not depend on phi
    by_angle = {}
    for row in payload["rows"]:
        mag = abs(complex(row["re_psi"], row["im_psi"]))
        by_angle.setdefault((row["r"], row["theta"]), []).append(mag)
    for mags in by_angle.values():
        assert max(mags) - min(mags) <= 1e-15 * max(mags)


def test_wavefunction_radial_node_count(capsys):
    code, out, _ = run_cli(capsys, "wavefunction", "--n", "2", "--points", "64",
                           "--ra", "0.05", "--rb", "6", "--no-timestamp")
    assert code == 0
    _, rows = csv_rows(out)
    slice_ = [float(r[3]) for r in rows if r[1] == rows[0][1] and r[2] == rows[0][2]]
    signs = [v > 0 for v in slice_]
    assert sum(a != b for a, b in zip(signs, signs[1:])) == 2


@pytest.mark.parametrize("argv", [["--n", "40"], ["--n", "40", "--ntheta", "5", "--m", "7", "--alpha", "3"]])
def test_wavefunction_norm_of_states_reaching_past_twelve_lengths(capsys, argv):
    # outer turning points at 12.8 and 14.1 oscillator lengths: the norm
    # quadrature must reach past them, not stop at a fixed 12
    code, out, _ = run_cli(capsys, "wavefunction", *argv, "--format", "json", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["norm"] == pytest.approx(1.0, abs=1e-12)


def test_wavefunction_norm_at_n_250(capsys):
    # the quadrature reaches x = 1421; the running-sum norm holds to 1.8e-15
    # there, where a norm from one lgamma per degree was 6.0e-14 off
    code, out, _ = run_cli(capsys, "wavefunction", "--n", "250", "--points", "2", "--format", "json",
                           "--no-timestamp")
    assert code == 0
    assert json.loads(out)["norm"] == pytest.approx(1.0, abs=1e-14)


def test_wavefunction_past_the_laguerre_float_range_exits_2(capsys):
    # the norm quadrature reaches x = 1657, where L_300 overflows: an error
    # line and exit 2, not a RuntimeError traceback from a nan integrand
    code, out, err = run_cli(capsys, "wavefunction", "--n", "300", "--no-timestamp")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "beyond the float range" in err


@pytest.mark.parametrize("argv, reason", [
    # lam = 1000: P_300(cos 2 theta) overflows at the smallest grid angle
    (["--m", "1000", "--ntheta", "300"], "a Jacobi polynomial"),
    # ell_tilde past about 313: the radial norm underflows while the envelope
    # overflows, and the norm quadrature used to stall on a nan integrand
    (["--m", "330"], "the integrand is not finite"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wavefunction_outside_the_float_range_exits_2(capsys, argv, reason):
    code, out, err = run_cli(capsys, "wavefunction", *argv, "--no-timestamp")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and reason in err and "Traceback" not in err


def test_wavefunction_overflow_at_the_far_radii_prints_no_rows(capsys):
    # psi comes a block of radii at a time; L_150 overflows only in the last
    # of the four blocks (r past about 72), which is evaluated before the head
    code, out, err = run_cli(capsys, "wavefunction", "--n", "150", "--points", "200", "--rb", "100", "--no-timestamp")
    assert (code, out) == (2, "")
    assert err.startswith("error: a Laguerre polynomial") and "Traceback" not in err


def test_wavefunction_rejects_infinite_radial_range(capsys):
    code, out, err = run_cli(capsys, "wavefunction", "--rb", "inf", "--no-timestamp")
    assert (code, out) == (2, "")
    assert "0 < ra < rb < inf, got (0.1, inf)" in err


def test_wavefunction_rejects_inadmissible_sector(capsys):
    code, _, err = run_cli(capsys, "wavefunction", "--beta", "-2", "--m", "1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wavefunction_rows_equal_the_table_of_plain_floats(capsys, fmt):
    # 70 radii fill two row blocks (56 and 14 radii); Theta of n_theta = 1
    # changes sign, so re_psi has a negative lobe, and at m = 0 im_psi is 0
    code, out, _ = run_cli(capsys, "wavefunction", "--points", "70", "--m", "0", "--ntheta", "1",
                           "--format", fmt, "--no-timestamp")
    assert code == 0
    p = PotentialParams()
    sigma = math.sqrt(p.hbar / (p.mu * p.omega))
    grid = (np.linspace(0.1 * sigma, 5.0 * sigma, 70)[:, None, None],
            (math.pi / 2 * np.arange(1, 10) / 10.0)[None, :, None], (2 * math.pi * np.arange(8) / 8.0)[None, None, :])
    psi = full_wavefunction(p, QuantumNumbers(0, 1, 0), *grid)
    rows = list(zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*grid, psi.real, psi.imag))))
    assert min(row[3] for row in rows) < 0 < max(row[3] for row in rows)
    assert {row[4] for row in rows} == {0.0}
    want = _reference_table(fmt, ["r", "theta", "phi", "re_psi", "im_psi"], rows, [], {})
    assert out.endswith("\n" + want if fmt == "csv" else want[want.index('  "rows": ['):])


def test_wavefunction_working_set_does_not_grow_with_points():
    # psi is evaluated 56 radii at a time: at 2000 points the peak stays
    # within 2 MB of the 16-point one, about 1 MB of it one _BLOCK of CSV
    # lines; psi of the whole grid, 2000 x 72 complex values and a product
    # of the same size, took the peak 3.8 MB above it
    def peak(points):
        tracemalloc.start()
        try:
            assert cli.main(["wavefunction", "--points", str(points), "--output", os.devnull]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # first-call caches
    assert peak(2000) - peak(16) < 2_000_000


def test_wavefunction_energy_matches_spectrum_row(capsys):
    _, table, _ = run_cli(capsys, "spectrum", "--emax", "8", "--alpha", "1",
                          "--beta", "0.5", "--gamma", "2", "--no-timestamp")
    _, rows = csv_rows(table)
    n, nt, m = rows[3][0], rows[3][1], rows[3][2]
    _, out, _ = run_cli(capsys, "wavefunction", "--n", n, "--ntheta", nt,
                        "--m", m, "--alpha", "1", "--beta", "0.5",
                        "--gamma", "2", "--format", "json", "--no-timestamp")
    payload = json.loads(out)
    assert payload["state"]["energy"] == float(rows[3][6])


# -------------------------------------------------------------- propagator

def test_propagator_routes_agree_at_defaults(capsys):
    code, out, _ = run_cli(capsys, "propagator", "--format", "json",
                           "--no-timestamp")
    assert code == 0
    vals = {row["quantity"]: row["value"] for row in json.loads(out)["rows"]}
    assert vals["rel_diff_spectral_vs_closed"] <= 1e-8


def test_propagator_lattice_route(capsys):
    code, out, _ = run_cli(capsys, "propagator", "--lattice", "--slices", "64",
                           "--ra", "0.8", "--rb", "1.2", "--tau", "0.5",
                           "--format", "json", "--no-timestamp")
    assert code == 0
    vals = {row["quantity"]: row["value"] for row in json.loads(out)["rows"]}
    assert vals["rel_diff_lattice_vs_closed"] <= 1e-3


# `ncosc propagator <args> --no-timestamp [--format json]` with the closed
# kernel on scipy's compiled ive; the short-time query needs more than the
# default 60 spectral terms and exits 3, its table printed all the same
PROPAGATOR_GOLDEN_ARGS = {
    "default": ([], 0),
    "coupled": (["--alpha", "1", "--beta", "0.5", "--gamma", "2"], 0),
    "short": (["--tau", "1e-3", "--ra", "2", "--rb", "2.1"], 3),
    "lattice": (["--lattice"], 0),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(PROPAGATOR_GOLDEN_ARGS))
@pytest.mark.filterwarnings("error")
def test_propagator_matches_golden_table(capsys, name, fmt):
    argv, want_code = PROPAGATOR_GOLDEN_ARGS[name]
    code, out, _ = run_cli(capsys, "propagator", *argv, "--format", fmt, "--no-timestamp")
    assert code == want_code
    assert out.encode("utf-8") == (GOLDEN / f"propagator_{name}.{fmt}").read_bytes()


def test_propagator_rejects_zero_time(capsys):
    code, _, err = run_cli(capsys, "propagator", "--tau", "0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [["--tau", "300"], ["--tau", "2000"], ["--tau", "400", "--ra", "30", "--rb", "0.01"]])
def test_propagator_with_underflowed_kernel_reports_zero_difference(capsys, argv):
    # the closed kernel and the spectral sum both underflow to 0.0 here
    code, out, err = run_cli(capsys, "propagator", *argv, "--no-timestamp")
    assert (code, err) == (0, "")
    vals = dict(csv_rows(out)[1])
    assert vals["closed"] == vals["spectral"] == vals["rel_diff_spectral_vs_closed"] == "0"


@pytest.mark.parametrize("argv", [
    ["propagator", "--tau", "1e-3", "--ra", "2", "--rb", "2.1", "--tol", "nan"],
    ["propagator", "--lattice", "--slices", "4", "--lattice-tol", "nan"],
    ["verify", "--suite", "specfun", "--tol-scale", "nan"],
])
def test_nan_tolerance_is_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert (code, out) == (2, "")
    assert f"error: {argv[-2]} must be >= 0, got nan" in err


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--m", "-1"], "m_max must be >= 0, got -1"),
    (["propagator", "--n", "0"], "n_cut must be >= 1, got 0"),
])
def test_cutoff_below_its_floor_exits_2(capsys, argv, message):
    # the library's own check, reached through the CLI, names the bound and the value
    code, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_propagator_where_ive_underflows_at_large_order_exits_0(capsys):
    # nu = 40001.5 at x = 8.5e5: ive underflows, and the uniform expansion
    # gives a kernel of about e^-4.6e5, which rounds to 0 on both routes
    code, out, err = run_cli(capsys, "propagator", "--m", "40000", "--ra", "1000", "--rb", "1000",
                             "--tau", "1", "--no-timestamp")
    assert (code, err) == (0, "")
    assert "closed,0\n" in out


def test_propagator_reports_unreached_tolerance(capsys):
    code, out, err = run_cli(capsys, "propagator", "--n", "5", "--tol", "1e-15",
                             "--no-timestamp")
    assert code == 3
    assert "raise the spectral cutoff above --n 5" in err
    assert "closed" in out  # artifact still emitted


# ------------------------------------------------------------------ verify

def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "specfun",
                           "--no-timestamp")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "suite,check,passed,observed,tolerance"
    assert len(rows) >= 5
    assert all(r[2] == "true" for r in rows)
    assert "# passed" in out


@pytest.mark.filterwarnings("error")
def test_verify_all_matches_golden_table(capsys):
    # `ncosc verify --suite all --no-timestamp`: every observed value of the
    # 30 checks, to 17 digits
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--no-timestamp")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "verify_all.csv").read_bytes()


def test_verify_timings_are_opt_in(capsys):
    # without --timings the JSON rows keep their five keys (the CSV header
    # is pinned by test_verify_suite_passes)
    code, out, _ = run_cli(capsys, "verify", "--suite", "specfun", "--no-timestamp", "--format", "json")
    assert all(list(r) == ["suite", "check", "passed", "observed", "tolerance"]
               for r in json.loads(out)["rows"])


def test_verify_timings_report_seconds_margin_and_detail(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "specfun", "--no-timestamp", "--timings")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "suite,check,passed,observed,tolerance,seconds,margin"
    assert len(rows) == 7
    for r in rows:
        observed, tolerance, seconds, margin = map(float, r[3:])
        assert 0 < seconds < 60
        assert margin == observed / tolerance
    code, out, _ = run_cli(capsys, "verify", "--suite", "specfun", "--no-timestamp", "--timings",
                           "--format", "json")
    rows = json.loads(out)["rows"]
    assert [r["check"] for r in rows][0] == "laguerre-reference"
    for r in rows:
        assert r["seconds"] > 0
        assert r["margin"] == r["observed"] / r["tolerance"]
        assert r["margin"] <= 1.0 and r["passed"]
    assert rows[0]["detail"] == "generalized Laguerre vs scipy on n<=12, fractional orders"
    # a zero tolerance met exactly has margin 0, missed has margin inf
    code, out, _ = run_cli(capsys, "verify", "--suite", "spectrum", "--no-timestamp", "--timings",
                           "--tol-scale", "0")
    _, rows = csv_rows(out)
    by_name = {r[1]: r for r in rows}
    assert by_name["degenerate-limit"][2:4] == ["true", "0"] and by_name["degenerate-limit"][6] == "0"
    assert by_name["gram-identity"][2] == "false" and by_name["gram-identity"][6] == "inf"
    # JSON has no inf: a missed zero tolerance reads null there
    code, out, _ = run_cli(capsys, "verify", "--suite", "spectrum", "--no-timestamp", "--timings",
                           "--tol-scale", "0", "--format", "json")
    margins = {r["check"]: r["margin"] for r in json.loads(out)["rows"]}
    assert margins["degenerate-limit"] == 0 and margins["gram-identity"] is None


@pytest.mark.parametrize("argv", [
    ["propagator", "--lattice", "--tau", "0.5", "--ra", "0.8", "--rb", "1.2"],
    ["verify", "--suite", "specfun"],
    ["spectrum", "--m", "0", "--emax", "300"],
])
def test_csv_and_json_carry_the_same_rows(capsys, argv):
    code_csv, csv_out, _ = run_cli(capsys, *argv, "--no-timestamp")
    code_json, json_out, _ = run_cli(capsys, *argv, "--no-timestamp", "--format", "json")
    assert code_csv == code_json == 0
    header, csv_table = csv_rows(csv_out)
    json_table = json.loads(json_out)["rows"]
    assert [list(row) for row in json_table] == [header.split(",")] * len(csv_table)
    for cells, row in zip(csv_table, json_table):
        for cell, value in zip(cells, row.values()):
            if isinstance(value, bool):
                assert cell == str(value).lower()
            elif isinstance(value, (int, float)):
                assert float(cell) == value
            else:
                assert cell == value


def test_verify_fails_under_zero_tolerance(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "specfun",
                         "--tol-scale", "0")
    assert code == 1


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------------ readme

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("command", ["spectrum", "propagator", "verify"])
def test_readme_example_matches_the_cli(capsys, command):
    # each "$ ncosc ... --no-timestamp" block of the README, as far as it
    # shows the output (up to a "..." line)
    blocks = re.findall(r"^\$ ncosc ([^\n]*--no-timestamp)\n(.*?)^```", README.read_text(), re.M | re.S)
    examples = {cmd.split()[0]: (cmd.split(), shown.splitlines()) for cmd, shown in blocks}
    argv, shown = examples[command]
    shown = list(itertools.takewhile(lambda line: line != "...", shown))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[:len(shown)] == shown


# ------------------------------------------------------------------ config

def test_config_supplies_and_cli_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# shared settings\nemax = 4\nalpha = 1\nno-timestamp = true\n")
    _, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert "# generated" not in out
    _, rows = csv_rows(out)
    assert all(float(r[6]) <= 4.0 for r in rows)
    # explicit flag beats the file
    _, out2, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--emax", "6")
    _, rows2 = csv_rows(out2)
    assert len(rows2) > len(rows)


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("emaxx = 4\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", str(cfg)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_config_file_cannot_name_another(tmp_path, capsys):
    # --config is read before the full parse, so a config= line is an
    # unknown key like any other rather than a silently ignored one
    cfg = tmp_path / "nested.cfg"
    cfg.write_text("config = /nonexistent.cfg\nemax = 3\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("key", ["help", "hel", "h"])
def test_config_help_key_rejected(tmp_path, capsys, command, key):
    # help = 1 would become --help 1: the help text and exit 0, nothing computed
    cfg = tmp_path / "help.cfg"
    cfg.write_text(f"# settings\n{key} = 1\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {cfg}:2: key {key} ")


@pytest.mark.parametrize("line", ["output =", "emax=  ", "format = # csv"])
def test_config_empty_value_rejected(tmp_path, capsys, line):
    # output = would become --output "", and the table would go to stdout
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"emax = 1\n{line}\n")
    code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
    key = line.split("=")[0].strip()
    assert code == 2
    assert out == ""
    assert err == f"error: {cfg}:2: key {key} has an empty value\n"


@pytest.mark.parametrize("line, message", [
    ("emax 4", "expected key=value, got 'emax 4'"),
    ("= 4", "empty key"),
    ("no-timestamp = maybe", "boolean key no-timestamp got 'maybe'"),
])
def test_config_malformed_line_rejected(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"emax = 1\n{line}\n")
    code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {cfg}:2: {message}\n")


def test_config_bool_key_off_leaves_the_flag_unset(tmp_path, capsys):
    cfg = tmp_path / "off.cfg"
    cfg.write_text("emax = 1\nno-timestamp = off\n")
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    assert out.startswith("# generated ")


def test_config_without_a_subcommand_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("emax = 1\n")
    code, out, err = run_cli(capsys, "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: --config given without a subcommand\n")


def test_bool_keys_are_the_parsers_switches():
    # a store_true flag missing from _BOOL_KEYS would read its config value as an argument
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    switches = {opt[2:] for sp in sub.choices.values() for a in sp._actions
                if isinstance(a, argparse._StoreTrueAction) for opt in a.option_strings}
    assert cli._BOOL_KEYS == switches


def test_config_missing_file(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--config", "/nonexistent/x.cfg")
    assert code == 2
    assert "error:" in err


def test_config_flag_requires_path(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--config")
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------------ output

def test_output_file_and_quiet_stdout(tmp_path, capsys):
    target = tmp_path / "levels.csv"
    code, out, _ = run_cli(capsys, "spectrum", "--emax", "5", "--output",
                           str(target), "--no-timestamp")
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# params ")
    assert "\nn,n_theta,m," in text


@pytest.mark.parametrize("argv", [
    ("spectrum", "--emax", "3"),
    ("verify", "--suite", "spectrum"),
])
def test_output_that_cannot_be_written_exits_2(tmp_path, capsys, argv):
    # exit 1 is reserved for a failed verification; an unwritable --output
    # is a usage error like an unreadable --config
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--emax", "9", "--alpha", "1", "--beta", "0.5"],
    ["wavefunction", "--n", "2", "--ntheta", "1", "--m", "1", "--points", "70"],
    ["propagator", "--lattice"],
    ["verify", "--suite", "specfun"],
])
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    target = tmp_path / "table.out"
    code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--no-timestamp")
    assert code == 0
    code, quiet, _ = run_cli(capsys, *argv, "--format", fmt, "--no-timestamp", "--output", str(target))
    assert (code, quiet) == (0, "")
    assert target.read_bytes() == out.encode("utf-8")


# ------------------------------------------------------------------ writer
# the per-cell rules every table is printed by: _cell for CSV and
# _json_value for JSON, kept here as the reference for the row templates

def _reference_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _reference_json(obj, indent: int) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(f'{pad}  "{k}": {_reference_json(v, indent + 2)}' for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_reference_json(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.17g}" if math.isfinite(obj) else "null"
    if obj is None:
        return "null"
    escaped = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _reference_table(fmt, columns, rows, comments, meta) -> str:
    if fmt == "json":
        return _reference_json({**meta, "rows": [dict(zip(columns, row)) for row in rows]}, 0) + "\n"
    lines = [*comments, ",".join(columns), *(",".join(map(_reference_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _emitted(fmt, columns, rows, comments=(), meta=None) -> str:
    args = argparse.Namespace(format=fmt, no_timestamp=True, output=None)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(args, None, list(comments), dict(meta or {}), columns, rows)
    return buf.getvalue()


SPECIAL_FLOATS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e17]
CELLS = {
    "float": st.floats() | st.sampled_from(SPECIAL_FLOATS),
    "int": st.integers() | st.sampled_from([0, -1, 10**17, -(10**30)]),
    "bool": st.booleans(),
    "str": st.text(max_size=8) | st.sampled_from(['"', "\\", 'a\\"b', "inf", "nan", "%s", "%%"]),
}
# "info" holds the letters of inf, "x%d" a % sign
COLUMN_NAMES = ["n", "energy", "x%d", "quantity", "r", "theta", "info"]


@st.composite
def tables(draw):
    columns = draw(st.lists(st.sampled_from(COLUMN_NAMES), min_size=1, max_size=4, unique=True))
    width = len(columns)
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=width, max_size=width))
    typed = st.tuples(*(CELLS[kind] for kind in kinds))
    mixed = st.tuples(*(st.one_of(*CELLS.values()) for _ in range(width)))
    return columns, draw(st.lists(typed | mixed, max_size=12))


@given(table=tables(), fmt=st.sampled_from(["csv", "json"]), block=st.sampled_from([1, 2, 5, 4096]))
@settings(max_examples=300, deadline=None)
def test_writer_matches_the_per_cell_rules(table, fmt, block):
    columns, rows = table
    comments, meta = ["# note a=1"], {"emax": 6.0, "label": 'say "hi"'}
    want = _reference_table(fmt, columns, rows, comments if fmt == "csv" else [], meta if fmt == "json" else {})
    with unittest.mock.patch.object(cli, "_BLOCK", block):
        got = _emitted(fmt, columns, (row for row in rows), comments, meta)
    assert got == want


@st.composite
def rendered_tables(draw):
    """(columns, rows, picks): float rows, some with a bool cell (and inf or
    nan from the floats), and per cell whether to hand it over pre-rendered."""
    columns = draw(st.lists(st.sampled_from(COLUMN_NAMES), min_size=1, max_size=4, unique=True))
    width = len(columns)
    floats = CELLS["float"]
    rows = draw(st.lists(st.tuples(*[floats] * width) | st.tuples(*[floats | CELLS["bool"]] * width), max_size=12))
    picks = draw(st.lists(st.lists(st.booleans(), min_size=width, max_size=width),
                          min_size=len(rows), max_size=len(rows)))
    return columns, rows, picks


@given(table=rendered_tables(), fmt=st.sampled_from(["csv", "json"]), block=st.sampled_from([1, 5, 4096]))
@settings(max_examples=300, deadline=None)
def test_writer_prints_rendered_cells_as_their_floats(table, fmt, block):
    # a finite float handed over as _Rendered(_fmt(v)) prints as v would,
    # on the template path and on the per-cell one, -0.0 included
    columns, rows, picks = table
    given_rows = [tuple(cli._Rendered(cli._fmt(v)) if pick and type(v) is float and math.isfinite(v) else v
                        for v, pick in zip(row, row_picks))
                  for row, row_picks in zip(rows, picks)]
    with unittest.mock.patch.object(cli, "_BLOCK", block):
        got = _emitted(fmt, columns, iter(given_rows))
    assert got == _reference_table(fmt, columns, rows, [], {})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_reads_rows_once_from_a_generator(fmt):
    # 10000 rows cross two block boundaries; a nan row and a bool row in
    # the middle leave the template path and come back to it
    columns = ["i", "x", "y"]
    rows = [(i, i / 7, -i) for i in range(10000)]
    rows[5000:5002] = [(5000, math.nan, 1), (5001, 0.5, True)]
    consumed = []

    def once():
        for row in rows:
            consumed.append(row)
            yield row

    got = _emitted(fmt, columns, once())
    assert consumed == rows
    assert got == _reference_table(fmt, columns, rows, [], {})
    assert _emitted(fmt, columns, iter([])) == _reference_table(fmt, columns, [], [], {})


# tables whose columns leave their own % conversion: a type change inside a
# column, a bool column, JSON column names holding the letters of inf or
# nan, and -0.0, inf and nan cells; "plain" keeps them all
BLOCK_CASES = {
    "int-then-float": (["i", "x"], [(k, 0.5 * k) for k in range(6)] + [(0.25 * k, k) for k in range(6)]),
    "bool-column": (["n", "ok"], [(k, k % 3 == 0) for k in range(12)]),
    "info-column": (["info", "y"], [(k, k / 3) for k in range(12)]),
    "nan_count-column": (["nan_count", "y"], [(k, -k / 7) for k in range(12)]),
    "special-floats": (["r", "v"], [(0.5 * k, [-0.0, math.inf, -math.inf, math.nan, 1e-300, 2.0][k % 6])
                                    for k in range(12)]),
    "plain": (["n", "r", "energy"], [(k, cli._Rendered(cli._fmt(k / 9)), k + 0.1) for k in range(12)]),
}


@pytest.mark.parametrize("block", [1, 5, 4096])
@pytest.mark.parametrize("case, fmt", [(case, fmt) for case in sorted(BLOCK_CASES) for fmt in ("csv", "json")])
def test_writer_blocks_print_as_the_per_row_rules(case, fmt, block):
    columns, rows = BLOCK_CASES[case]
    # _Rendered cells stand for the floats they print
    plain = [tuple(float(v) if type(v) is cli._Rendered else v for v in row) for row in rows]
    with unittest.mock.patch.object(cli, "_BLOCK", block):
        got = _emitted(fmt, columns, iter(rows))
    assert got == _reference_table(fmt, columns, plain, [], {})


# rows with fewer or more cells than the table has columns
MISFIT_CASES = {
    "shorter-rows": (["a", "b", "c"], [(1, 2.0, 3), (4, 5.5), (6,), (1, 2.0, 3)] * 3),
    "longer-rows": (["a", "b"], [(1, 2.0), (4, 5.5, 6), (7, 8.0, 9, 1.5)] * 4),
}


@pytest.mark.parametrize("block", [1, 5, 4096])
@pytest.mark.parametrize("case, fmt", [(case, fmt) for case in sorted(MISFIT_CASES) for fmt in ("csv", "json")])
def test_writer_refuses_rows_that_do_not_fit_the_columns(case, fmt, block):
    # neither printed as they stand nor cut to the columns
    columns, rows = MISFIT_CASES[case]
    with unittest.mock.patch.object(cli, "_BLOCK", block), pytest.raises(ValueError, match=re.escape(str(columns))):
        _emitted(fmt, columns, iter(rows))


@contextlib.contextmanager
def _per_cell_calls(limit=None):
    """Count the cells that _cell and _json_value at row indent render, and
    fail once either count passes limit."""
    calls = {"_cell": 0, "_json_value": 0}
    cell, json_value = cli._cell, cli._json_value

    def counted_cell(v):
        calls["_cell"] += 1
        assert limit is None or calls["_cell"] <= limit, "_cell rendered a row cell"
        return cell(v)

    def counted_json_value(obj, indent):
        if indent == 6:
            calls["_json_value"] += 1
            assert limit is None or calls["_json_value"] <= limit, "_json_value rendered a row cell"
        return json_value(obj, indent)

    with unittest.mock.patch.object(cli, "_cell", counted_cell), \
            unittest.mock.patch.object(cli, "_json_value", counted_json_value):
        yield calls


@pytest.mark.parametrize("argv, golden", [
    (["wavefunction", "--no-timestamp"], "wavefunction_default.csv"),
    (["spectrum", "--format", "json", "--no-timestamp"], "spectrum_default.json"),
])
def test_default_tables_are_rendered_a_block_at_a_time(capsys, argv, golden):
    # no cell of the default wavefunction and spectrum tables is rendered on its own
    with _per_cell_calls(limit=0):
        code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv, counts, golden", [
    # the bool passed column of the 30 checks, and in JSON the two str columns too
    pytest.param(["verify", "--suite", "all"], {"_cell": 30, "_json_value": 0}, "verify_all.csv", id="verify-csv"),
    pytest.param(["verify", "--suite", "all", "--format", "json"], {"_cell": 0, "_json_value": 90}, None,
                 id="verify-json"),
    # the str quantity column of the four rows
    pytest.param(["propagator", "--format", "json"], {"_cell": 0, "_json_value": 4}, "propagator_default.json",
                 id="propagator-json"),
])
def test_only_the_columns_without_a_conversion_are_rendered_per_cell(capsys, argv, counts, golden):
    with _per_cell_calls() as calls:
        code, out, _ = run_cli(capsys, *argv, "--no-timestamp")
    assert (code, calls) == (0, counts)
    if golden is not None:
        assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def _child_env() -> dict:
    # child processes import the ncosc under test, whatever the working dir
    env = dict(os.environ)
    src = str(Path(ncosc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_round_trip():
    # the declared console script must behave like `python -m ncosc.cli`
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["ncosc"] == "ncosc.cli:main"

    env = _child_env()
    args = ["spectrum", "--emax", "6", "--no-timestamp"]

    def run(cmd):
        proc = subprocess.run(cmd + args, capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout

    expected = run([sys.executable, "-m", "ncosc.cli"])
    assert expected[0] == 0
    assert expected[1].splitlines()[-1] == "1,0,1,1,0.5,2,5.5"
    assert run([sys.executable, "-c", WRAPPER, "ncosc", scripts["ncosc"]]) == expected
    assert run([sys.executable, "-m", "ncosc"]) == expected
    installed = shutil.which("ncosc")
    if installed is not None:
        assert run([installed]) == expected


def test_a_reader_that_leaves_early_ends_the_table_quietly():
    # `ncosc spectrum --emax 40 | head -1`: the table (about 110 kB) is more
    # than a pipe buffer holds, so the writer meets the closed pipe
    cmd = [sys.executable, "-m", "ncosc", "spectrum", "--emax", "40", "--no-timestamp"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()) as proc:
        assert proc.stdout.readline().startswith(b"# params ")
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")


def test_main_reuses_its_parser_without_carrying_state(capsys):
    first = ["spectrum", "--m", "3", "--emax", "8", "--no-timestamp"]
    runs = [run_cli(capsys, *argv) for argv in (first, ["wavefunction", "--n", "1", "--no-timestamp"], first)]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    assert runs[2][1].encode("utf-8") == runs[0][1].encode("utf-8")
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_main_builds_no_parser_after_its_first_call(tmp_path, capsys):
    # both the --config pre-parser and the full parser are built once per process
    config = tmp_path / "run.cfg"
    config.write_text("emax = 8\n")
    argv = ["spectrum", "--config", str(config), "--no-timestamp"]
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    with unittest.mock.patch.object(argparse, "ArgumentParser", side_effect=AssertionError("main built a parser")):
        assert run_cli(capsys, *argv) == first
