"""The check registry: every verify check is named, timed and scaled by
`run_check`, and `run_suite` runs each registered check once, grouped by
suite. No check holds much more memory than the lattice needs."""

import re
import tracemalloc

import pytest

from ncosc import propagator, spectrum
from ncosc.verify import _REGISTRY, SUITE_NAMES, run_check, run_suite


def test_run_suite_runs_each_check_once_timed_and_scaled():
    results = run_suite("all", tol_scale=0.0)
    pairs = [(r.suite, r.name) for r in results]
    assert len(pairs) == 30
    assert len(set(pairs)) == 30
    suites = [r.suite for r in results]
    assert suites == sorted(suites, key=SUITE_NAMES.index)
    for r in results:
        assert r.seconds > 0, r.name
        assert r.tolerance == 0.0, r.name
        assert r.passed == (r.observed <= 0.0), r.name


def test_every_check_passes_at_its_own_tolerance():
    results = run_suite("all")
    assert len(results) == 30
    failed = [f"{r.suite}/{r.name}: {r.observed:.3g} > {r.tolerance:.3g}" for r in results if not r.passed]
    assert failed == []


def test_run_check_scales_the_check_tolerance():
    assert run_check("spectrum", "enumeration-order").tolerance == 0.5
    assert run_check("spectrum", "enumeration-order", 3.0).tolerance == 1.5


@pytest.mark.parametrize("suite, name", [("nonsense", "x"), ("specfun", "nonsense")])
def test_run_check_rejects_unknown_checks(suite, name):
    with pytest.raises(ValueError, match=f"no check named '{name}' in suite '{suite}'"):
        run_check(suite, name)


def test_radial_spectrum_agreement_fails_on_a_2e_6_energy_shift(monkeypatch):
    # the check runs 200-point grids at two Richardson levels; it must still
    # see closed energies that are 2e-6 off, twice its 1e-6 tolerance
    closed = spectrum.energy
    monkeypatch.setattr(spectrum, "energy", lambda p, qn: closed(p, qn) * (1 + 2e-6))
    assert not run_check("oracle", "radial-spectrum-agreement").passed


def test_semigroup_fails_on_a_1e_5_endpoint_lattice_shift(monkeypatch):
    # the composed 32-slice grid value is held to the 64-slice endpoint
    # route at 1e-6; an endpoint route 1e-5 off must show, from one grid kernel
    grids = []
    endpoint, grid = propagator.lattice_radial_kernel, propagator.lattice_kernel_grid
    monkeypatch.setattr(propagator, "lattice_radial_kernel", lambda *args: endpoint(*args) * (1 + 1e-5))
    monkeypatch.setattr(propagator, "lattice_kernel_grid", lambda *args: grids.append(args) or grid(*args))
    result = run_check("propagator", "semigroup")
    assert not result.passed
    assert result.observed == pytest.approx(1e-5, rel=1e-3)
    assert len(grids) == 1


def test_closed_vs_spectral_fails_on_a_1e_9_spectral_shift(monkeypatch):
    # one broadcast spectral call per (couplings, tau) case, held to 1e-10
    calls = []
    spectral = propagator.radial_kernel_spectral

    def shifted(*args):
        calls.append(args)
        k = spectral(*args)
        return k._replace(value=k.value * (1 + 1e-9))

    monkeypatch.setattr(propagator, "radial_kernel_spectral", shifted)
    result = run_check("propagator", "closed-vs-spectral")
    assert not result.passed
    assert result.observed == pytest.approx(1e-9, rel=1e-3)
    assert len(calls) == 6


def test_radial_spectrum_agreement_reports_its_grids_and_shift_gap():
    result = run_check("oracle", "radial-spectrum-agreement")
    assert "200/401/803-point grids, two Richardson levels" in result.detail
    ratio = float(re.search(r"worst shift/gap (\S+) against the 1e-4 guard", result.detail).group(1))
    assert 0 < ratio < 1e-4


def test_every_check_holds_a_small_working_set():
    # the heaviest check is semigroup, whose 32-slice lattice power holds three
    # 400x400 matrices (4.0 MB traced peak); 5 MB leaves 25% over it, and a
    # check that evaluates a whole 3D grid at once (norm-round-trip's
    # 144x96x16 complex samples took 9.2 MB) fails. Each check runs once
    # untraced first, so imports and caches are not counted.
    peaks = {}
    for suite, name in _REGISTRY:
        run_check(suite, name)
        tracemalloc.start()
        try:
            run_check(suite, name)
            peaks[f"{suite}/{name}"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(peaks) == 30
    assert {check: peak for check, peak in peaks.items() if peak > 5e6} == {}
