"""Release gate: every headline guarantee of the library, run at its stated
tolerance.  Each test prints one PASS/FAIL line (visible under pytest -s) and
then asserts, so a red run names exactly which guarantee broke."""

import pytest

from ncosc import run_check


def _report(result, extra=""):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.suite}/{result.name}: observed={result.observed:.3e} "
          f"tolerance={result.tolerance:.3e} ({result.seconds:.2f}s){extra}")
    return result


def test_spectrum_matches_finite_difference_oracle():
    # coupling grid alpha x beta x gamma, n <= 3, n_theta <= 2, |m| <= 2,
    # relative 1e-6 within a 60 s budget
    r = _report(run_check("oracle", "radial-spectrum-agreement"))
    assert r.passed, r.detail
    assert r.seconds <= 60.0


def test_angular_levels_match_finite_difference_oracle():
    # lambda in {0.5, 1, 2}, k in {0.5, 1.5}, n_theta <= 3, relative 1e-6,
    # 20 s budget
    r = _report(run_check("oracle", "angular-spectrum-agreement"))
    assert r.passed, r.detail
    assert r.seconds <= 20.0


def test_lowest_eigenstates_orthonormal_under_quadrature():
    # Gram matrix of the 8 lowest states at couplings (1, 0.5, 2) vs identity
    r = _report(run_check("spectrum", "gram-identity"))
    assert r.passed, r.detail


def test_generating_identity_closes_spectral_sum():
    # 20 seeded random (x, y, s, ell) draws, 150-term sums, residual <= 1e-10
    r = _report(run_check("propagator", "hille-hardy"))
    assert r.passed, r.detail


def test_closed_kernel_equals_spectral_sum():
    # 5x5 endpoint grid, tau in {0.5, 1, 2}, free and coupled cases, 1e-10
    r = _report(run_check("propagator", "closed-vs-spectral"))
    assert r.passed, r.detail


def test_lattice_kernel_accuracy_and_convergence_rate():
    # 64 slices within 1e-3 of the closed form, and halving the step cuts the
    # error by close to 4
    acc = _report(run_check("propagator", "lattice-accuracy"))
    order = _report(run_check("propagator", "lattice-order"))
    assert acc.passed, acc.detail
    assert order.passed, order.detail


def test_slice_kernel_short_time_bands():
    # exact Bessel factor vs its short-time form: within 1e-3 at eps=1e-2 and
    # 1e-4 at eps=1e-3, orders m in {0, 1, 2, 5}; observed is the worst
    # deviation over its band, so passing means every deviation is in band
    r = _report(run_check("specfun", "short-time-asymptotic"))
    assert r.passed, r.detail


def test_gaussian_quartic_moment_identity():
    # <x^4> = 3 sigma^4 under the numerical moment pipeline, widths spanning
    # three decades, abs 1e-12
    r = _report(run_check("propagator", "quartic-moment"))
    assert r.passed, r.detail


def test_degenerate_limit_reproduces_integer_ladder():
    # zero couplings: E + v0 = (2n + 2 n_theta + |m| + 5/2) hbar omega with
    # no floating-point residue at all for n, n_theta, |m| <= 10
    r = _report(run_check("spectrum", "degenerate-limit"))
    assert r.passed, r.detail
    assert r.observed == 0.0


def test_partition_function_within_reported_tail_bound():
    # integrated diagonal kernel at tau=2, couplings (1, 0.5, 2), vs the
    # spectral sum; the discrepancy must respect the bound the code reports
    r = _report(run_check("propagator", "trace-consistency"))
    assert r.passed, r.detail


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
