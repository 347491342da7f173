"""The check registry: every verify check is named, timed and scaled by
`run_check`, and `run_suite` runs each registered check once, grouped by
suite."""

import pytest

from ncosc.verify import SUITE_NAMES, run_check, run_suite


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


def test_run_check_scales_the_check_tolerance():
    assert run_check("spectrum", "enumeration-order").tolerance == 0.5
    assert run_check("spectrum", "enumeration-order", 3.0).tolerance == 1.5


@pytest.mark.parametrize("suite, name", [("nonsense", "x"), ("specfun", "nonsense")])
def test_run_check_rejects_unknown_checks(suite, name):
    with pytest.raises(ValueError, match=f"no check named '{name}' in suite '{suite}'"):
        run_check(suite, name)
