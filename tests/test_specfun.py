"""Special-function kernel: frozen reference values and defining identities.

Reference constants were generated offline with mpmath at 40 digits.
Identity tests deliberately avoid the recurrence each routine is built
on, so a transcription slip in the recurrence cannot certify itself.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from ncosc import specfun
from ncosc.specfun import (
    _FLOAT_COLUMNS,
    _log_bessel_series,
    bessel_i,
    jacobi,
    jacobi_all,
    laguerre,
    laguerre_all,
    log_bessel_ie,
    log_bessel_ie_from_log,
)
from ncosc.verify import _bessel_short_time_ratio as bessel_short_time_ratio, _gamma_ratio as gamma_ratio

# (n, a, x, mpmath value)
LAGUERRE_REF = [
    (0, 0.5, 1.3, 1.0),
    (3, 0.5, 2.7, -0.147999999999999746),
    (7, 1.75, 0.9, -2.227531041047712217),
    (12, 2.5, 19.0, 1157.343112236978815),
    (5, 0.0, 6.0, -3.8),
    (9, 3.5, 0.25, 236.32208525660387),
]

# (n, a, b, x, mpmath value)
JACOBI_REF = [
    (2, 0.5, 1.5, 0.3, -0.6625000000000000111),
    (6, 1.22, 0.5, -0.7, -0.2563466616151791525),
    (9, 0.0, 2.0, 0.95, -0.3606941784852603472),
    (4, 2.5, 1.5, 0.0, 0.7734375),
    (11, 0.75, 0.25, 0.6, -0.4662642721973331131),
]

# (nu, x, ln I_nu(x)); small and large arguments, and arguments where I
# itself would overflow
LOG_BESSEL_REF = [
    (0.5, 0.001, -3.679668825469134837),
    (0.5, 0.1, -1.375417787678169786),
    (1.5, 3.0, 1.131235470744604453),
    (2.5, 50.0, 47.06445034195232459),
    (6.5, 700.0, 695.7755000552263739),
    (10.0, 25.0, 20.46358649736202691),
    (3.5, 680.0, 675.8111850600135017),
]

# (num, den, Gamma(num)/Gamma(den))
GAMMA_RATIO_REF = [
    (7.5, 3.25, 734.0391063857780411),
    (0.5, 0.25, 0.4888705337234618988),
    (101.5, 100.0, 1003.74454005688308),
    (3.0, 9.5, 1.676551868038722172e-5),
]


def test_laguerre_reference_values():
    for n, a, x, want in LAGUERRE_REF:
        assert laguerre(n, a, x) == pytest.approx(want, rel=2e-14), (n, a, x)


def test_jacobi_reference_values():
    for n, a, b, x, want in JACOBI_REF:
        assert jacobi(n, a, b, x) == pytest.approx(want, rel=5e-14), (n, a, b, x)


def test_log_bessel_reference_values():
    for nu, x, want in LOG_BESSEL_REF:
        assert log_bessel_ie(nu, x) + x == pytest.approx(want, rel=1e-13, abs=1e-13), (nu, x)


def test_gamma_ratio_reference_values():
    for num, den, want in GAMMA_RATIO_REF:
        assert gamma_ratio(num, den) == pytest.approx(want, rel=1e-13), (num, den)


def test_bessel_matches_scipy_through_branch_switch():
    # small and large arguments held to the 1e-10 relative contract
    xs = np.concatenate([np.logspace(-3, 1, 7), np.linspace(15.0, 700.0, 25)])
    for nu in (0.0, 0.5, 1.5, 2.0, 5.5, 10.0, 20.5):
        for x in xs:
            ref = float(scipy.special.iv(nu, x))
            if not math.isfinite(ref) or ref == 0.0:
                continue
            assert bessel_i(nu, float(x)) == pytest.approx(ref, rel=1e-10), (nu, x)
    # the scaled form, also far past the point where I_nu itself overflows
    for nu in (0.0, 0.5, 5.5, 20.5):
        for x in np.concatenate([xs, [1e3, 1e6, 1e12, 1e300]]):
            with mpmath.workdps(30 + int(math.log10(x) if x > 1 else 0)):
                ref = float(mpmath.log(mpmath.besseli(nu, float(x))) - float(x))
            assert log_bessel_ie(nu, float(x)) == pytest.approx(ref, rel=1e-12, abs=1e-12), (nu, x)


def _mp_log_bessel_ie(nu, x):
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.besseli(nu, mpmath.mpf(x))) - mpmath.mpf(x))


def test_log_bessel_ie_where_ive_cannot_answer():
    # ive underflows to 0 here while ln I fits: the ascending series answers
    for nu, x in [(1.5, 1e-300), (12.3, 1e-30), (500.0, 100.0), (40.0, 1e-8), (0.5, 1e-320)]:
        assert scipy.special.ive(nu, x) == 0.0
        assert log_bessel_ie(nu, x) == pytest.approx(_mp_log_bessel_ie(nu, x), rel=1e-14), (nu, x)
    # Amos's argument limit is x = 2^30 - 1/2; past it ive is nan and the
    # 1/x expansion answers
    for nu in (0.0, 0.5, 5.5, 20.5, 100.0):
        for x in (1e9, 1.07e9, 2e9, 1e12):
            assert log_bessel_ie(nu, x) == pytest.approx(_mp_log_bessel_ie(nu, x), rel=1e-14), (nu, x)
    assert math.isnan(scipy.special.ive(0.5, 2e9))
    # up to the largest float, where 2 pi x overflows (past x = 2.9e307);
    # there ln I - x is -ln(2 pi x)/2 to far below rounding
    for x in (1e300, 3e307, np.finfo(float).max):
        want = float(-mpmath.log(2 * mpmath.pi * mpmath.mpf(x)) / 2)
        assert log_bessel_ie(1.5, x) == pytest.approx(want, rel=1e-14), x


def test_log_bessel_ie_continuous_at_each_handoff_and_never_nan():
    def ive_normal(nu, x):
        return scipy.special.ive(nu, x) >= np.finfo(float).tiny

    def as_float(bits):
        return float(np.int64(bits).view(np.float64))

    # where ive underflows: bisect over the bit patterns of positive floats,
    # which order like the floats, for the first argument ive answers
    for nu in (1.5, 12.3, 40.0, 500.0):
        lo, hi = 0, int(np.float64(1e6).view(np.int64))  # ive(nu, 0) = 0; ive(nu, 1e6) is normal
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if ive_normal(nu, as_float(mid)) else (mid, hi)
        below, above = as_float(lo), as_float(hi)
        gap = abs(log_bessel_ie(nu, above) - log_bessel_ie(nu, below))
        assert gap <= 1e-14 * abs(log_bessel_ie(nu, above)), (nu, below, gap)
    # Amos's argument limit
    last = 2.0**30 - 0.5
    beyond = math.nextafter(last, math.inf)
    assert ive_normal(0.5, last) and math.isnan(scipy.special.ive(0.5, beyond))
    for nu in (0.0, 0.5, 20.5, 100.0):
        assert abs(log_bessel_ie(nu, beyond) - log_bessel_ie(nu, last)) <= 1e-14 * abs(log_bessel_ie(nu, last))
    for nu in (0.0, 0.5, 5.5, 20.5, 60.0):
        for x in np.logspace(-320, 300, 125):
            assert math.isfinite(log_bessel_ie(nu, float(x))), (nu, x)


def test_log_bessel_ie_past_the_series_cap_raises_value_error():
    # ive underflows at (4e4, 1e6) and the ascending series needs more than
    # its 200000 terms there: a promised error naming the point
    with pytest.raises(ValueError, match=r"nu=40000\.0, x=1000000\.0"):
        log_bessel_ie(4e4, 1e6)


def test_log_bessel_series_agrees_with_ive():
    # the series was the main path over x < 36 and x < 4.5 nu^2 + 25; it
    # stays an independent route checking Amos there (past x of about 100
    # its own rounding grows: 1.7e-12 at nu=60, x=16000)
    for nu in (0.0, 0.5, 1.5, 2.7841336613988075, 5.5, 10.0, 20.5, 26.0):
        for x in np.logspace(-3, 2, 41):
            if x >= 36.0 and x >= 4.5 * nu * nu + 25.0:
                continue
            ref = math.log(scipy.special.ive(nu, x))
            assert abs(_log_bessel_series(nu, float(x)) - ref) <= 1e-13, (nu, x)


def test_batch_evaluators_match_scalar_exactly():
    x = np.linspace(0.0, 15.0, 11)
    stack = laguerre_all(9, 1.5, x)
    for n in range(10):
        assert np.array_equal(stack[n], laguerre(n, 1.5, x))
    xj = np.linspace(-1.0, 1.0, 11)
    stackj = jacobi_all(9, 0.7, 1.5, xj)
    for n in range(10):
        assert np.array_equal(stackj[n], jacobi(n, 0.7, 1.5, xj))


def test_laguerre_all_order_array_equals_per_order_calls():
    x = np.linspace(0.0, 15.0, 11)
    orders = np.array([0.5, 1.5, 2.6180339887, 7.25])
    stack = laguerre_all(12, orders, x)
    assert stack.shape == (13, 4, 11)
    for i, a in enumerate(orders):
        assert np.array_equal(stack[:, i], laguerre_all(12, float(a), x))
    # orders of any shape come before the points
    grid = laguerre_all(3, orders.reshape(2, 2), x[:5])
    assert grid.shape == (4, 2, 2, 5)
    assert np.array_equal(grid[:, 1, 0], laguerre_all(3, orders[2], x[:5]))
    with pytest.raises(ValueError, match="a > -1"):
        laguerre_all(3, np.array([0.5, -1.0]), x)


# the recurrence stepper takes a wide call of this many points, and every
# call with an array of orders, on numpy arrays, and one order on up to
# _FLOAT_COLUMNS points on Python floats
_WIDE = 2 * _FLOAT_COLUMNS + 2


def _same_bits(got, want) -> bool:
    """nan in the same places, every other entry the same bits (the sign of
    a zero or an infinity included)."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


def _narrow_slices(data, wide_len):
    """(start, count) of two narrow slices, one on each side of _FLOAT_COLUMNS."""
    out = []
    for lo, hi in ((1, _FLOAT_COLUMNS), (_FLOAT_COLUMNS + 1, wide_len)):
        c = data.draw(st.integers(lo, hi))
        out.append((data.draw(st.integers(0, wide_len - c)), c))
    return out


def _check_laguerre_slices(n_max, orders, x, data):
    wide = laguerre_all(n_max, orders.reshape(2, 2), x)
    flat = wide.reshape(n_max + 1, 4, len(x))
    i = data.draw(st.integers(0, 3))
    for j, c in _narrow_slices(data, len(x)):
        assert _same_bits(laguerre_all(n_max, orders[i], x[j:j + c]), flat[:, i, j:j + c]), (i, j, c)
    assert _same_bits(laguerre_all(n_max, orders[i], x[j]), flat[:, i, j:j + 1])
    # a (2, 2) array of orders steps on numpy arrays at any width, and a
    # narrow call of it is still a slice of the wide one
    c = _FLOAT_COLUMNS // 4
    assert _same_bits(laguerre_all(n_max, orders.reshape(2, 2), x[j:j + c]), wide[..., j:j + c])


@given(n_max=st.sampled_from([0, 1, 2, 3, 17, 80, 150]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_laguerre_all_steps_on_floats_with_the_numpy_bits(n_max, data):
    """A narrow call, stepped on Python floats below the threshold, equals
    the slice of a wide call, stepped on numpy arrays, bit for bit."""
    orders = np.array(data.draw(st.lists(st.floats(-1.0, 40.0, exclude_min=True), min_size=4, max_size=4)))
    x = np.array(data.draw(st.lists(st.floats(-5.0, 300.0), min_size=_WIDE, max_size=_WIDE)))
    _check_laguerre_slices(n_max, orders, x, data)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_laguerre_all_paths_agree_past_the_overflow_point(data):
    """Near x = 2000 L_n^a(x) leaves the float range before n = 400; inf and
    nan come out in the same places on both paths."""
    orders = np.array([0.5, 3.7, 12.0, 40.5])
    x = np.linspace(1990.0, 2010.0, _WIDE)
    wide = laguerre_all(400, orders, x)
    assert np.isinf(wide).any() and np.isnan(wide).any()
    _check_laguerre_slices(400, orders, x, data)


@given(n_max=st.sampled_from([0, 1, 2, 3, 17, 80, 150]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_jacobi_all_steps_on_floats_with_the_numpy_bits(n_max, data):
    exponent = st.one_of(st.floats(-1.0, -0.999, exclude_min=True), st.floats(-1.0, 10.0, exclude_min=True))
    a, b = data.draw(exponent), data.draw(exponent)
    x = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=_WIDE, max_size=_WIDE)))
    try:
        wide = jacobi_all(n_max, a, b, x)
    except ValueError:  # a + b + 2 rounds to 0: both paths refuse
        with pytest.raises(ValueError, match="rounds to 0"):
            jacobi_all(n_max, a, b, x[:1])
        return
    for j, c in _narrow_slices(data, _WIDE):
        assert _same_bits(jacobi_all(n_max, a, b, x[j:j + c]), wide[:, j:j + c]), (j, c)
    assert _same_bits(jacobi_all(n_max, a, b, x[j]), wide[:, j:j + 1])


def test_scalar_input_gives_scalar_output():
    assert isinstance(laguerre(3, 0.5, 2.0), float)
    assert isinstance(jacobi(3, 0.5, 0.5, 0.2), float)
    arr = laguerre(3, 0.5, np.array([1.0, 2.0]))
    assert arr.shape == (2,)


@given(n=st.integers(1, 12), a=st.floats(-0.9, 6.0), x=st.floats(0.0, 40.0))
@settings(max_examples=300, deadline=None)
def test_laguerre_contiguity(n, a, x):
    """L_n^a = L_n^{a+1} - L_{n-1}^{a+1}, a relation the degree recurrence never uses."""
    lhs = laguerre(n, a, x)
    rhs = laguerre(n, a + 1.0, x) - laguerre(n - 1, a + 1.0, x)
    scale = max(1.0, abs(laguerre(n, a + 1.0, x)), abs(laguerre(n - 1, a + 1.0, x)))
    assert abs(lhs - rhs) <= 1e-11 * scale, f"contiguity broken at n={n}, a={a}, x={x}"


@given(n=st.integers(0, 12), a=st.floats(-0.9, 4.0), b=st.floats(-0.9, 4.0),
       x=st.floats(-1.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_jacobi_reflection(n, a, b, x):
    """P_n^{(a,b)}(-x) = (-1)^n P_n^{(b,a)}(x)."""
    lhs = jacobi(n, a, b, -x)
    rhs = (-1.0) ** n * jacobi(n, b, a, x)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_laguerre_value_at_zero_is_binomial():
    # L_n^a(0) = Gamma(n+a+1) / (Gamma(a+1) n!), ties the polynomial
    # normalization to the gamma routines
    for n, a in [(1, 0.5), (4, 1.75), (9, 0.0), (13, 3.2)]:
        want = gamma_ratio(n + a + 1.0, a + 1.0) / math.factorial(n)
        assert laguerre(n, a, 0.0) == pytest.approx(want, rel=1e-13)


@given(nu=st.floats(1.0, 8.0), x=st.floats(0.05, 60.0))
@settings(max_examples=300, deadline=None)
def test_bessel_three_term_recurrence(nu, x):
    lhs = bessel_i(nu - 1.0, x) - bessel_i(nu + 1.0, x)
    rhs = 2.0 * nu / x * bessel_i(nu, x)
    assert abs(lhs - rhs) <= 1e-11 * bessel_i(nu - 1.0, x)


def test_log_bessel_handles_overflowing_arguments():
    # ln I stays finite where I itself passes 1e308
    val = log_bessel_ie(0.5, 800.0) + 800.0
    assert val == pytest.approx(800.0 - 0.5 * math.log(2 * math.pi * 800.0), rel=1e-6)
    with pytest.raises(OverflowError, match="exceeds floating range"):
        bessel_i(0.5, 800.0)


def test_bessel_at_zero_argument():
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(2.5, 0.0) == 0.0
    assert log_bessel_ie(1.0, 0.0) == -math.inf


def test_log_bessel_ie_from_log_at_zero_argument():
    # log_x = -inf is x = 0: ln I_0(0) - 0 = 0, and ln I_nu(0) = -inf for nu > 0
    # (the leading-power branch used to form 0 * -inf = nan)
    assert log_bessel_ie_from_log(0.0, -math.inf) == 0.0
    assert log_bessel_ie_from_log(2.5, -math.inf) == -math.inf
    # finite inputs keep their bits, the sign of a zero included
    assert math.copysign(1.0, log_bessel_ie_from_log(0.0, -800.0)) == -1.0
    assert log_bessel_ie_from_log(0.0, -800.0) == 0.0
    assert log_bessel_ie_from_log(1.5, -800.0) == 1.5 * (-800.0 - math.log(2.0)) - math.lgamma(2.5)


@pytest.mark.filterwarnings("error")
def test_log_bessel_ie_from_log_arrays_match_the_float_path():
    # a log_x grid that crosses every handoff: x = 0, the leading power below
    # the normal range, where ive underflows (the series), Amos's argument
    # limit (the 1/x expansion) and the leading term above the float range
    points = [-math.inf, -1000.0, 1000.0]
    for edge in (specfun._LOG_TINY, math.log(2.0**30 - 0.5), specfun._LOG_HUGE):
        points += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    log_x = np.sort(np.concatenate([points, np.linspace(-760.0, 760.0, 400), np.linspace(-5.0, 25.0, 301)]))
    for nu in (0.0, 0.5, 1.5, 20.5, 300.5):
        batch = log_bessel_ie_from_log(nu, log_x)
        one = np.array([log_bessel_ie_from_log(nu, float(v)) for v in log_x])
        finite = np.isfinite(one)
        assert np.array_equal(batch[~finite], one[~finite]), nu
        assert np.all(np.abs(batch[finite] - one[finite]) <= 1e-14 * np.maximum(1.0, np.abs(one[finite]))), nu
    # shapes are kept, and an order is refused on arrays as on floats
    assert log_bessel_ie_from_log(1.5, log_x.reshape(-1, 1)).shape == (log_x.size, 1)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="nu >= 0"):
            log_bessel_ie_from_log(bad, np.zeros(3))


def test_domain_validation():
    with pytest.raises(ValueError, match="non-negative integer"):
        laguerre(-1, 0.5, 1.0)
    with pytest.raises(ValueError, match="a > -1"):
        laguerre(2, -1.5, 1.0)
    with pytest.raises(ValueError, match="b > -1"):
        jacobi(2, 0.5, -2.0, 0.1)
    with pytest.raises(ValueError, match="nu >= 0"):
        bessel_i(-0.5, 1.0)
    with pytest.raises(ValueError, match="eps > 0"):
        bessel_short_time_ratio(1, 0.0)
    # infinite orders, and an eps that is infinite or NaN
    for call in (lambda: log_bessel_ie(math.inf, 1.0), lambda: log_bessel_ie_from_log(math.inf, 0.0),
                 lambda: bessel_i(math.inf, 1.0)):
        with pytest.raises(ValueError, match="nu >= 0"):
            call()
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eps > 0"):
            bessel_short_time_ratio(1, eps)
    # e^{1/eps} no longer cancels anything here: the ratio is e^{3.75e299}
    with pytest.raises(OverflowError, match="beyond the float range"):
        bessel_short_time_ratio(1, 1e300)


def test_jacobi_refuses_a_recurrence_that_divides_by_zero():
    # a + b + 2 rounds to 0, and the degree-2 step would divide 0 by 0 (the
    # numpy recurrence used to return nan rows); degrees 0 and 1 need no step
    a = b = math.nextafter(-1.0, 0.0)
    for x in (0.3, np.linspace(-1.0, 1.0, _WIDE)):
        with pytest.raises(ValueError, match="rounds to 0"):
            jacobi_all(2, a, b, x)
        assert np.all(np.isfinite(jacobi_all(1, a, b, x)))


@pytest.mark.parametrize("call", [
    lambda: laguerre(2, math.nan, 1.0),
    lambda: laguerre(2, math.inf, 1.0),
    lambda: laguerre_all(2, math.nan, [1.0, 2.0]),
    lambda: laguerre_all(2, np.array([0.5, math.inf]), [1.0, 2.0]),
    lambda: jacobi(2, math.nan, 0.5, 0.1),
    lambda: jacobi(2, 0.5, math.inf, 0.1),
    lambda: jacobi_all(2, math.inf, 0.5, [0.1, 0.2]),
    lambda: jacobi_all(2, 0.5, math.nan, [0.1, 0.2]),
    lambda: log_bessel_ie(math.nan, 1.0),
    lambda: bessel_i(math.nan, 1.0),
    lambda: log_bessel_ie_from_log(math.nan, 0.0),
    lambda: log_bessel_ie_from_log(math.nan, -1000.0),
    lambda: log_bessel_ie_from_log(math.nan, 1000.0),
])
def test_nan_or_infinite_order_is_rejected(call, monkeypatch):
    # the guard fires before any Bessel fallback runs; a NaN order used to
    # run the ascending series to its iteration cap
    def reached(*args):
        raise AssertionError(f"fallback reached with {args}")

    monkeypatch.setattr(specfun, "_log_bessel_series", reached)
    monkeypatch.setattr(specfun, "_log_bessel_asymptotic", reached)
    with pytest.raises(ValueError, match="> -1|>= 0"):
        call()


def test_short_time_ratio_bands():
    # exact over asymptotic: inside 1e-3 of 1 at eps=1e-2, inside 1e-4 at eps=1e-3
    for m in (0, 1, 2, 5):
        assert abs(bessel_short_time_ratio(m, 1e-2) - 1.0) <= 1e-3, m
        assert abs(bessel_short_time_ratio(m, 1e-3) - 1.0) <= 1e-4, m


def test_short_time_ratio_matches_mpmath():
    # e^{1/eps} cancels analytically, so the ratio keeps its digits at
    # eps = 1e-6, where 1 - ratio is down to 1.9e-13
    for m in (0, 1, 2, 5):
        for eps in (1e-3, 1e-6):
            with mpmath.workdps(40):
                e = mpmath.mpf(eps)
                want = mpmath.besseli(m, 1 / e) / (
                    mpmath.sqrt(e / (2 * mpmath.pi)) * mpmath.exp(1 / e - (e / 2) * (m * m - mpmath.mpf(1) / 4))
                )
            assert abs(bessel_short_time_ratio(m, eps) - float(want)) <= 1e-13, (m, eps)


def test_short_time_ratio_improves_as_eps_shrinks():
    for m in (0, 2, 5):
        coarse = abs(bessel_short_time_ratio(m, 1e-2) - 1.0)
        fine = abs(bessel_short_time_ratio(m, 1e-3) - 1.0)
        assert fine < coarse
