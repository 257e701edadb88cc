"""Frequency responses, H2 norms (incl. multirate), tuning, phase metrics."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import ddckit as dk


def _brute_energy(stages, count=20000):
    """Independent oracle: direct time-domain impulse simulation."""
    x = np.zeros(count, dtype=complex)
    x[0] = 1.0
    for stage in stages:
        den = [1.0] if stage.pole is None else [1.0, -stage.pole]
        x = lfilter(stage.taps, den, x)
    return float(np.sum(np.abs(x) ** 2))


# ---------------------------------------------------------------- FreqGrid

def test_regular_grid_covers_half_open_interval():
    grid = dk.FreqGrid.regular(8)
    assert len(grid) == 8
    assert grid.thetas[-1] == pytest.approx(math.pi)
    assert grid.thetas[0] > -math.pi
    assert 0.0 in grid.thetas  # even point counts include zero frequency


def test_grid_maps_to_hz():
    grid = dk.FreqGrid.regular(4, sample_rate=100.0)
    assert grid.freq_hz == pytest.approx(grid.thetas * 100 / (2 * math.pi))
    assert dk.FreqGrid.regular(4).freq_hz is None


def test_grid_validation():
    with pytest.raises(dk.UsageError):
        dk.FreqGrid(np.array([]))
    with pytest.raises(dk.UsageError):
        dk.FreqGrid(np.array([0.2, 0.1]))
    with pytest.raises(dk.UsageError):
        dk.FreqGrid(np.array([-math.pi]))  # open at -pi
    with pytest.raises(dk.UsageError):
        dk.FreqGrid(np.array([3.5]))


@pytest.mark.parametrize("points", [1, 2, 3, 8, 64, 1000, 4096])
def test_regular_grid_is_the_validated_grid_byte_for_byte(points):
    step = 2 * math.pi / points
    expected = dk.FreqGrid(-math.pi + step * np.arange(1, points + 1)).thetas
    grid = dk.FreqGrid.regular(points, 1e6)
    assert grid.thetas.tobytes() == expected.tobytes()
    assert not grid.thetas.flags.writeable
    assert grid.sample_rate == 1e6


def test_regular_grid_ends_at_pi_where_the_step_rounds_up():
    # 2*pi/25*25 rounds above 2*pi; the last point is clamped to pi.
    for points in range(1, 2000):
        grid = dk.FreqGrid.regular(points)
        assert grid.thetas[-1] <= math.pi
        assert dk.FreqGrid(grid.thetas).thetas.tobytes() == grid.thetas.tobytes()
    assert dk.FreqGrid.regular(25).thetas[-1] == math.pi


@pytest.mark.parametrize(
    "points, sample_rate",
    [(0, None), (-1, None), (2.0, None), ("8", None), (8, 0.0), (8, -1.0),
     (8, math.inf), (8, math.nan), (8, "1"), (8, True)],
)
def test_regular_grid_refuses_bad_arguments(points, sample_rate):
    with pytest.raises(dk.UsageError):
        dk.FreqGrid.regular(points, sample_rate)


def test_regular_grid_is_shared_and_stays_read_only():
    grid = dk.FreqGrid.regular(64, 1e6)
    assert dk.FreqGrid.regular(64, 1e6) is grid
    assert dk.FreqGrid.regular(64) is not grid
    # A rate of another type is another grid, which keeps the type it got.
    assert type(dk.FreqGrid.regular(64, 1000000).sample_rate) is int
    dk.freq_response(dk.make_ma(3), grid)
    for values in (grid.thetas, grid._phasors):
        with pytest.raises(ValueError):
            values[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.thetas = np.zeros(64)


def test_regular_grid_checks_its_arguments_before_the_lookup():
    dk.FreqGrid.regular(1, 1)
    for points, sample_rate in [(True, 1), (1, True), (1.0, 1)]:
        with pytest.raises(dk.UsageError):
            dk.FreqGrid.regular(points, sample_rate)


def test_regular_grids_kept_are_bounded():
    kept = dk.analysis._regular_grid
    grids = [dk.FreqGrid.regular(points) for points in range(1, 41)]
    assert kept.cache_info().currsize == kept.cache_info().maxsize == 8
    # The latest requests are the ones kept.
    assert dk.FreqGrid.regular(40) is grids[-1]
    assert dk.FreqGrid.regular(1) is not grids[0]
    large = dk.analysis._REGULAR_POINTS_KEPT + 1
    assert dk.FreqGrid.regular(large) is not dk.FreqGrid.regular(large)
    assert kept.cache_info().currsize == 8


# ----------------------------------------------------------- freq_response

def test_freq_response_ma11_values():
    f = dk.make_ma(11)
    assert abs(dk.freq_response(f, np.array([0.0]))[0] - 1.0) < 1e-15
    assert abs(dk.freq_response(f, np.array([2 * math.pi / 11]))[0]) < 1e-15


def test_freq_response_2sr_is_not_conjugate_symmetric():
    carrier = dk.CarrierConfig(2, 17)
    with pytest.warns(dk.NoiseAmplificationWarning):
        f = dk.make_2sr(carrier)
    assert abs(f.response(dk.reduce_angle(-2 * carrier.phase_step))) < 1e-12
    theta = 0.9
    assert abs(f.response(theta)) != pytest.approx(abs(f.response(-theta)), rel=1e-3)


def test_freq_response_of_cascade_is_product():
    carrier = dk.CarrierConfig(7, 33)
    stages = [dk.make_2sr(carrier), dk.make_dcr(carrier)]
    thetas = np.linspace(-3, 3, 11)
    prod = stages[0].response(thetas) * stages[1].response(thetas)
    assert np.allclose(dk.freq_response(stages, thetas), prod, rtol=1e-15)


def test_freq_response_lp_magnitude_formula():
    f = dk.make_lp(0.35, 1.0)
    a = f.pole.real
    for theta in (0.0, 0.7, math.pi):
        expected = (1 - a) ** 2 / (1 - 2 * a * math.cos(theta) + a * a)
        assert abs(dk.freq_response(f, np.array([theta]))[0]) ** 2 == pytest.approx(
            expected, rel=1e-12
        )


@pytest.mark.parametrize("theta", [math.nan, math.inf], ids=["nan", "inf"])
def test_freq_response_rejects_non_finite_frequency(theta):
    with pytest.raises(dk.UsageError):
        dk.freq_response([dk.make_ma(3)], np.array([theta]))
    with pytest.raises(dk.UsageError):
        dk.freq_response(dk.make_ma(3), np.array([0.0, theta]))


def _polyval_stage(stage, thetas):
    """One stage's response as numpy's polyval over the taps, then the pole."""
    from numpy.polynomial.polynomial import polyval

    w = np.exp(-1j * thetas)
    resp = polyval(w, stage.taps)
    if stage.pole is None:
        return resp
    return resp / (1.0 - stage.pole * w)


_part = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0])
_any_stage = st.builds(
    lambda taps, pole: dk.ComplexFilter(np.array(taps, dtype=complex), pole),
    st.lists(st.builds(complex, _part, _part), min_size=1, max_size=8),
    st.none()
    | st.sampled_from([0.0, -0.0, 0.5])
    | st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
)


@given(
    stages=st.lists(_any_stage, min_size=1, max_size=3),
    thetas=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_freq_response_is_bitwise_the_polyval_composition(stages, thetas):
    thetas = np.array(thetas)
    expected = np.ones_like(thetas, dtype=np.complex128)
    for stage in stages:
        expected = expected * _polyval_stage(stage, thetas)
    assert dk.freq_response(stages, thetas).tobytes() == expected.tobytes()
    theta = float(thetas[0])
    for stage in stages:
        got = np.asarray(stage.response(theta))
        assert got.tobytes() == np.asarray(_polyval_stage(stage, np.asarray(theta))).tobytes()


@given(
    stages=st.lists(_any_stage, min_size=1, max_size=3),
    points=st.integers(1, 300) | st.sampled_from([4096]),
)
@settings(max_examples=100, deadline=None)
def test_freq_response_on_a_regular_grid_is_bitwise_on_its_thetas(stages, points):
    grid = dk.FreqGrid.regular(points)
    expected = dk.freq_response(stages, grid.thetas).tobytes()
    # The second call reads the phasors the grid kept from the first.
    assert dk.freq_response(stages, grid).tobytes() == expected
    assert dk.freq_response(stages, dk.FreqGrid.regular(points)).tobytes() == expected


# -------------------------------------------------------------- h2_norm_sq

def test_norm_of_moving_averages_match_published_rejections():
    r11 = dk.h2_norm_sq(dk.make_ma(11))
    r33 = dk.h2_norm_sq(dk.make_ma(33))
    assert r11.value == pytest.approx(1 / 11, rel=1e-15)
    assert r33.value == pytest.approx(1 / 33, rel=1e-15)
    assert r11.value_db == pytest.approx(-10.41, abs=5e-3)
    assert r33.value_db == pytest.approx(-15.19, abs=5e-3)
    assert r11.method == "closed-form"


def test_norm_of_quarter_rate_reconstruction():
    assert dk.h2_norm_sq(dk.make_2sr(dk.CarrierConfig(1, 4))).value == pytest.approx(
        0.5, rel=1e-15
    )


def test_norm_single_pole_closed_form_vs_brute_force():
    carrier = dk.CarrierConfig(7, 33)
    stages = [dk.make_ma(5), dk.make_lp(0.03 * 2 * math.pi, 1.0)]
    report = dk.h2_norm_sq(stages)
    assert report.method == "closed-form"
    assert report.value == pytest.approx(_brute_energy(stages), rel=1e-12)


def test_norm_two_poles_is_closed_form():
    stages = [dk.make_lp(0.5, 1.0), dk.make_lp(0.125, 1.0)]
    report = dk.h2_norm_sq(stages)
    assert report.method == "closed-form"
    assert report.value == pytest.approx(_brute_energy(stages), rel=1e-12)


@given(
    stages=st.lists(
        st.builds(
            lambda taps, scale: dk.ComplexFilter(np.array(taps, dtype=complex) * scale),
            st.lists(st.builds(complex, _part, _part), min_size=1, max_size=40),
            st.sampled_from([1.0, 1e-100, 1e30]),
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=150, deadline=None)
@example(stages=[dk.make_ma(4097)])
@example(stages=[dk.make_2sr(dk.CarrierConfig(7, 33)), dk.make_ma(1000)])
def test_fir_norm_is_bitwise_the_exact_energy(stages):
    taps, _, _, _ = dk.analysis._collapse([(stage, 1) for stage in stages])
    expected = np.float64(dk.analysis._energy(taps, [], [], 1))
    assert np.float64(dk.h2_norm_sq(stages).value).tobytes() == expected.tobytes()


def test_norm_report_db():
    assert dk.h2_norm_sq(dk.make_ma(10)).value_db == pytest.approx(-10.0)


# ------------------------------------------------------- multirate_norm_sq

def test_multirate_factor_one_degenerates_to_cascade():
    # A decimator by 1 lifts no pole, so the two norms run the same
    # arithmetic.  A lift by 1 would turn the poles into numpy scalars, whose
    # Gramian arithmetic changes the last bit on about 5% of the draws below.
    f = dk.make_ma(4)
    lp = dk.make_lp(0.2, 1.0)
    assert dk.multirate_norm_sq(f, lp, 1).value == dk.h2_norm_sq([f, lp]).value
    rng = np.random.default_rng(30)

    def draw():
        n = rng.integers(1, 6)
        taps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kind = rng.integers(0, 3)
        pole = None
        if kind == 1:
            pole = float(rng.uniform(-0.99, 0.99))
        elif kind == 2:
            pole = complex(rng.uniform(0.05, 0.99) * cmath.exp(1j * rng.uniform(-3.1, 3.1)))
        return dk.ComplexFilter(taps, pole=pole)

    for _ in range(2000):
        inner = [draw() for _ in range(rng.integers(1, 4))]
        outer = draw()
        single = dk.h2_norm_sq(inner + [outer]).value
        assert dk.multirate_norm_sq(inner, outer, 1).value == single


def test_multirate_identity_outer_gives_inner_norm():
    f = dk.make_ma(6)
    identity = dk.ComplexFilter(np.ones(1))
    for factor in (1, 2, 6, 7):
        assert dk.multirate_norm_sq(f, identity, factor).value == pytest.approx(
            1 / 6, rel=1e-15
        )


def test_multirate_closed_form_vs_brute_force_upsampled_convolution():
    f = dk.make_ma(4)
    pole = 0.7
    outer = dk.ComplexFilter(np.array([1 - pole]), pole=pole)
    report = dk.multirate_norm_sq(f, outer, 4)
    # Oracle: impulse of the upsampled cascade simulated over 1e4 samples.
    x = np.zeros(10**4)
    x[0] = 1.0
    h = lfilter(f.taps, [1.0], x)
    den = np.zeros(5)
    den[0], den[4] = 1.0, -pole
    g = lfilter([1 - pole], den, h)
    assert report.value == pytest.approx(float(np.sum(np.abs(g) ** 2)), rel=1e-13)
    assert report.method == "closed-form"


def test_multirate_with_inner_pole_is_closed_form():
    carrier = dk.CarrierConfig(7, 33)
    inner = [dk.to_baseband(dk.make_dc_reject_passband(15 / 16), carrier),
             dk.make_2sr(carrier)]
    pole = 0.6
    outer = dk.ComplexFilter(np.array([1 - pole]), pole=pole)
    report = dk.multirate_norm_sq(inner, outer, 4)
    x = np.zeros(3 * 10**4, dtype=complex)
    x[0] = 1.0
    y = lfilter(inner[0].taps, [1.0, -inner[0].pole], x)
    y = lfilter(inner[1].taps, [1.0], y)
    den = np.zeros(5, dtype=complex)
    den[0], den[4] = 1.0, -pole
    y = lfilter([1 - pole], den, y)
    assert report.value == pytest.approx(float(np.sum(np.abs(y) ** 2)), rel=1e-12)
    assert report.method == "closed-form"


def test_multirate_validates_factor():
    with pytest.raises(dk.UsageError):
        dk.multirate_norm_sq(dk.make_ma(4), dk.make_ma(1), 0)


@pytest.mark.parametrize("lowrate", [None, "x", [dk.make_ma(1)]], ids=["none", "str", "list"])
def test_multirate_validates_lowrate_filter(lowrate):
    with pytest.raises(dk.UsageError):
        dk.multirate_norm_sq([dk.make_ma(3)], lowrate, 2)


# ------------------------------------------------------ 50-digit oracles

def _mp_energy(taps, poles):
    """Impulse energy of ``B(z) / prod(1 - p_i z^-1)`` in 50-digit mpmath,
    for distinct nonzero poles given as mpmath numbers or floats.

    The first ``len(taps)`` samples come from the recursion; from there on
    the response is ``sum_i r_i p_i^k`` with the partial-fraction residues
    ``r_i = B(1/p_i) / prod_{j != i} (1 - p_j/p_i)``, so the tail is the
    double geometric sum ``sum_ij r_i r_j* (p_i p_j*)^L / (1 - p_i p_j*)``.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        b = [mpmath.mpc(complex(t)) for t in taps]
        p = [mpmath.mpc(q) for q in poles]
        g = list(b)
        for q in p:
            acc = mpmath.mpc(0)
            for k, v in enumerate(g):
                acc = q * acc + v
                g[k] = acc
        residues = []
        for i, q in enumerate(p):
            r = mpmath.fsum(bm * q ** -m for m, bm in enumerate(b))
            for j, other in enumerate(p):
                if j != i:
                    r /= 1 - other / q
            residues.append(r)
        head_len = len(b)
        tail = mpmath.fsum(
            ri * mpmath.conj(rj) * (pi * mpmath.conj(pj)) ** head_len
            / (1 - pi * mpmath.conj(pj))
            for ri, pi in zip(residues, p)
            for rj, pj in zip(residues, p)
        )
        return mpmath.fsum(abs(v) ** 2 for v in g) + mpmath.re(tail)


def _taps_and_poles(stages):
    taps = np.ones(1, dtype=complex)
    for stage in stages:
        taps = np.convolve(taps, stage.taps)
    return taps, [complex(s.pole) for s in stages if s.pole is not None]


_C733 = dk.CarrierConfig(7, 33)


def _lowpasses(x):
    return [dk.make_lp(x, 1.0), dk.make_lp(2.5 * x, 1.0)]


@pytest.mark.parametrize(
    "stages",
    [
        [dk.make_2sr(_C733)] + _lowpasses(1e-5),
        [dk.to_baseband(dk.make_dc_reject_passband(0.9375), _C733),
         dk.make_2sr(_C733)] + _lowpasses(1e-5),
    ],
    ids=["two-poles-1e-5", "three-poles-1e-5"],
)
def test_norm_matches_50_digit_partial_fractions(stages):
    reference = float(_mp_energy(*_taps_and_poles(stages)))
    report = dk.h2_norm_sq(stages)
    assert report.value == pytest.approx(reference, rel=1e-13, abs=0)
    assert report.method == "closed-form"


def test_norm_repeated_pole_matches_50_digit_limit():
    mpmath = pytest.importorskip("mpmath")
    lp = dk.make_lp(1e-4, 1.0)
    stages = [dk.make_2sr(_C733), lp, lp]
    taps, _ = _taps_and_poles(stages)
    with mpmath.workdps(50):
        p, delta = mpmath.mpf(lp.pole.real), mpmath.mpf("1e-15")
        # Distinct-pole limit, first order in delta: E(p, p) to O(delta^2).
        reference = float(
            2 * _mp_energy(taps, [p, p - delta]) - _mp_energy(taps, [p, p - 2 * delta])
        )
    assert dk.h2_norm_sq(stages).value == pytest.approx(reference, rel=1e-13, abs=0)


@pytest.mark.parametrize("factor", [4, 33])
def test_multirate_inner_pole_matches_50_digit_partial_fractions(factor):
    mpmath = pytest.importorskip("mpmath")
    inner = [dk.to_baseband(dk.make_dc_reject_passband(0.9375), _C733),
             dk.make_2sr(_C733)]
    outer = dk.make_lp(1e-3 * factor, 1.0)
    taps, poles = _taps_and_poles(inner)
    up = np.zeros((len(outer.taps) - 1) * factor + 1, dtype=complex)
    up[::factor] = outer.taps
    with mpmath.workdps(50):
        # F(z^N) has the N-th roots of its low-rate pole as full-rate poles.
        roots = [mpmath.root(outer.pole.real, factor, k) for k in range(factor)]
        reference = float(_mp_energy(np.convolve(taps, up), poles + roots))
    report = dk.multirate_norm_sq(inner, outer, factor)
    assert report.value == pytest.approx(reference, rel=1e-13, abs=0)
    assert report.method == "closed-form"


_stage = st.builds(
    lambda taps, radius, angle: dk.ComplexFilter(
        np.array(taps), pole=cmath.rect(radius, angle)
    ),
    st.lists(
        st.builds(cmath.rect, st.floats(0.1, 2.0), st.floats(-math.pi, math.pi)),
        min_size=1,
        max_size=3,
    ),
    st.floats(0.0, 0.9),
    st.floats(-math.pi, math.pi),
)


@given(stages=st.lists(_stage, min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_norm_of_random_stable_cascade_matches_impulse_sum(stages):
    # |p| <= 0.9: the brute-force sum has decayed far below 1e-12 well
    # within its 20000 samples.
    assert dk.h2_norm_sq(stages).value == pytest.approx(
        _brute_energy(stages), rel=1e-12
    )


# ------------------------------------------------------- tune_lp_bandwidth

def test_tune_recovers_known_bandwidth_through_identity():
    # With no envelope filter, the norm is (1-a)/(1+a); invert it for a=e^-0.1.
    target = 10 * math.log10((1 - math.exp(-0.1)) / (1 + math.exp(-0.1)))
    identity = dk.ComplexFilter(np.ones(1))
    bandwidth = dk.tune_lp_bandwidth(identity, target, 1.0)
    assert bandwidth == pytest.approx(0.1, rel=1e-4)


def test_tune_middle_group_bandwidths():
    target = -15.2
    w1 = dk.tune_lp_bandwidth(dk.make_2sr(dk.CarrierConfig(7, 33)), target, 1.0)
    w2 = dk.tune_lp_bandwidth(dk.make_ma(11), target, 1.0)
    assert w1 / (2 * math.pi) == pytest.approx(0.01, rel=0.3)
    assert w2 / (2 * math.pi) == pytest.approx(0.01, rel=0.3)


def test_tune_hits_target_within_tolerance():
    stages = [dk.make_ma(11)]
    bandwidth = dk.tune_lp_bandwidth(stages, -20.0, 1.0)
    achieved = dk.h2_norm_sq(stages + [dk.make_lp(bandwidth, 1.0)]).value
    assert achieved == pytest.approx(10 ** (-2.0), rel=1e-6)


def test_tune_near_floor_gives_wide_open_lowpass():
    floor_db = 10 * math.log10(1 / 11)
    bandwidth = dk.tune_lp_bandwidth(dk.make_ma(11), floor_db - 1e-3, 1.0)
    assert bandwidth > 2.0  # pole ~ exp(-2), low-pass nearly an identity


def test_tune_unachievable_target_raises_domain_error():
    with pytest.raises(dk.DomainError, match="achievable"):
        dk.tune_lp_bandwidth(dk.make_ma(11), -5.0, 1.0)
    with pytest.raises(dk.DomainError, match="achievable"):
        dk.tune_lp_bandwidth(dk.make_ma(11), -150.0, 1.0)


def test_tune_target_beyond_float_range_raises_domain_error():
    # 10**(4000/10) overflows a float; no gain reaches it.
    with pytest.raises(dk.DomainError, match="achievable"):
        dk.tune_lp_bandwidth(dk.make_ma(11), 4000.0, 1.0)


def test_tune_refuses_a_period_that_overflows_the_bandwidth():
    with pytest.raises(dk.UsageError):
        dk.tune_lp_bandwidth(dk.make_ma(11), -20.0, 1e-310)


_HP_2SR = [dk.to_baseband(dk.make_dc_reject_passband(0.9375), _C733), dk.make_2sr(_C733)]
_MA11_FLOOR_DB = 10 * math.log10(1 / 11)


@pytest.mark.parametrize(
    "stages, target_db, period",
    [
        ([dk.make_2sr(_C733)], -15.2, 1.0),
        ([dk.make_ma(11)], -15.2, 1.0),
        ([dk.make_2sr(_C733)], -20.0, 1.0),
        ([dk.make_2sr(dk.CarrierConfig(4, 17))], -20.0, 1.0),
        (_HP_2SR, -20.0, 1 / 94.29e6),
        ([dk.make_ma(11)], _MA11_FLOOR_DB - 1e-3, 1.0),
        ([dk.make_ma(11)], 10 * math.log10(0.5e-7), 1.0),
    ],
    ids=["ac2-2sr", "ac2-ma11", "ac3-7-33", "ac3-4-17", "hp+2sr", "ma11-near-floor",
         "bw-1e-7"],
)
def test_tune_meets_its_stated_precision_against_50_digits(stages, target_db, period):
    bandwidth = dk.tune_lp_bandwidth(stages, target_db, period)
    lowpass = dk.make_lp(bandwidth, period)
    reference = float(_mp_energy(*_taps_and_poles(stages + [lowpass])))
    bound = max(1e-12, 2.0**-52 / (1.0 - lowpass.pole.real))
    # The stated bound, plus the norm's own error.
    assert abs(reference / 10 ** (target_db / 10) - 1) <= bound + 1e-13


@pytest.mark.parametrize(
    "stages, target_db",
    [
        ([dk.make_2sr(_C733)], -15.2),
        ([dk.make_ma(14)], -40.0),
        (_HP_2SR, -20.0),
        ([dk.make_ma(11)], _MA11_FLOOR_DB - 1e-3),
    ],
    ids=["2sr", "ma14", "hp+2sr", "ma11-near-floor"],
)
def test_tune_takes_at_most_16_norm_evaluations(monkeypatch, stages, target_db):
    calls = _count_energy_calls(monkeypatch)
    dk.tune_lp_bandwidth(stages, target_db, 1.0)
    assert len(calls) <= 16


def _count_energy_calls(monkeypatch):
    calls = []
    energy = dk.analysis._energy

    def counted(*args):
        calls.append(args)
        return energy(*args)

    monkeypatch.setattr(dk.analysis, "_energy", counted)
    return calls


@pytest.mark.parametrize(
    "stages, target_db",
    [
        ([dk.make_2sr(_C733)], -15.2),
        ([dk.make_ma(14)], -40.0),
        ([dk.make_ma(33)], -20.0),
        ([dk.make_2sr(_C733), dk.make_dcr(_C733)], -15.0),
        ([dk.make_ma(11)], _MA11_FLOOR_DB - 1e-3),
    ],
    ids=["2sr", "ma14", "ma33", "2sr+dcr", "ma11-near-floor"],
)
def test_fir_tune_takes_one_norm_evaluation(monkeypatch, stages, target_db):
    calls = _count_energy_calls(monkeypatch)
    bandwidth = dk.tune_lp_bandwidth(stages, target_db, 1.0)
    assert len(calls) == 1
    lowpass = dk.make_lp(bandwidth, 1.0)
    bound = max(1e-12, 2.0**-52 / (1.0 - lowpass.pole.real))
    achieved = dk.h2_norm_sq(stages + [lowpass]).value
    assert abs(achieved / 10 ** (target_db / 10) - 1) <= bound


_fir_stage = st.builds(
    lambda taps: dk.ComplexFilter(np.array(taps, dtype=complex)),
    st.lists(
        st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
        | st.builds(complex, st.floats(-4.0, 4.0)),
        min_size=1,
        max_size=12,
    ),
)


@given(
    stages=st.lists(_fir_stage, min_size=1, max_size=3),
    share=st.floats(0.01, 0.99),
    period=st.sampled_from([1.0, 1 / 94.29e6]),
)
@settings(max_examples=60, deadline=None)
def test_fir_tune_meets_its_stated_precision_against_50_digits(stages, share, period):
    taps, _ = _taps_and_poles(stages)
    top = float(np.vdot(taps, taps).real)
    assume(top > 1e-200)
    bottom = dk.h2_norm_sq(stages + [dk.make_lp(1e-9, 1.0)]).value
    assume(bottom > 0.0)
    # A target at a share of the achievable range in dB.
    target_db = 10 * math.log10(bottom) + share * 10 * math.log10(top / bottom)
    bandwidth = dk.tune_lp_bandwidth(stages, target_db, period)
    lowpass = dk.make_lp(bandwidth, period)
    reference = float(_mp_energy(*_taps_and_poles(stages + [lowpass])))
    bound = max(1e-12, 2.0**-52 / (1.0 - lowpass.pole.real))
    assert abs(reference / 10 ** (target_db / 10) - 1) <= bound + 1e-13


# The carriers of the benchmark's design queries.
_DESIGN_CARRIERS = [
    dk.CarrierConfig(7, 33, 94.29e6),
    dk.CarrierConfig(3, 14, 117.40e6),
    dk.CarrierConfig(5, 21, 10e6),
    dk.CarrierConfig(1, 4, 1e6),
]


@pytest.mark.parametrize("drop_db", [3.0, 15.0])
@pytest.mark.parametrize("spec", ["hp:0.9375+2sr", "2sr+lp:0.0025"])
@pytest.mark.parametrize("carrier", _DESIGN_CARRIERS, ids=lambda c: f"{c.periods}/{c.samples}")
def test_tune_with_poles_takes_one_norm_evaluation(monkeypatch, carrier, spec, drop_db):
    stages = dk.parse_filter_spec(spec, carrier)
    target_db = dk.h2_norm_sq(stages).value_db - drop_db
    calls = _count_energy_calls(monkeypatch)
    bandwidth = dk.tune_lp_bandwidth(stages, target_db, carrier.sample_period)
    assert len(calls) == 1
    lowpass = dk.make_lp(bandwidth, carrier.sample_period)
    bound = max(1e-12, 2.0**-52 / (1.0 - lowpass.pole.real))
    achieved = dk.h2_norm_sq(stages + [lowpass]).value
    assert abs(achieved / 10 ** (target_db / 10) - 1) <= bound


def test_a_missed_closed_form_root_ends_in_brents_search(monkeypatch):
    root = dk.analysis._lp_root

    def missed(*args):
        x = root(*args)
        return None if x is None else 1.01 * x

    monkeypatch.setattr(dk.analysis, "_lp_root", missed)
    calls = _count_energy_calls(monkeypatch)
    target_db = -20.0
    bandwidth = dk.tune_lp_bandwidth(_HP_2SR, target_db, 1.0)
    assert 3 < len(calls) <= 16  # the miss, the bracket's ends, the search
    lowpass = dk.make_lp(bandwidth, 1.0)
    reference = float(_mp_energy(*_taps_and_poles(_HP_2SR + [lowpass])))
    bound = max(1e-12, 2.0**-52 / (1.0 - lowpass.pole.real))
    assert abs(reference / 10 ** (target_db / 10) - 1) <= bound + 1e-13


_pole_stage = st.one_of(
    # A low-pass at bandwidth*period 1e-5 to 1e-1.
    st.floats(-5.0, -1.0).map(lambda e: dk.make_lp(10.0**e, 1.0)),
    # The passband DC-reject in its baseband form: a complex pole.
    st.builds(
        lambda pole, carrier: dk.to_baseband(dk.make_dc_reject_passband(pole), carrier),
        st.floats(0.5, 0.999),
        st.sampled_from(_DESIGN_CARRIERS),
    ),
    st.builds(
        lambda radius, angle: dk.ComplexFilter([1.0], pole=cmath.rect(radius, angle)),
        # Nonzero, as the 50-digit oracle needs.
        st.floats(0.05, 0.95),
        st.floats(-math.pi, math.pi),
    ),
)


def _distinct(poles, apart=1e-6):
    return all(abs(p - q) > apart for i, p in enumerate(poles) for q in poles[:i])


@given(
    fir=st.lists(_fir_stage, max_size=2),
    with_poles=st.lists(_pole_stage, min_size=1, max_size=3),
    share=st.floats(0.01, 0.99),
    period=st.sampled_from([1.0, 1 / 94.29e6]),
)
@settings(max_examples=60, deadline=None)
def test_tune_with_poles_meets_its_stated_precision_against_50_digits(
    fir, with_poles, share, period
):
    # The 50-digit oracle sums partial fractions: the poles must be distinct.
    stages = fir + with_poles
    taps, poles = _taps_and_poles(stages)
    assume(_distinct(poles) and float(np.vdot(taps, taps).real) > 1e-200)
    top = dk.h2_norm_sq(stages).value
    bottom = dk.h2_norm_sq(stages + [dk.make_lp(1e-9, 1.0)]).value
    assume(bottom > 0.0)
    # A target at a share of the achievable range in dB.
    target_db = 10 * math.log10(bottom) + share * 10 * math.log10(top / bottom)
    bandwidth = dk.tune_lp_bandwidth(stages, target_db, period)
    lowpass = dk.make_lp(bandwidth, period)
    assume(_distinct(poles + [lowpass.pole]))
    reference = float(_mp_energy(*_taps_and_poles(stages + [lowpass])))
    bound = max(1e-12, 2.0**-52 / (1.0 - lowpass.pole.real))
    assert abs(reference / 10 ** (target_db / 10) - 1) <= bound + 1e-13


@pytest.mark.parametrize(
    "taps",
    [np.zeros(1), np.zeros(3), np.full(3, 1e-170)],
    ids=["zero", "zeros", "1e-170"],
)
def test_tune_of_a_zero_gain_filter_raises_domain_error(taps):
    # The gain is 0.0 at both ends of the bracket: -inf dB, not log10(0).
    assert dk.analysis._lp_root(taps.astype(complex), [], [], 0.01) is None
    with pytest.raises(dk.DomainError, match=r"\(-inf dB, -inf dB\)"):
        dk.tune_lp_bandwidth(dk.ComplexFilter(taps), -20.0, 1.0)


@pytest.mark.parametrize(
    "ddc",
    [
        dk.make_ma(11),
        dk.make_ma(33),
        dk.make_2sr(dk.CarrierConfig(7, 33)),
        dk.convolve(
            dk.make_2sr(dk.CarrierConfig(7, 33)), dk.make_dcr(dk.CarrierConfig(7, 33))
        ),
    ],
    ids=["ma11", "ma33", "2sr", "2sr+dcr"],
)
def test_tune_monotonicity_premise(ddc):
    values = [
        dk.h2_norm_sq([ddc, dk.make_lp(x, 1.0)]).value
        for x in np.geomspace(1e-6, 20, 50)
    ]
    assert np.all(np.diff(values) > 0)


# ----------------------------------------------------------- phase_metrics

def test_group_delay_of_symmetric_fir_is_half_span():
    for length in (4, 11, 14, 33):
        metrics = dk.phase_metrics(dk.make_ma(length), 1e-3, 1.0)
        assert metrics.group_delay == pytest.approx((length - 1) / 2, abs=1e-6)


def test_group_delay_of_pure_delay():
    delay = dk.ComplexFilter(np.array([0, 0, 0, 1.0]))
    for omega in (0.3, 1.1, 2.5):
        assert dk.phase_metrics(delay, omega, 1.0).group_delay == pytest.approx(
            3.0, abs=1e-6
        )


def test_group_delay_quarter_rate_reconstruction():
    f = dk.make_2sr(dk.CarrierConfig(1, 4))
    assert dk.phase_metrics(f, 0.0, 1.0).group_delay == pytest.approx(0.5, abs=1e-9)


def test_phase_is_unwrapped_continuously():
    f = dk.make_ma(11)
    # Linear phase: -5*theta, well past -pi at theta = 0.5 where wrapping
    # would otherwise fold it.
    metrics = dk.phase_metrics(f, 0.5, 1.0)
    assert metrics.phase == pytest.approx(-2.5, abs=1e-9)


def test_phase_metrics_rejects_response_zero():
    with pytest.raises(dk.DomainError):
        dk.phase_metrics(dk.make_ma(11), 2 * math.pi / 11, 1.0)


@pytest.mark.parametrize(
    "omega, sample_period",
    [(math.nan, 1.0), (math.inf, 1.0), (0.0, -1.0), (0.0, 0.0), (0.0, math.inf)],
)
def test_phase_metrics_rejects_bad_frequency_or_period(omega, sample_period):
    with pytest.raises(dk.UsageError):
        dk.phase_metrics(dk.make_ma(11), omega, sample_period)


@pytest.mark.parametrize("theta", [math.pi + 1e-9, 10.0])
def test_phase_metrics_refuses_frequencies_beyond_nyquist(theta):
    h = 1e-8
    for omega in (theta / h, -theta / h):
        with pytest.raises(dk.UsageError, match="Nyquist"):
            dk.phase_metrics(dk.make_ma(11), omega, h)
    # Nyquist itself is on every regular grid, and accepted.
    dk.phase_metrics(dk.make_ma(11), math.pi, 1.0)


@given(
    stages=st.lists(_any_stage, min_size=1, max_size=3),
    omega=st.sampled_from([0.0, -0.0]),
)
@settings(max_examples=300, deadline=None)
@example(stages=[dk.ComplexFilter([-1.0 + 0.0j])], omega=-0.0)
@example(stages=[dk.ComplexFilter([-1.0 - 0.0j], pole=-0.0)], omega=-0.0)
@example(
    stages=[dk.ComplexFilter([-0.0 - 1.0j]), dk.ComplexFilter([-1.0], 0.5)], omega=0.0
)
def test_phase_at_dc_is_bitwise_the_unwrapped_path(stages, omega):
    try:
        phase = dk.phase_metrics(stages, omega, 1.0).phase
    except dk.DomainError:
        assume(False)
    path = np.linspace(0.0, omega, 9)
    resp = np.ones(9, dtype=complex)
    for stage in stages:
        resp = resp * _polyval_stage(stage, path)
    expected = np.unwrap(np.angle(resp))[-1]
    assert np.float64(phase).tobytes() == np.float64(expected).tobytes()


@given(stages=st.lists(_any_stage, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
@example(stages=[dk.make_ma(33), dk.make_lp(0.01, 1.0)])
@example(stages=[dk.ComplexFilter([-0.0 - 0.0j, 0.0, -1.0 - 0.0j], pole=-0.0)])
def test_dc_response_is_bitwise_the_array_kernel(stages):
    phasor = np.exp(-1j * np.zeros(1))
    assert phasor.tobytes() == dk.analysis._DC_PHASOR.tobytes()
    expected = dk.analysis._response(stages, phasor)
    assert dk.analysis._dc_response(stages).tobytes() == expected.tobytes()


# Parts and frequencies far enough from the float range's floor that every
# product and sum scales by 2**-40 exactly.
_normal_part = st.floats(-4.0, 4.0).filter(lambda x: abs(x) >= 1e-3) | st.sampled_from(
    [0.0, -0.0]
)
_normal_pole_part = _normal_part.map(lambda x: x / 6)  # |pole| < 1
_normal_stage = st.builds(
    lambda taps, pole: dk.ComplexFilter(np.array(taps, dtype=complex), pole),
    st.lists(st.builds(complex, _normal_part, _normal_part), min_size=1, max_size=8),
    st.none() | st.builds(complex, _normal_pole_part, _normal_pole_part),
)


@given(
    stages=st.lists(_normal_stage, min_size=1, max_size=3),
    theta=st.floats(-math.pi, math.pi).filter(lambda x: abs(x) >= 1e-6)
    | st.sampled_from([0.0, -0.0]),
    index=st.integers(0, 2),
)
@settings(max_examples=200, deadline=None)
def test_phase_and_delay_do_not_depend_on_scale(stages, theta, index):
    stage = stages[index % len(stages)]
    scaled = list(stages)
    scaled[index % len(stages)] = dk.ComplexFilter(stage.taps * 2.0**-40, stage.pole)
    try:
        expected = dk.phase_metrics(stages, theta, 1.0)
    except dk.DomainError:
        with pytest.raises(dk.DomainError):
            dk.phase_metrics(scaled, theta, 1.0)
        return
    got = dk.phase_metrics(scaled, theta, 1.0)
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_a_small_gain_is_not_a_response_zero():
    assert dk.phase_metrics(dk.ComplexFilter([1e-10]), 0.0, 1.0) == (0.0, 0.0)
    carrier = dk.CarrierConfig(7, 33)
    envelope = dk.make_2sr(carrier)
    small = dk.ComplexFilter(envelope.taps * 1e-10)
    delays = [
        dk.group_delay_seconds(dk.make_chain(carrier, f, lp_bandwidth=1e5))
        for f in (envelope, small)
    ]
    assert delays[1] == pytest.approx(delays[0], rel=1e-12)


def test_group_delay_of_narrow_lowpass_is_exact_at_dc():
    f = dk.make_lp(1e-5, 1.0)
    a = f.pole.real
    assert dk.phase_metrics(f, 0.0, 1.0).group_delay == pytest.approx(
        a / (1 - a), rel=1e-12
    )


def test_phase_metrics_scales_with_sample_period():
    h = 1e-8
    metrics = dk.phase_metrics(dk.make_ma(11), 1e5, h)
    assert metrics.group_delay == pytest.approx(5 * h, rel=1e-6)


# --------------------------------------------------------------- alias_map

def test_alias_map_fundamental():
    carrier = dk.CarrierConfig(7, 33)
    images = dk.alias_map(1, carrier)
    assert images.pos == pytest.approx(0.0, abs=1e-15)
    assert images.neg == pytest.approx(
        dk.reduce_angle(-2 * carrier.phase_step), abs=1e-12
    )


def test_alias_map_iq_third_harmonic_hits_zero():
    images = dk.alias_map(3, dk.CarrierConfig(1, 4))
    assert abs(images.pos) == pytest.approx(math.pi)
    assert images.neg == pytest.approx(0.0, abs=1e-12)


def test_alias_map_images_fall_on_block_zeros():
    carrier = dk.CarrierConfig(7, 33)
    ma = dk.make_ma(33)
    for order in (2, 3, 5, 8):
        images = dk.alias_map(order, carrier)
        if (order - 1) * carrier.periods % carrier.samples:
            assert abs(ma.response(images.pos)) < 1e-12
        if (order + 1) * carrier.periods % carrier.samples:
            assert abs(ma.response(images.neg)) < 1e-12


def test_alias_map_validates_order():
    with pytest.raises(dk.UsageError):
        dk.alias_map(0, dk.CarrierConfig(1, 4))


def test_reduce_angle_principal_interval():
    assert dk.reduce_angle(math.pi) == pytest.approx(math.pi)
    assert dk.reduce_angle(-math.pi) == pytest.approx(math.pi)
    assert dk.reduce_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert dk.reduce_angle(0.0) == 0.0


# ------------------------------------------------------------- invariants

def _constructed_filters():
    carrier = dk.CarrierConfig(7, 33)
    quarter = dk.CarrierConfig(1, 4)
    return [
        [dk.make_ma(11)],
        [dk.make_ma(33)],
        [dk.make_2sr(carrier)],
        [dk.make_dcr(carrier)],
        [dk.make_iq(quarter)],
        [dk.make_lp(-math.log(0.9), 1.0)],
        [dk.make_lp(0.00628, 1.0)],  # pole ~ 0.99374
        [dk.to_baseband(dk.make_dc_reject_passband(15 / 16), carrier)],
        [dk.make_2sr(carrier), dk.make_dcr(carrier)],
        [dk.make_ma(14), dk.make_lp(0.0628, 1.0)],
        [dk.to_baseband(dk.make_dc_reject_passband(0.9), carrier),
         dk.make_2sr(carrier), dk.make_lp(0.1, 1.0)],
    ]


@pytest.mark.parametrize("stages", _constructed_filters())
def test_parseval_consistency(stages):
    # Uniform sampling over a full period integrates analytic |G|^2 almost
    # exactly, so the grid mean must agree with the impulse energy.
    grid = dk.FreqGrid.regular(2**16)
    mean_power = float(np.mean(np.abs(dk.freq_response(stages, grid)) ** 2))
    assert mean_power == pytest.approx(dk.h2_norm_sq(stages).value, rel=1e-6)


@pytest.mark.parametrize("stages", _constructed_filters())
def test_norm_product_bound(stages):
    grid = dk.FreqGrid.regular(1 << 14)
    total = dk.h2_norm_sq(stages).value
    head, tail = stages[:1], stages[1:]
    if not tail:
        return
    sup_sq = float(np.max(np.abs(dk.freq_response(tail, grid)) ** 2))
    # The dense-grid sup can undershoot the true sup, never by much.
    assert total <= dk.h2_norm_sq(head).value * sup_sq * (1 + 1e-6)


def test_small_bandwidth_asymptote():
    x = 1e-4  # bandwidth times sample period
    for f in (dk.make_ma(11), dk.make_2sr(dk.CarrierConfig(7, 33))):
        combined = dk.h2_norm_sq([f, dk.make_lp(x, 1.0)]).value
        assert combined == pytest.approx(x / 2, rel=0.01)


@pytest.mark.parametrize("stages", _constructed_filters())
def test_freq_response_matches_fft_of_impulse(stages):
    # Independent oracle: DFT of a long truncated impulse response.
    size = 1 << 13
    impulse = np.zeros(size, dtype=complex)
    impulse[0] = 1.0
    x = dk.ComplexSeq(impulse)
    for stage in stages:
        x = dk.apply_filter(stage, x)
    spectrum = np.fft.fft(x.values)
    thetas = 2 * math.pi * np.fft.fftfreq(size)
    direct = dk.freq_response(stages, thetas)
    # Truncation leaves a geometric tail; the slowest pole here decays it
    # far below the tolerance over 2^13 samples.
    assert np.allclose(direct, spectrum, rtol=0, atol=1e-9)


def test_multirate_and_single_rate_agree_exactly_for_identity_outer():
    f = dk.make_ma(8)
    identity = dk.ComplexFilter(np.ones(1))
    multi = dk.multirate_norm_sq(f, identity, 8).value
    single = dk.h2_norm_sq([f, identity]).value
    assert multi == pytest.approx(single, rel=1e-15)
