"""Filter constructors: tap values, zero placement, normalization, transform."""

import cmath
import math
import warnings

import numpy as np
import pytest

import ddckit as dk


def _random_carriers(count, seed=20240, max_samples=40, usable=False):
    # usable=True keeps the reconstruction regime (no noise amplification),
    # where the two-tap filters are well conditioned; the 1e-15 notch bounds
    # scale with 1/(2 sin step) and are only meaningful there.
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        samples = int(rng.integers(5, max_samples + 1))
        periods = int(rng.integers(1, (samples - 1) // 2 + 1))
        if math.gcd(periods, samples) != 1:
            continue
        carrier = dk.CarrierConfig(periods, samples)
        if usable and dk.amplifies_noise(carrier):
            continue
        out.append(carrier)
    return out


# ------------------------------------------------------------------- MA

def test_ma_single_tap_is_identity():
    assert np.array_equal(dk.make_ma(1).taps, np.ones(1, dtype=complex))


def test_ma_11_taps():
    f = dk.make_ma(11)
    assert len(f.taps) == 11
    assert np.allclose(f.taps, 1 / 11, rtol=0, atol=0)
    assert f.taps[0].real == pytest.approx(0.0909, abs=5e-5)


def test_ma_4_zeros_on_grid():
    f = dk.make_ma(4)
    for theta in (math.pi / 2, math.pi, 3 * math.pi / 2 - 2 * math.pi):
        assert abs(f.response(theta)) < 1e-15


def test_ma_rejects_zero_length():
    with pytest.raises(dk.UsageError):
        dk.make_ma(0)


def test_ma_zero_placement_random_carriers():
    # Coprime block averaging nulls every nonzero multiple of the block rate.
    for carrier in _random_carriers(10):
        f = dk.make_ma(carrier.samples)
        for k in range(1, carrier.samples):
            theta = dk.reduce_angle(2 * math.pi * k / carrier.samples)
            assert abs(f.response(theta)) < 1e-12


# ------------------------------------------------------------------- 2SR

def test_2sr_quarter_rate_taps_are_half_half():
    f = dk.make_2sr(dk.CarrierConfig(1, 4))
    assert np.allclose(f.taps, [0.5, 0.5], rtol=0, atol=1e-16)


def test_2sr_notch_at_double_frequency():
    for carrier in _random_carriers(10, usable=True):
        f = dk.make_2sr(carrier)
        assert abs(f.response(dk.reduce_angle(-2 * carrier.phase_step))) < 1e-15


def test_2sr_notch_scales_with_conditioning_outside_usable_regime():
    for carrier in _random_carriers(10, seed=77):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dk.NoiseAmplificationWarning)
            f = dk.make_2sr(carrier)
        bound = 20 * abs(f.taps[0]) * np.finfo(float).eps
        assert abs(f.response(dk.reduce_angle(-2 * carrier.phase_step))) < bound


def test_2sr_energy_matches_closed_form():
    carrier = dk.CarrierConfig(2, 17)
    with pytest.warns(dk.NoiseAmplificationWarning):
        f = dk.make_2sr(carrier)
    energy = float(np.sum(np.abs(f.taps) ** 2))
    assert energy == pytest.approx(1 / (2 * math.sin(carrier.phase_step) ** 2), rel=1e-12)
    assert energy == pytest.approx(1.102, abs=5e-4)
    assert energy > 1.0  # amplification regime


def test_2sr_unity_dc_gain_with_zero_angle():
    f = dk.make_2sr(dk.CarrierConfig(7, 33))
    assert abs(f.dc_gain - 1.0) < 1e-12


def test_2sr_without_phase_factor():
    carrier = dk.CarrierConfig(7, 33)
    step = carrier.phase_step
    raw = dk.make_2sr(carrier, keep_phase_factor=False)
    full = dk.make_2sr(carrier)
    assert abs(abs(raw.dc_gain) - 1.0) < 1e-12
    assert abs(cmath.phase(full.dc_gain)) < 1e-12
    # The two differ by the constant rotation exp(1j*step)/1j.
    rotation = cmath.exp(1j * step) / 1j
    assert np.allclose(full.taps, rotation * raw.taps, rtol=1e-12)


def test_2sr_singular_ratio_rejected():
    with pytest.raises(dk.SingularityError):
        dk.make_2sr(dk.CarrierConfig(1, 10**10))


def test_amplifies_noise_threshold():
    assert dk.amplifies_noise(dk.CarrierConfig(2, 17))
    assert not dk.amplifies_noise(dk.CarrierConfig(7, 33))
    assert not dk.amplifies_noise(dk.CarrierConfig(1, 4))


# ------------------------------------------------------------------- DCR

def test_dcr_nulls_offset_spur_and_keeps_dc():
    carrier = dk.CarrierConfig(7, 33)
    f = dk.make_dcr(carrier)
    assert abs(f.response(dk.reduce_angle(-carrier.phase_step))) < 1e-15
    assert abs(f.dc_gain - 1.0) < 1e-12


def test_dcr_quarter_rate_taps():
    f = dk.make_dcr(dk.CarrierConfig(1, 4))
    assert np.allclose(f.taps, [0.5, 0.0, 0.5], rtol=0, atol=1e-16)


def test_dcr_structural_middle_zero():
    f = dk.make_dcr(dk.CarrierConfig(5, 21))
    assert f.taps[1] == 0.0


# -------------------------------------------------------------------- IQ

def test_iq_filter_require_quarter_rate():
    f = dk.make_iq(dk.CarrierConfig(1, 4))
    assert abs(f.dc_gain - 1.0) == 0.0
    assert abs(f.response(math.pi)) < 1e-16
    with pytest.raises(dk.UsageError):
        dk.make_iq(dk.CarrierConfig(7, 33))


def test_iq_equals_quarter_rate_reconstruction():
    carrier = dk.CarrierConfig(1, 4)
    assert np.allclose(
        dk.make_iq(carrier).taps, dk.make_2sr(carrier).taps, rtol=0, atol=1e-15
    )


# -------------------------------------------------------------------- LP

def test_lp_pole_value():
    f = dk.make_lp(0.01 * 2 * math.pi, 1.0)  # bandwidth 1% of the sample rate
    assert f.pole.real == pytest.approx(0.9391013674242926, rel=1e-12)
    assert f.pole.imag == 0.0
    assert abs(f.dc_gain - 1.0) < 1e-12


def test_lp_wide_bandwidth_is_identity():
    f = dk.make_lp(50.0, 1.0)
    assert abs(f.pole) < 2e-22
    assert abs(f.taps[0] - 1.0) < 1e-12


def test_lp_energy_matches_impulse_sum():
    f = dk.make_lp(-math.log(0.9), 1.0)  # pole exactly 0.9
    a = f.pole.real
    closed = (1 - a) / (1 + a)
    brute = float(np.sum(np.abs(f.impulse(600)) ** 2))
    assert closed == pytest.approx(brute, rel=1e-12)
    assert dk.h2_norm_sq(f).value == pytest.approx(closed, rel=1e-12)


def test_lp_rejects_bad_arguments():
    with pytest.raises(dk.UsageError):
        dk.make_lp(0.0, 1.0)
    with pytest.raises(dk.UsageError):
        dk.make_lp(1.0, -2.0)


# ------------------------------------------------------------ DC reject HP

def test_dc_reject_passband_kills_constants_geometrically():
    f = dk.make_dc_reject_passband(15 / 16)
    y = dk.apply_filter(f, dk.RealSeq(np.ones(50))).values
    # After the first sample the output decays with ratio exactly p.
    ratios = y[2:] / y[1:-1]
    assert np.allclose(ratios, 15 / 16, rtol=1e-12)
    assert abs(y[-1]) < abs(y[1]) * (15 / 16) ** 47


def test_dc_reject_passband_pole_and_gain():
    p = 15 / 16
    f = dk.make_dc_reject_passband(p)
    assert f.pole == pytest.approx(0.9375)
    assert f.domain is dk.Domain.PASSBAND
    assert abs(f.response(math.pi) - 2 / (1 + p)) < 1e-12


@pytest.mark.parametrize("pole", [0.0, 1.0, -0.5, 1.5])
def test_dc_reject_passband_rejects_pole(pole):
    with pytest.raises(dk.UsageError):
        dk.make_dc_reject_passband(pole)


# ------------------------------------------------------------- to_baseband

def test_to_baseband_two_tap_comb():
    # The passband comb (1 - z^-2)/2 becomes (1 - exp(-2j*step) z^-2)/2.
    carrier = dk.CarrierConfig(7, 33)
    step = carrier.phase_step
    comb = dk.ComplexFilter(np.array([0.5, 0.0, -0.5]), domain=dk.Domain.PASSBAND)
    bb = dk.to_baseband(comb, carrier)
    expected = np.array([0.5, 0.0, -0.5 * cmath.exp(-2j * step)])
    assert np.allclose(bb.taps, expected, rtol=1e-15)
    assert bb.domain is dk.Domain.BASEBAND


def test_to_baseband_identity_stays_identity():
    f = dk.ComplexFilter(np.array([1.0]), domain=dk.Domain.PASSBAND)
    bb = dk.to_baseband(f, dk.CarrierConfig(7, 33))
    assert np.array_equal(bb.taps, f.taps)
    assert bb.pole is None


def test_to_baseband_high_pass_becomes_spur_notch():
    carrier = dk.CarrierConfig(7, 33)
    step = carrier.phase_step
    hp = dk.make_dc_reject_passband(15 / 16)
    bb = dk.to_baseband(hp, carrier)
    assert bb.pole == pytest.approx(0.9375 * cmath.exp(-1j * step), rel=1e-15)
    assert abs(bb.response(-step)) < 1e-14  # notch where the DC spur lands


def test_to_baseband_rejects_baseband_input():
    with pytest.raises(dk.UsageError):
        dk.to_baseband(dk.make_ma(4), dk.CarrierConfig(7, 33))


def test_to_baseband_magnitude_is_shifted_passband_magnitude():
    carrier = dk.CarrierConfig(5, 17)
    step = carrier.phase_step
    hp = dk.make_dc_reject_passband(0.9)
    bb = dk.to_baseband(hp, carrier)
    thetas = np.linspace(-math.pi, math.pi, 1001)[1:]
    lhs = np.abs(bb.response(thetas))
    rhs = np.abs(hp.response(thetas + step))
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


# ------------------------------------------------------------- cascades

def test_convolve_materializes_fir_cascade():
    carrier = dk.CarrierConfig(7, 33)
    combined = dk.convolve(dk.make_2sr(carrier), dk.make_dcr(carrier))
    assert len(combined.taps) == 4
    direct = np.convolve(dk.make_2sr(carrier).taps, dk.make_dcr(carrier).taps)
    assert np.array_equal(combined.taps, direct)


def test_convolve_rejects_iir_and_mixed_domains():
    with pytest.raises(dk.UsageError):
        dk.convolve(dk.make_ma(4), dk.make_lp(0.1, 1.0))
    with pytest.raises(dk.UsageError):
        dk.convolve(dk.make_ma(4), dk.make_dc_reject_passband(0.9))
    # Two FIRs, one of them passband: the domains alone refuse it.
    passband_fir = dk.ComplexFilter([1.0, -1.0], domain=dk.Domain.PASSBAND)
    with pytest.raises(dk.UsageError, match="different domains"):
        dk.convolve(dk.make_ma(4), passband_fir)


def test_unity_dc_normalization_across_constructors():
    carrier = dk.CarrierConfig(7, 33)
    for f in (
        dk.make_ma(carrier.samples),
        dk.make_2sr(carrier),
        dk.make_dcr(carrier),
        dk.make_lp(0.05, 1.0),
    ):
        assert abs(f.dc_gain - 1.0) < 1e-12


# ------------------------------------------- filters the package builds

_C733 = dk.CarrierConfig(7, 33)
_C14 = dk.CarrierConfig(1, 4)
_PASSBAND = dk.ComplexFilter(
    np.array([0.3 - 0.2j, -0.0 + 1j, 0.7]), pole=0.5j, domain=dk.Domain.PASSBAND
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: [dk.make_ma(1)],
        lambda: [dk.make_ma(33)],
        lambda: [dk.make_2sr(_C733)],
        lambda: [dk.make_2sr(_C733, keep_phase_factor=False)],
        lambda: [dk.make_dcr(_C733)],
        lambda: [dk.make_iq(_C14)],
        lambda: [dk.make_lp(0.01, 1.0)],
        lambda: [dk.make_lp(1e3, 1.0)],
        lambda: [dk.make_dc_reject_passband(0.9375)],
        lambda: [dk.to_baseband(dk.make_dc_reject_passband(0.9375), _C733)],
        lambda: [dk.to_baseband(_PASSBAND, _C733)],
        lambda: [dk.convolve(dk.make_2sr(_C733), dk.make_dcr(_C733))],
        lambda: [dk.convolve(dk.ComplexFilter([2.0]), dk.make_ma(3))],
        lambda: dk.parse_filter_spec("ma:14+2sr+dcr+iq+lp:0.01+hp:0.9375", _C14),
        lambda: dk.parse_filter_spec("hp:0.5+2sr+lp:1e-5", _C733),
    ],
    ids=[
        "ma1", "ma33", "2sr", "2sr-no-phase", "dcr", "iq", "lp", "lp-wide",
        "hp", "hp-baseband", "to-baseband", "convolve", "convolve-real",
        "spec-1/4", "spec-7/33",
    ],
)
def test_package_filters_are_the_validated_filter_bytewise(monkeypatch, build):
    # Every filter the package builds, the intermediate ones included, comes
    # from _owning: record what it was given, and build the same filter from
    # that through the public constructor.
    given = []
    owning = dk.ComplexFilter._owning.__func__

    def recorded(cls, taps, pole=None, domain=dk.Domain.BASEBAND):
        assert taps.dtype == np.complex128 and taps.flags.writeable
        copy = taps.copy()
        filt = owning(cls, taps, pole, domain)
        assert filt.taps is taps  # kept, not copied
        given.append((filt, copy, pole, domain))
        return filt

    monkeypatch.setattr(dk.ComplexFilter, "_owning", classmethod(recorded))
    built = build()
    assert {id(filt) for filt in built} <= {id(filt) for filt, *_ in given}
    for filt, taps, pole, domain in given:
        validated = dk.ComplexFilter(taps, pole=pole, domain=domain)
        assert not filt.taps.flags.writeable
        assert filt.taps.tobytes() == validated.taps.tobytes()
        assert repr(filt.pole) == repr(validated.pole)
        assert filt.domain is validated.domain
        assert filt._real == validated._real


def test_transformed_and_convolved_filters_share_no_memory_with_their_inputs():
    hp = dk.make_dc_reject_passband(0.9375)
    first, second = dk.make_2sr(_C733), dk.make_ma(1)
    assert not np.shares_memory(dk.to_baseband(hp, _C733).taps, hp.taps)
    convolved = dk.convolve(first, second)
    assert not np.shares_memory(convolved.taps, first.taps)
    assert not np.shares_memory(convolved.taps, second.taps)


def test_overflow_in_a_transform_or_a_convolution_is_a_domain_error():
    huge = dk.ComplexFilter(np.full(2, 1.5e308 + 1.5e308j), domain=dk.Domain.PASSBAND)
    # At ratio 1/8 the second tap turns by pi/4: its real part is 2.1e308.
    with pytest.raises(dk.DomainError, match="float range"):
        dk.to_baseband(huge, dk.CarrierConfig(1, 8))
    big = dk.ComplexFilter(np.full(2, 1e200))
    with pytest.raises(dk.DomainError, match="float range"):
        dk.convolve(big, big)


def test_a_low_pass_whose_pole_rounds_to_one_is_a_usage_error():
    # exp(-1e-17) rounds to 1.0: the pole would sit on the unit circle.
    with pytest.raises(dk.UsageError, match=r"bandwidth\*period 1e-17 .* rounds to 1"):
        dk.make_lp(1e-17, 1.0)
