"""Synthetic streams and experiments against the analytic baseband model."""

import math

import numpy as np
import pytest

import ddckit as dk


# -------------------------------------------------------------- synthesize

def test_synthesize_quarter_rate_cosine():
    spec = dk.SignalSpec(dk.ConstantEnvelope(1.0))
    y = dk.synthesize(spec, dk.CarrierConfig(1, 4), 4)
    assert np.allclose(y.values, [1, 0, -1, 0], atol=1e-15)


def test_synthesize_offset_only():
    spec = dk.SignalSpec(dk.ConstantEnvelope(0.0), dc_offset=0.012)
    y = dk.synthesize(spec, dk.CarrierConfig(7, 33), 10)
    assert np.allclose(y.values, 0.012, rtol=0, atol=0)


def test_synthesize_is_deterministic_per_seed():
    spec = dk.SignalSpec(dk.ConstantEnvelope(1.0), noise_sigma=0.5, seed=42)
    carrier = dk.CarrierConfig(7, 33)
    a = dk.synthesize(spec, carrier, 1000).values
    b = dk.synthesize(spec, carrier, 1000).values
    assert np.array_equal(a, b)
    other = dk.SignalSpec(dk.ConstantEnvelope(1.0), noise_sigma=0.5, seed=43)
    assert not np.array_equal(a, dk.synthesize(other, carrier, 1000).values)


def test_synthesize_harmonic_is_periodic_tone():
    carrier = dk.CarrierConfig(7, 33)
    spec = dk.SignalSpec(dk.ConstantEnvelope(0.0), harmonics=((3, 0.25),))
    y = dk.synthesize(spec, carrier, 99).values
    k = np.arange(99)
    expected = (0.25 * np.exp(1j * 3 * carrier.phase_step * k)).real
    assert np.allclose(y, expected, atol=1e-12)


def test_envelope_families():
    k = np.arange(6)
    step = dk.StepEnvelope(1.0, 2.0, 3)
    assert np.allclose(step.at(k), [1, 1, 1, 2, 2, 2])
    ramp = dk.PhaseRampEnvelope(2.0, 0.5)
    assert np.allclose(ramp.at(k), 2 * np.exp(0.5j * k))
    sampled = dk.SampledEnvelope(np.arange(10) * 1j)
    assert np.allclose(sampled.at(k), 1j * k)
    with pytest.raises(dk.UsageError):
        sampled.at(np.array([25]))


def test_signal_spec_validation():
    with pytest.raises(dk.UsageError):
        dk.SignalSpec(noise_sigma=-1.0)
    with pytest.raises(dk.UsageError):
        dk.SignalSpec(harmonics=((1, 0.1),))
    with pytest.raises(dk.UsageError):
        dk.SignalSpec(harmonics=((2, 0.1), (2, 0.2)))


# ---------------------------------------------------------- run_experiment

def test_noise_free_constant_envelope_is_exact():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_2sr(carrier))
    report = dk.run_experiment(
        dk.SignalSpec(dk.ConstantEnvelope(1 + 2j)), chain, 1000
    )
    assert report.rms_envelope_error < 1e-12
    assert report.noise_gain_empirical is None
    assert report.settling_samples == 1


def test_noise_only_gain_matches_block_average_energy():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_ma(11))
    spec = dk.SignalSpec(dk.ConstantEnvelope(0.0), noise_sigma=1.0, seed=5)
    report = dk.run_experiment(spec, chain, 200_000)
    assert report.noise_gain_analytic == pytest.approx(1 / 11, rel=1e-12)
    assert report.noise_gain_empirical == pytest.approx(
        1 / 11, abs=5 * report.noise_gain_stderr
    )


def test_offset_spur_magnitude_matches_prediction():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_2sr(carrier))
    offset = 0.012
    report = dk.run_experiment(
        dk.SignalSpec(dk.ConstantEnvelope(1.0), dc_offset=offset), chain, 33 * 40
    )
    predicted = offset / math.cos(carrier.phase_step / 2)  # 2*n0*|H(spur)|
    assert report.spur_level_db == pytest.approx(
        20 * math.log10(predicted), abs=0.05
    )


def test_spur_reject_filter_buries_the_offset_spur():
    carrier = dk.CarrierConfig(7, 33)
    ddc = dk.convolve(dk.make_2sr(carrier), dk.make_dcr(carrier))
    chain = dk.DdcChain(carrier, ddc)
    report = dk.run_experiment(
        dk.SignalSpec(dk.ConstantEnvelope(1.0), dc_offset=0.012), chain, 33 * 40
    )
    assert report.spur_level_db < -200


def test_run_experiment_rejects_short_runs():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_ma(33))
    with pytest.raises(dk.UsageError):
        dk.run_experiment(dk.SignalSpec(), chain, 100)


def test_step_response_latency_tracks_group_delay():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_ma(11))
    step_at = 200
    spec = dk.SignalSpec(dk.StepEnvelope(1.0, 3.0, step_at))
    out = dk.run(chain, dk.synthesize(spec, carrier, 400))
    crossed = np.flatnonzero(np.abs(out.seq.values - 1.0) >= 1.0)  # 50% of step
    delay = crossed[0] - step_at
    group = dk.phase_metrics(chain.ddc, 0.0, 1.0).group_delay
    assert abs(delay - group) <= 1.0


def test_experiment_determinism():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_ma(11))
    spec = dk.SignalSpec(dk.ConstantEnvelope(1.0), noise_sigma=0.3, seed=9)
    a = dk.run_experiment(spec, chain, 50_000)
    b = dk.run_experiment(spec, chain, 50_000)
    assert a == b


# --------------------------------------------------------- noise studies

def test_noise_gain_study_reports_stderr():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_ma(14))
    spec = dk.SignalSpec(dk.ConstantEnvelope(0.0), noise_sigma=2.0)
    study = dk.noise_gain_study(spec, chain, 100_000, list(range(6)))
    assert study.method == "monte-carlo"
    assert study.stderr is not None and study.stderr > 0
    assert abs(study.value - 1 / 14) < 4 * study.stderr


def test_empirical_ordering_gap_stays_small_for_reconstruction():
    # With the carrier near quarter rate, decimating by 2 before or after the
    # extra low-pass changes the measured noise gain by less than 1 dB across
    # the whole bandwidth sweep.
    carrier = dk.CarrierConfig(7, 33)
    spec = dk.SignalSpec(dk.ConstantEnvelope(0.0), noise_sigma=1.0)
    for rel in (1e-4, 3e-3, 1e-1):
        gains = {}
        for order in dk.ChainOrder:
            chain = dk.make_chain(
                carrier,
                dk.make_2sr(carrier),
                lp_bandwidth=rel * 2 * math.pi / carrier.sample_period,
                decimation=2,
                order=order,
            )
            gains[order] = dk.noise_gain_study(
                spec, chain, 150_000, list(range(6))
            ).value
        gap_db = 10 * math.log10(
            gains[dk.ChainOrder.DECIMATE_THEN_FILTER]
            / gains[dk.ChainOrder.FILTER_THEN_DECIMATE]
        )
        assert abs(gap_db) < 1.0


def test_noise_gain_study_requires_noise_and_seeds():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_ma(14))
    with pytest.raises(dk.UsageError):
        dk.noise_gain_study(dk.SignalSpec(), chain, 10_000, [0, 1])
    with pytest.raises(dk.UsageError):
        dk.noise_gain_study(
            dk.SignalSpec(noise_sigma=1.0), chain, 10_000, [0]
        )


def test_noise_gain_study_rejects_runs_with_no_clean_output(monkeypatch):
    # MA(14) decimated by 14: 14 samples give one output, still in the transient.
    carrier = dk.CarrierConfig(3, 14)
    chain = dk.DdcChain(carrier, dk.make_ma(14), decimation=14)

    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesized a stream for an empty study")

    monkeypatch.setattr("ddckit.simulate.synthesize", no_synthesis)
    with pytest.raises(dk.UsageError, match="post-transient"):
        dk.noise_gain_study(dk.SignalSpec(noise_sigma=1.0), chain, 14, [0, 1])


# --------------------------------------------------------- harmonic bias

def test_iq_harmonic_bias_zero_without_harmonic():
    assert abs(dk.iq_harmonic_bias(0.0, 4000)) < 1e-13


def test_iq_harmonic_bias_equals_conjugate_amplitude():
    # The image of the -3rd line lands exactly on zero baseband frequency
    # with conjugated amplitude and unit filter gain.
    amplitude = 0.01 * np.exp(0.3j)
    bias = dk.iq_harmonic_bias(amplitude, 4000)
    assert abs(bias - np.conj(amplitude)) < 1e-12


def test_coprime_block_average_rejects_the_same_harmonic():
    carrier = dk.CarrierConfig(7, 33)
    bias = dk.harmonic_bias(carrier, dk.make_ma(33), 3, 0.01, 33 * 40)
    assert abs(bias) < 1e-12


def test_iq_harmonic_bias_rejects_other_carriers():
    with pytest.raises(dk.UsageError):
        dk.iq_harmonic_bias(0.01, 4000, carrier=dk.CarrierConfig(7, 33))
