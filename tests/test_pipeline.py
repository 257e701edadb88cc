"""Chain composition: mixer, envelope recovery, ordering, latency metadata."""

import math

import numpy as np
import pytest

import ddckit as dk


def _carrier_tone(carrier, envelope, count, start=0):
    k = np.arange(start, start + count)
    table = np.conj(carrier.mixer_phases())
    return dk.RealSeq((envelope * table[k % carrier.samples]).real, start=start)


# ------------------------------------------------------------------ mixer

def test_mix_down_zero_is_zero():
    out = dk.mix_down(dk.RealSeq(np.zeros(8)), dk.CarrierConfig(7, 33))
    assert np.array_equal(out.values, np.zeros(8, dtype=complex))


def test_mix_down_quarter_rate_cosine():
    carrier = dk.CarrierConfig(1, 4)
    y = dk.RealSeq(np.cos(math.pi * np.arange(4) / 2))
    out = dk.mix_down(y, carrier)
    # 2*exp(-1j*pi*k/2)*cos(pi*k/2) = 1 + exp(-1j*pi*k)
    assert np.allclose(out.values, [2, 0, 2, 0], atol=1e-15)


def test_mix_down_conjugate_image_has_envelope_magnitude():
    carrier = dk.CarrierConfig(5, 17)
    envelope = 1 + 2j
    y = _carrier_tone(carrier, envelope, 200)
    out = dk.mix_down(y, carrier)
    k = np.arange(200)
    image = np.conj(envelope) * carrier.mixer_phases() ** 2  # exp(-2j*step*k)
    assert np.allclose(
        out.values - envelope, image[k % 17], rtol=0, atol=1e-12
    )
    assert np.allclose(np.abs(out.values - envelope), abs(envelope), atol=1e-12)


def test_mix_down_is_start_index_aware():
    carrier = dk.CarrierConfig(7, 33)
    y = _carrier_tone(carrier, 0.7 - 0.2j, 150)
    whole = dk.mix_down(y, carrier).values
    head = dk.mix_down(dk.RealSeq(y.values[:70]), carrier).values
    tail = dk.mix_down(dk.RealSeq(y.values[70:], start=70), carrier).values
    assert np.array_equal(np.concatenate([head, tail]), whole)


# ------------------------------------------------------------- chain rules

def test_chain_validates_domains():
    carrier = dk.CarrierConfig(7, 33)
    passband = dk.make_dc_reject_passband(0.9)
    with pytest.raises(dk.UsageError):
        dk.DdcChain(carrier, ddc=dk.to_baseband(passband, carrier), lowpass=passband)
    with pytest.raises(dk.UsageError):
        dk.DdcChain(carrier, ddc=passband)
    with pytest.raises(dk.UsageError):
        dk.DdcChain(carrier, ddc=dk.make_ma(33), pre_mixer=dk.make_ma(3))


def test_chain_decimate_then_filter_requires_lowpass():
    carrier = dk.CarrierConfig(7, 33)
    with pytest.raises(dk.UsageError):
        dk.DdcChain(
            carrier,
            ddc=dk.make_ma(33),
            decimation=33,
            order=dk.ChainOrder.DECIMATE_THEN_FILTER,
        )


@pytest.mark.parametrize(
    "field, value",
    [("decimation", True), ("decimation", 2.0),
     ("decimation_phase", True), ("decimation_phase", 0.5)],
)
def test_chain_rejects_non_integer_decimation(field, value):
    carrier = dk.CarrierConfig(7, 33)
    fields = {"decimation": 2, "decimation_phase": 0, field: value}
    with pytest.raises(dk.UsageError):
        dk.DdcChain(carrier, dk.make_ma(4), **fields)


def test_make_chain_builds_lowpass_at_stage_rate():
    carrier = dk.CarrierConfig(7, 33, 10.0)
    bandwidth = 0.05
    fast = dk.make_chain(carrier, dk.make_ma(33), lp_bandwidth=bandwidth,
                         decimation=33)
    slow = dk.make_chain(carrier, dk.make_ma(33), lp_bandwidth=bandwidth,
                         decimation=33, order=dk.ChainOrder.DECIMATE_THEN_FILTER)
    h = carrier.sample_period
    assert fast.lowpass.pole == pytest.approx(math.exp(-bandwidth * h))
    assert slow.lowpass.pole == pytest.approx(math.exp(-bandwidth * 33 * h))


# ---------------------------------------------------------------- recovery

def test_two_sample_chain_recovers_constant_envelope_exactly():
    carrier = dk.CarrierConfig(7, 33)
    envelope = 1 + 2j
    chain = dk.DdcChain(carrier, dk.make_2sr(carrier))
    out = dk.run(chain, _carrier_tone(carrier, envelope, 240))
    assert np.max(np.abs(out.seq.values[1:] - envelope)) < 1e-12


def test_block_average_chain_recovers_after_one_block():
    carrier = dk.CarrierConfig(7, 33)
    envelope = -0.3 + 0.9j
    chain = dk.DdcChain(carrier, dk.make_ma(33))
    out = dk.run(chain, _carrier_tone(carrier, envelope, 240))
    assert np.max(np.abs(out.seq.values[32:] - envelope)) < 1e-12


def test_reconstruction_with_spur_reject_nulls_dc_offset():
    carrier = dk.CarrierConfig(7, 33)
    envelope = 1 + 2j
    ddc = dk.convolve(dk.make_2sr(carrier), dk.make_dcr(carrier))
    y = _carrier_tone(carrier, envelope, 240)
    chain = dk.DdcChain(carrier, ddc)
    out = dk.run(chain, dk.RealSeq(y.values + 0.01))
    assert np.max(np.abs(out.seq.values[3:] - envelope)) < 1e-12


def test_premixer_high_pass_removes_offset_after_settling():
    carrier = dk.CarrierConfig(7, 33)
    envelope = 0.8 - 0.4j
    chain = dk.DdcChain(
        carrier,
        dk.make_2sr(carrier),
        pre_mixer=dk.make_dc_reject_passband(15 / 16),
    )
    settle = dk.transient_length(chain)
    count = settle + 400
    y = _carrier_tone(carrier, envelope, count)
    out = dk.run(chain, dk.RealSeq(y.values + 0.012))
    tail = out.seq.values[settle:]
    # The high pass also reshapes the carrier line slightly, so compare
    # against the predicted complex gain at zero baseband frequency.
    gain = dk.freq_response(
        [dk.to_baseband(chain.pre_mixer, carrier)], np.array([0.0])
    )[0]
    assert np.max(np.abs(tail - envelope * gain)) < 1e-10


# ---------------------------------------------------------------- ordering

def test_orders_identical_when_not_decimating():
    carrier = dk.CarrierConfig(7, 33)
    y = dk.RealSeq(np.random.default_rng(3).standard_normal(500))
    bandwidth = 0.3 / carrier.sample_period
    a = dk.make_chain(carrier, dk.make_2sr(carrier), lp_bandwidth=bandwidth)
    b = dk.make_chain(
        carrier,
        dk.make_2sr(carrier),
        lp_bandwidth=bandwidth,
        order=dk.ChainOrder.DECIMATE_THEN_FILTER,
    )
    assert np.array_equal(dk.run(a, y).seq.values, dk.run(b, y).seq.values)


def test_decimation_keeps_requested_phase():
    carrier = dk.CarrierConfig(7, 33)
    y = _carrier_tone(carrier, 1.0, 330)
    full = dk.run(dk.DdcChain(carrier, dk.make_ma(33)), y).seq.values
    for phase in (0, 1, 4):
        chain = dk.DdcChain(carrier, dk.make_ma(33), decimation=5,
                            decimation_phase=phase)
        dec = dk.run(chain, y).seq.values
        assert np.array_equal(dec, full[phase::5])


def test_decimated_noise_gain_matches_multirate_norm():
    # Monte-Carlo check of the noble-identity accounting in the chain.
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.make_chain(
        carrier,
        dk.make_2sr(carrier),
        lp_bandwidth=0.01 * 2 * math.pi / carrier.sample_period,
        decimation=2,
        order=dk.ChainOrder.DECIMATE_THEN_FILTER,
    )
    spec = dk.SignalSpec(dk.ConstantEnvelope(0), noise_sigma=1.0)
    study = dk.noise_gain_study(spec, chain, 300_000, list(range(6)))
    predicted = dk.analytic_noise_gain(chain)
    assert abs(study.value - predicted) < 4 * study.stderr


# ------------------------------------------------------------ chain shapes

def _chain_shapes():
    for pre_mixer in (None, 15 / 16):
        for lowpass in (None, "before", "after"):
            for decimation in (1, 3):
                for phase in range(decimation):
                    yield pre_mixer, lowpass, decimation, phase


def _through(filt, x):
    return dk.filter_stream(filt, dk.FilterState(filt), x)


@pytest.mark.parametrize("pre_mixer, lowpass, decimation, phase", list(_chain_shapes()))
def test_chain_shape_matches_its_explicit_stages(pre_mixer, lowpass, decimation, phase):
    # Every chain number is spelled out from the public primitives, stage by
    # stage, and must match exactly: low-pass before or after the decimator
    # (including after it at decimation 1), with and without a pre-mixer.
    carrier = dk.CarrierConfig(7, 33, 3.0)
    h = carrier.sample_period
    after = lowpass == "after"
    chain = dk.make_chain(
        carrier,
        dk.make_2sr(carrier),
        lp_bandwidth=None if lowpass is None else 0.01 * 2 * math.pi / h,
        pre_mixer=None if pre_mixer is None else dk.make_dc_reject_passband(pre_mixer),
        decimation=decimation,
        decimation_phase=phase,
        order=dk.ChainOrder.DECIMATE_THEN_FILTER if after else dk.ChainOrder.FILTER_THEN_DECIMATE,
    )
    y = dk.RealSeq(np.random.default_rng(11).standard_normal(3000), start=5)

    x = y if pre_mixer is None else _through(chain.pre_mixer, y)
    z = _through(chain.ddc, dk.mix_down(x, carrier))
    if lowpass == "before":
        z = _through(chain.lowpass, z)
    z = dk.decimate(z, decimation, phase)
    if after:
        z = _through(chain.lowpass, z)
    out = dk.run(chain, y)
    assert out.seq.values.tobytes() == z.values.tobytes()
    assert out.seq.start == 0
    assert out.sample_period == h * decimation
    assert out.decimation_delay == 0.5 * h * decimation

    # (filter as it runs, baseband form, input samples per stage sample)
    stages = [(chain.ddc, chain.ddc, 1)]
    if pre_mixer is not None:
        stages.insert(0, (chain.pre_mixer, dk.to_baseband(chain.pre_mixer, carrier), 1))
    if lowpass is not None:
        stages.append((chain.lowpass, chain.lowpass, decimation if after else 1))
    memory = 0
    delay = 0.0
    for filt, baseband, rate in stages:
        horizon = 0 if filt.pole is None else math.ceil(math.log(1e-12) / math.log(abs(filt.pole)))
        memory += (len(filt.taps) - 1 + horizon) * rate
        delay += dk.phase_metrics(baseband, 0.0, h * rate).group_delay
    assert dk.transient_length(chain) == memory
    assert dk.group_delay_seconds(chain) == delay
    assert out.group_delay == delay

    before = [baseband for _, baseband, _ in stages]
    if after:
        before.pop()  # the low-pass runs after the decimator
        gain = dk.multirate_norm_sq(before, chain.lowpass, decimation).value
    else:
        gain = dk.h2_norm_sq(before).value
    assert dk.analytic_noise_gain(chain) == gain
    assert len(chain.baseband_stages()) == len(before)
    assert len(before) == 1 + (pre_mixer is not None) + (lowpass == "before")


# ------------------------------------------------------------------ timing

def test_transient_length_values():
    carrier = dk.CarrierConfig(7, 33)
    assert dk.transient_length(dk.DdcChain(carrier, dk.make_2sr(carrier))) == 1
    cascade = dk.convolve(dk.make_ma(11), dk.make_2sr(carrier))
    assert dk.transient_length(dk.DdcChain(carrier, cascade)) == 11
    chain = dk.make_chain(
        carrier, dk.make_2sr(carrier), lp_bandwidth=-math.log(0.9) / carrier.sample_period
    )
    assert dk.transient_length(chain) == 1 + 263


def test_transient_scales_lowrate_settling_back_to_input_rate():
    carrier = dk.CarrierConfig(7, 33)
    bandwidth = -math.log(0.9) / (4 * carrier.sample_period)  # pole 0.9 at rate/4
    chain = dk.make_chain(
        carrier,
        dk.make_2sr(carrier),
        lp_bandwidth=bandwidth,
        decimation=4,
        order=dk.ChainOrder.DECIMATE_THEN_FILTER,
    )
    assert dk.transient_length(chain) == 1 + 263 * 4


def test_run_rejects_input_shorter_than_transient():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_ma(33))
    with pytest.raises(dk.UsageError):
        dk.run(chain, dk.RealSeq(np.zeros(16)))


def test_output_metadata_periods_and_delays():
    carrier = dk.CarrierConfig(3, 14, 117.40e6)
    h = carrier.sample_period
    chain = dk.DdcChain(carrier, dk.make_ma(14), decimation=14)
    out = dk.run(chain, _carrier_tone(carrier, 1.0, 700))
    assert out.sample_period == pytest.approx(14 * h)
    assert out.decimation_delay == pytest.approx(7 * h)
    assert out.group_delay == pytest.approx(6.5 * h, rel=1e-6)


def test_group_delay_sums_over_stages():
    carrier = dk.CarrierConfig(7, 33, 1.0)
    bandwidth = 0.02 * 2 * math.pi
    chain = dk.make_chain(carrier, dk.make_ma(11), lp_bandwidth=bandwidth)
    lp_delay = dk.phase_metrics(dk.make_lp(bandwidth, 1.0), 0.0, 1.0).group_delay
    assert dk.group_delay_seconds(chain) == pytest.approx(5.0 + lp_delay, rel=1e-9)


def test_baseband_stages_include_transformed_premixer():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(
        carrier,
        dk.make_2sr(carrier),
        pre_mixer=dk.make_dc_reject_passband(0.9),
    )
    stages = chain.baseband_stages()
    assert len(stages) == 2
    assert stages[0].domain is dk.Domain.BASEBAND
    assert stages[0].pole == pytest.approx(0.9 * np.exp(-1j * carrier.phase_step))
