"""Chain composition: mixer, envelope recovery, ordering, latency metadata."""

import cmath
import dataclasses
import math
import warnings

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


@pytest.mark.parametrize("start", [0, 5, 40_000_007])
def test_mixer_is_the_doubled_phasor_at_the_absolute_index(start):
    # Pinned to the literal formula ``mixer_phases()[k % samples]``: through
    # mix_down on real and complex samples spanning several chunks, and
    # through a chain pass whose only stage is a unit tap, so its output is
    # the mixer's, slicing the table chains share.
    carrier = dk.CarrierConfig(7, 33)
    count = 2 * dk.pipeline._CHUNK + 777
    rng = np.random.default_rng(start)
    real = rng.standard_normal(count)
    cplx = real + 1j * rng.standard_normal(count)
    phasors = carrier.mixer_phases()[(start + np.arange(count)) % carrier.samples]
    for values, seq in ((real, dk.RealSeq(real, start)), (cplx, dk.ComplexSeq(cplx, start))):
        expected = 2.0 * values * phasors
        assert dk.mix_down(seq, carrier).values.tobytes() == expected.tobytes()
    step = dk.pipeline._Stepper(dk.DdcChain(carrier, dk.ComplexFilter([1.0])), start).step
    # A short first chunk moves every later chunk's offset in the table.
    bounds = [0, 1000, *range(1000 + dk.pipeline._CHUNK, count, dk.pipeline._CHUNK), count]
    mixed = np.concatenate([step(real[a:b]) for a, b in zip(bounds, bounds[1:])])
    assert mixed.tobytes() == (2.0 * real * phasors).tobytes()


def test_chains_of_one_carrier_ratio_share_one_read_only_mixer_table():
    # Building a chain builds no table; the first pass over a carrier ratio
    # builds one, read-only, which every later pass of that ratio, at any
    # sample rate, in run or in a noise study, slices.
    tables = dk.pipeline._chunk_mixer
    tables.cache_clear()
    fast, slow = dk.CarrierConfig(7, 33, 94.29e6), dk.CarrierConfig(7, 33, 1.0)
    chains = [
        dk.make_chain(fast, dk.make_2sr(fast)),
        dk.make_chain(slow, dk.make_ma(11), lp_bandwidth=0.1, decimation=3),
        dk.DdcChain(slow, dk.make_2sr(slow), pre_mixer=dk.make_dc_reject_passband(15 / 16)),
    ]
    assert tables.cache_info().currsize == 0
    for chain in chains:
        dk.run(chain, dk.RealSeq(np.ones(2000), start=40_000_007))
    spec = dk.SignalSpec(noise_sigma=1.0)
    dk.noise_gain_study(spec, chains[1], 2 * dk.pipeline._CHUNK + 5, [1, 2])
    assert tables.cache_info().currsize == 1
    table = tables(7, 33)
    assert all(dk.pipeline._Stepper(chain, 0)._table is table for chain in chains)
    assert not table.flags.writeable
    # A chunk from any offset within the first block, and not one phasor more.
    assert len(table) == dk.pipeline._CHUNK + 32 and table.base is None
    phasors = 2.0 * fast.mixer_phases()
    assert table.tobytes() == phasors[np.arange(len(table)) % 33].tobytes()
    other = dk.CarrierConfig(3, 14)
    assert dk.pipeline._Stepper(dk.DdcChain(other, dk.make_ma(14)), 0)._table is not table
    assert tables.cache_info().currsize == 2


def test_a_carrier_block_too_long_for_a_kept_table_is_mixed_chunk_by_chunk():
    # The last ratio whose table is kept gets one of exactly _MIXER_KEPT
    # phasors; a longer block gets none, and each chunk of a pass is mixed by
    # its own doubled phasors, ``2 * mixer_phases()[k % samples]``.
    tables = dk.pipeline._chunk_mixer
    tables.cache_clear()
    samples = dk.pipeline._MIXER_KEPT - dk.pipeline._CHUNK + 1
    kept = dk.DdcChain(dk.CarrierConfig(1, samples), dk.make_ma(3))
    assert len(dk.pipeline._Stepper(kept, 0)._table) == dk.pipeline._MIXER_KEPT
    assert tables.cache_info().currsize == 1
    tables.cache_clear()
    carrier = dk.CarrierConfig(1, samples + 1)
    count = 2 * dk.pipeline._CHUNK + 5
    real = np.random.default_rng(2).standard_normal(count)
    start = samples - 1000
    pass_ = dk.pipeline._Stepper(dk.DdcChain(carrier, dk.ComplexFilter([1.0])), start)
    assert pass_._table is None
    mixed = np.concatenate(
        [pass_.step(real[b : b + dk.pipeline._CHUNK]) for b in range(0, count, dk.pipeline._CHUNK)]
    )
    phasors = carrier.mixer_phases()[(start + np.arange(count)) % carrier.samples]
    assert mixed.tobytes() == (2.0 * real * phasors).tobytes()
    chain = dk.DdcChain(dk.CarrierConfig(1, 10**6), dk.make_ma(3))
    y = dk.RealSeq(real[:100], start=999_950)
    out = dk.run(chain, y)
    assert tables.cache_info().currsize == 0
    assert out.seq.values.tobytes() == _explicit_stages(chain, y).values.tobytes()


def test_a_short_call_on_a_long_carrier_block_evaluates_only_the_phasors_it_reaches(
    monkeypatch,
):
    # On a carrier block of 10**6 samples, 100 samples through mix_down,
    # synthesize or run evaluate at most 100 phasors, never a whole block,
    # and keep no table.
    carrier = dk.CarrierConfig(1, 10**6)
    chain = dk.make_chain(carrier, dk.make_ma(3), lp_bandwidth=0.5)
    spec = dk.SignalSpec(noise_sigma=0.1, dc_offset=0.2, harmonics=((2, 0.1),))
    y = dk.RealSeq(np.random.default_rng(3).standard_normal(100), start=999_950)
    expected = [
        dk.mix_down(y, carrier).values,
        dk.synthesize(spec, carrier, 100).values,
        dk.run(chain, y).seq.values,
    ]
    tables = dk.pipeline._chunk_mixer
    tables.cache_clear()
    sizes = []
    exp = np.exp

    def counted_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    def whole_block(self):
        raise AssertionError("a whole carrier block of phasors was evaluated")

    monkeypatch.setattr(np, "exp", counted_exp)
    monkeypatch.setattr(dk.CarrierConfig, "mixer_phases", whole_block)
    got = [
        dk.mix_down(y, carrier).values,
        dk.synthesize(spec, carrier, 100).values,
        dk.run(chain, y).seq.values,
    ]
    assert sizes and max(sizes) <= 100
    assert tables.cache_info().currsize == 0
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]


@pytest.mark.parametrize("start", [2**70, -(2**70)])
def test_a_huge_start_index_mixes_as_its_residue(start):
    # The start is reduced by the carrier block before it meets numpy, whose
    # integers would overflow.
    carrier = dk.CarrierConfig(7, 33)
    values = np.random.default_rng(4).standard_normal(2000)
    chain = dk.make_chain(carrier, dk.make_2sr(carrier), lp_bandwidth=0.05)

    def outputs(begin):
        y = dk.RealSeq(values, begin)
        return dk.mix_down(y, carrier).values.tobytes(), dk.run(chain, y).seq.values.tobytes()

    assert outputs(start) == outputs(start % carrier.samples)


def test_a_pass_fetches_its_kept_mixer_table_when_it_is_built():
    # Built with the pass, before any chunk, so a noise study's table comes
    # before the arrays of its first chunk.
    tables = dk.pipeline._chunk_mixer
    tables.cache_clear()
    pass_ = dk.pipeline._Stepper(dk.DdcChain(dk.CarrierConfig(5, 17), dk.make_ma(17)), 0)
    assert tables.cache_info().currsize == 1
    assert pass_._table is tables(5, 17)


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


def test_a_chain_is_hashable_and_compares_its_filters_by_identity():
    carrier = dk.CarrierConfig(7, 33)
    envelope = dk.make_2sr(carrier)
    chain = dk.make_chain(carrier, envelope, pre_mixer=dk.make_dc_reject_passband(0.9))
    same = dk.DdcChain(carrier, envelope, pre_mixer=chain.pre_mixer)
    assert hash(chain) == hash(same)
    assert (chain == same) is True
    # Equal taps in a distinct filter are a distinct filter.
    assert (chain == dk.make_chain(carrier, dk.make_2sr(carrier))) is False
    assert len({chain, same}) == 1


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
     ("decimation_phase", True), ("decimation_phase", 0.5), ("decimation_phase", 2)],
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


def _explicit_stages(chain, y):
    """The chain's output spelled out from the public primitives, each stage
    over the whole input in turn."""
    x = y if chain.pre_mixer is None else _through(chain.pre_mixer, y)
    z = _through(chain.ddc, dk.mix_down(x, chain.carrier))
    after = chain.order is dk.ChainOrder.DECIMATE_THEN_FILTER
    if chain.lowpass is not None and not after:
        z = _through(chain.lowpass, z)
    z = dk.decimate(z, chain.decimation, chain.decimation_phase)
    if after:
        z = _through(chain.lowpass, z)
    return z


def _count_validations(monkeypatch):
    validations = []
    validate = dk.core._validated_samples

    def counting_validate(*args, **kwargs):
        validations.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr("ddckit.core._validated_samples", counting_validate)
    return validations


_ADOPTING_CARRIER = dk.CarrierConfig(7, 33)
_ADOPTING_CHAIN = dk.make_chain(
    _ADOPTING_CARRIER, dk.make_2sr(_ADOPTING_CARRIER), lp_bandwidth=0.1, decimation=3
)
_ADOPTING_INPUT = dk.RealSeq(np.random.default_rng(4).standard_normal(600), start=9)
_ADOPTING_SPEC = dk.SignalSpec(noise_sigma=0.1, seed=3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dk.run(_ADOPTING_CHAIN, _ADOPTING_INPUT).seq,
        lambda: dk.synthesize(_ADOPTING_SPEC, _ADOPTING_CARRIER, 600),
        lambda: dk.filter_stream(
            _ADOPTING_CHAIN.lowpass, dk.FilterState(_ADOPTING_CHAIN.lowpass), _ADOPTING_INPUT
        ),
        lambda: dk.apply_filter(_ADOPTING_CHAIN.ddc, _ADOPTING_INPUT),
        lambda: dk.mix_down(_ADOPTING_INPUT, _ADOPTING_CARRIER),
        lambda: dk.decimate(_ADOPTING_INPUT, 3, 1),
        lambda: _ADOPTING_CHAIN.lowpass.impulse(8),
    ],
    ids=["run", "synthesize", "filter-stream", "apply-filter", "mix-down", "decimate",
         "impulse"],
)
def test_package_results_are_adopted_not_validated(call, monkeypatch):
    # Outside values are validated where they enter; what the package
    # computes from them is only adopted: read-only, not validated again.
    validations = _count_validations(monkeypatch)
    result = call()
    assert len(validations) == 0
    assert not getattr(result, "values", result).flags.writeable


def test_an_experiment_validates_nothing_it_computes(monkeypatch):
    validations = _count_validations(monkeypatch)
    dk.run_experiment(_ADOPTING_SPEC, _ADOPTING_CHAIN, 20_000)
    assert len(validations) == 0


# Low-passes with a complex pole.  Behind the pre-mixer's rotated pole, the
# second one's noise gain after a decimator by 1 differs in the last bit
# from the same cascade at one rate if that decimator lifts the poles before
# it (by 1, into numpy scalars), so that case pins that it lifts none.
_COMPLEX_LOWPASS = dk.ComplexFilter([0.1], pole=0.9 * cmath.exp(0.2j))
_LIFTED_LOWPASS = dk.ComplexFilter([0.64], pole=0.89 * cmath.exp(-1.6j))


@pytest.mark.parametrize(
    "pre_mixer, lowpass, decimation, phase",
    [
        *_chain_shapes(),
        (15 / 16, "same-before", 3, 1),
        (15 / 16, "same-after", 3, 1),
        (None, "complex-before", 1, 0),
        (15 / 16, "complex-before", 3, 1),
        (None, "complex-after", 1, 0),
        (15 / 16, "complex-after", 1, 0),
        (15 / 16, "complex-after", 3, 2),
        (15 / 16, "lifted-after", 1, 0),
    ],
)
def test_chain_shape_matches_its_explicit_stages(
    pre_mixer, lowpass, decimation, phase, monkeypatch
):
    # Every chain number is spelled out from the public primitives, stage by
    # stage, and must match exactly: low-pass before or after the decimator
    # (including after it at decimation 1), with and without a pre-mixer,
    # one object as both the envelope filter and the low-pass, and a
    # complex-pole low-pass.
    carrier = dk.CarrierConfig(7, 33, 3.0)
    h = carrier.sample_period
    after = lowpass is not None and lowpass.endswith("after")
    chain = dk.make_chain(
        carrier,
        dk.make_2sr(carrier),
        lp_bandwidth=None if lowpass is None else 0.01 * 2 * math.pi / h,
        pre_mixer=None if pre_mixer is None else dk.make_dc_reject_passband(pre_mixer),
        decimation=decimation,
        decimation_phase=phase,
        order=dk.ChainOrder.DECIMATE_THEN_FILTER if after else dk.ChainOrder.FILTER_THEN_DECIMATE,
    )
    if lowpass in ("same-before", "same-after"):
        chain = dataclasses.replace(chain, lowpass=chain.ddc)
    if lowpass in ("complex-before", "complex-after"):
        chain = dataclasses.replace(chain, lowpass=_COMPLEX_LOWPASS)
    if lowpass == "lifted-after":
        chain = dataclasses.replace(chain, lowpass=_LIFTED_LOWPASS)
    y = dk.RealSeq(np.random.default_rng(11).standard_normal(3000), start=5)
    z = _explicit_stages(chain, y)
    # The input was validated when it was built; run adopts its output.
    validations = _count_validations(monkeypatch)
    # The output's timing is read from the chain on demand, not on every block.
    timing_calls = {"group_delay_seconds": 0, "phase_metrics": 0}
    for module, name in ((dk.pipeline, "group_delay_seconds"), (dk.analysis, "phase_metrics")):

        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            timing_calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    out = dk.run(chain, y)
    assert len(validations) == 0
    assert timing_calls == {"group_delay_seconds": 0, "phase_metrics": 0}
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
    # Output j sits at input index phase + j*decimation; the first past the
    # transient is the first whose index reaches it.
    assert range(len(y))[chain._outputs] == range(phase, len(y), decimation)
    assert len(out.seq) == len(range(phase, len(y), decimation))
    assert chain._settled == max(0, math.ceil((memory - phase) / decimation))
    assert dk.group_delay_seconds(chain) == delay
    assert out.group_delay == delay

    before = [baseband for _, baseband, _ in stages]
    if after:
        before.pop()  # the low-pass runs after the decimator
        gain = dk.multirate_norm_sq(before, chain.lowpass, decimation).value
    else:
        gain = dk.h2_norm_sq(before).value
    assert dk.analytic_noise_gain(chain) == gain
    if lowpass == "lifted-after":
        # A decimator by 1 lifts no pole: this is the single-rate cascade.
        assert gain == dk.h2_norm_sq(before + [chain.lowpass]).value

    def key(filt):
        return filt.taps.tobytes(), filt.pole, filt.domain

    assert [key(filt) for filt in chain.baseband_stages()] == [key(filt) for filt in before]
    assert len(before) == 1 + (pre_mixer is not None) + (lowpass is not None and not after)


def _chunked_shapes():
    for pre_mixer, lowpass, decimation, phase in _chain_shapes():
        yield pre_mixer, lowpass, decimation, phase
    for pre_mixer in (None, 15 / 16):
        for lowpass in (None, "before", "after"):
            for phase in (0, 5, 13):
                yield pre_mixer, lowpass, 14, phase


@pytest.mark.parametrize("pre_mixer, lowpass, decimation, phase", list(_chunked_shapes()))
def test_chunked_run_matches_whole_stages(pre_mixer, lowpass, decimation, phase, monkeypatch):
    # run goes through its input in chunks, carrying each stage's state and
    # computing a pole-free FIR before the decimator only at the kept
    # samples; spelled out stage by stage over the whole input, every number
    # must be the same.  The input spans three chunks plus a remainder that
    # is a multiple of neither the decimation factor nor the carrier block.
    carrier = dk.CarrierConfig(7, 33, 3.0)
    h = carrier.sample_period
    after = lowpass == "after"
    chain = dk.make_chain(
        carrier,
        dk.make_ma(14) if decimation == 14 else dk.make_2sr(carrier),
        lp_bandwidth=None if lowpass is None else 0.01 * 2 * math.pi / h,
        pre_mixer=None if pre_mixer is None else dk.make_dc_reject_passband(pre_mixer),
        decimation=decimation,
        decimation_phase=phase,
        order=dk.ChainOrder.DECIMATE_THEN_FILTER if after else dk.ChainOrder.FILTER_THEN_DECIMATE,
    )
    remainder = 1001
    assert (decimation == 1 or remainder % decimation) and remainder % carrier.samples
    count = 3 * dk.pipeline._CHUNK + remainder
    y = dk.RealSeq(np.random.default_rng(13).standard_normal(count), start=40_000_007)
    z = _explicit_stages(chain, y)
    validations = _count_validations(monkeypatch)
    out = dk.run(chain, y)
    assert len(validations) == 0
    assert out.seq.values.tobytes() == z.values.tobytes()


@pytest.mark.parametrize(
    "count", [1000, 2 * dk.pipeline._CHUNK + 5], ids=["one-chunk", "three-chunks"]
)
def test_run_takes_the_output_its_kernel_built_without_a_copy(count, monkeypatch):
    # A decimated pole leaves a one-chunk output as a strided view.
    built = []
    kernel = dk.pipeline._run

    def recording_kernel(*args):
        built.append(kernel(*args))
        return built[-1]

    monkeypatch.setattr("ddckit.pipeline._run", recording_kernel)
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.make_chain(
        carrier, dk.make_2sr(carrier), lp_bandwidth=0.1, decimation=3, decimation_phase=1
    )
    y = dk.RealSeq(np.random.default_rng(2).standard_normal(count))
    validations = _count_validations(monkeypatch)
    out = dk.run(chain, y)
    assert len(validations) == 0
    assert out.seq.values is built[0]
    assert not out.seq.values.flags.writeable
    assert out.seq.start == 0


def test_run_output_beyond_float_range_is_a_domain_error():
    # Finite samples whose mixed and filtered values are not: the fault is
    # the result's range, not the caller's sequence, and numpy stays quiet.
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_2sr(carrier))
    y = dk.RealSeq(np.full(500, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dk.DomainError, match="float range"):
            dk.run(chain, y)


@pytest.mark.parametrize(
    "call",
    [
        lambda chain: dk.run(chain, dk.ComplexSeq(1j * np.ones(100))),
        lambda chain: dk.run(chain, np.ones(100)),
        lambda chain: dk.filter_stream(chain.ddc, dk.FilterState(chain.ddc), np.ones(100)),
        lambda chain: dk.mix_down(np.ones(100), chain.carrier),
        lambda chain: dk.mix_down([1.0, 2.0], chain.carrier),
    ],
    ids=["run-complex", "run-array", "filter-array", "mix-array", "mix-list"],
)
def test_stages_reject_what_is_not_a_sequence(call):
    chain = dk.DdcChain(dk.CarrierConfig(7, 33), dk.make_ma(3))
    with pytest.raises(dk.UsageError):
        call(chain)


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


@pytest.mark.parametrize("pre_mixer, lowpass, decimation, phase", list(_chunked_shapes()))
@pytest.mark.parametrize("lp_pole", [0.9, 0.0])
def test_transient_length_is_the_sum_over_stages(pre_mixer, lowpass, decimation, phase, lp_pole):
    # Derived once, when the chain is built: each stage's memory (taps minus
    # one) plus the settling horizon of its pole, scaled back to the input
    # rate after the decimator; a zero pole settles at once.
    carrier = dk.CarrierConfig(7, 33)
    after = lowpass == "after"
    chain = dk.DdcChain(
        carrier,
        dk.make_ma(14) if decimation == 14 else dk.make_2sr(carrier),
        lowpass=None if lowpass is None else dk.ComplexFilter([1.0 - lp_pole], pole=lp_pole),
        pre_mixer=None if pre_mixer is None else dk.make_dc_reject_passband(pre_mixer),
        decimation=decimation,
        decimation_phase=phase,
        order=dk.ChainOrder.DECIMATE_THEN_FILTER if after else dk.ChainOrder.FILTER_THEN_DECIMATE,
    )
    stages = [(chain.pre_mixer, 1), (chain.ddc, 1), (chain.lowpass, decimation if after else 1)]
    memory = 0
    for filt, rate in stages:
        if filt is not None:
            pole = abs(filt.pole or 0)
            horizon = 0 if pole == 0 else math.ceil(math.log(1e-12) / math.log(pole))
            memory += (len(filt.taps) - 1 + horizon) * rate
    assert dk.transient_length(chain) == memory


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


def test_run_needs_no_group_delay_when_the_envelope_filter_nulls_dc():
    # Every output sample is defined; only the group delay at DC is not.
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.ComplexFilter(np.array([0.5, -0.5])))
    y = dk.RealSeq(np.random.default_rng(3).standard_normal(200), start=4)
    out = dk.run(chain, y)
    expected = _through(chain.ddc, dk.mix_down(y, carrier))
    assert out.seq.values.tobytes() == expected.values.tobytes()
    with pytest.raises(dk.DomainError):
        out.group_delay


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


@pytest.mark.parametrize(
    "call",
    [
        lambda c: dk.DdcChain("x", dk.make_ma(3)),
        lambda c: dk.DdcChain(c, "x"),
        lambda c: dk.to_baseband("x", c),
        lambda c: dk.to_baseband(dk.make_dc_reject_passband(0.9), "x"),
        lambda c: dk.make_2sr("x"),
        lambda c: dk.convolve(dk.make_ma(3), "x"),
        lambda c: dk.make_chain(c, dk.make_ma(3), lp_bandwidth=0.1, order="x"),
        lambda c: dk.make_chain(c, dk.make_ma(3), lp_bandwidth=True),
    ],
    ids=["chain-carrier", "chain-ddc", "to-baseband", "to-baseband-carrier",
         "2sr-carrier", "convolve", "chain-order", "chain-lp-bool"],
)
def test_chain_fields_of_the_wrong_type_are_usage_errors(call):
    with pytest.raises(dk.UsageError):
        call(dk.CarrierConfig(7, 33))
