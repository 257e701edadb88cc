"""Synthetic streams and experiments against the analytic baseband model."""

import math
import sys
import threading
import time
import tracemalloc
import warnings

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


@pytest.mark.parametrize(
    "envelope",
    [
        dk.ConstantEnvelope(),
        dk.StepEnvelope(1, 2, 3),
        dk.PhaseRampEnvelope(1.0, 0.5),
        dk.SampledEnvelope(np.arange(10) * 1j),
    ],
    ids=["constant", "step", "ramp", "sampled"],
)
@pytest.mark.parametrize(
    "k",
    [None, "x", np.array([0.5]), np.array([True]), [[0], [0, 1]]],
    ids=["none", "text", "float", "bool", "ragged"],
)
def test_envelopes_take_only_integer_sample_indices(envelope, k):
    with pytest.raises(dk.UsageError, match="sample indices must be integers"):
        envelope.at(k)


def test_signal_spec_validation():
    with pytest.raises(dk.UsageError):
        dk.SignalSpec(noise_sigma=-1.0)
    with pytest.raises(dk.UsageError):
        dk.SignalSpec(harmonics=((1, 0.1),))
    with pytest.raises(dk.UsageError):
        dk.SignalSpec(harmonics=((2, 0.1), (2, 0.2)))


@pytest.mark.parametrize("seed", [-1, True, 1.0, "3"])
def test_signal_spec_rejects_bad_seeds(seed):
    with pytest.raises(dk.UsageError, match="seed"):
        dk.SignalSpec(noise_sigma=1.0, seed=seed)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"noise_sigma": "1"},
        {"noise_sigma": True},
        {"noise_sigma": math.nan},
        {"dc_offset": "x"},
        {"dc_offset": True},
        {"harmonics": ((2, "a"),)},
        {"harmonics": ((2, math.inf),)},
        {"harmonics": ((2,),)},
    ],
    ids=["sigma-str", "sigma-bool", "sigma-nan", "offset-str", "offset-bool",
         "amplitude-str", "amplitude-inf", "harmonic-not-a-pair"],
)
def test_signal_spec_rejects_bad_types(kwargs):
    with pytest.raises(dk.UsageError):
        dk.SignalSpec(**kwargs)


@pytest.mark.parametrize(
    "make_envelope",
    [
        lambda: 3,
        lambda: dk.ConstantEnvelope("x"),
        lambda: dk.ConstantEnvelope(math.nan),
        lambda: dk.ConstantEnvelope(True),
        lambda: dk.StepEnvelope(0.0, math.inf, 3),
        lambda: dk.StepEnvelope(0.0, 1.0, 2.5),
        lambda: dk.StepEnvelope(0.0, 1.0, True),
        lambda: dk.PhaseRampEnvelope(1.0, 0.1j),
        lambda: dk.PhaseRampEnvelope(1.0, math.nan),
        lambda: dk.PhaseRampEnvelope("1", 0.1),
        lambda: dk.SampledEnvelope(np.ones((2, 3))),
        lambda: dk.SampledEnvelope(np.array([1.0, math.nan])),
        lambda: dk.SampledEnvelope(np.array(["a", "b"])),
    ],
    ids=["int", "constant-str", "constant-nan", "constant-bool", "step-inf",
         "step-index-float", "step-index-bool", "ramp-complex-rate", "ramp-nan-rate",
         "ramp-str-amplitude", "sampled-2d", "sampled-nan", "sampled-str"],
)
def test_signal_spec_rejects_bad_envelopes(make_envelope):
    with pytest.raises(dk.UsageError):
        dk.SignalSpec(envelope=make_envelope())


@pytest.mark.parametrize("count", [2.5, True, "10"])
@pytest.mark.parametrize("entry", ["synthesize", "run_experiment", "noise_gain_study"])
def test_sample_counts_must_be_positive_integers(entry, count):
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_2sr(carrier))
    spec = dk.SignalSpec(noise_sigma=1.0)
    calls = {
        "synthesize": lambda: dk.synthesize(spec, carrier, count),
        "run_experiment": lambda: dk.run_experiment(spec, chain, count),
        "noise_gain_study": lambda: dk.noise_gain_study(spec, chain, count, [0, 1]),
    }
    with pytest.raises(dk.UsageError, match="count"):
        calls[entry]()


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


def test_noise_gain_study_rejects_repeated_or_bad_seeds():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_ma(11))
    spec = dk.SignalSpec(noise_sigma=1.0)
    with pytest.raises(dk.UsageError, match="distinct"):
        dk.noise_gain_study(spec, chain, 10_000, [3, 3])
    with pytest.raises(dk.UsageError, match="seed"):
        dk.noise_gain_study(spec, chain, 10_000, [0, -1])


def _noise_alone_gain(chain, sigma, seed, count):
    """Mean post-transient output power of ``chain`` run on the seeded ADC
    noise alone, over 4*sigma^2, composed from the public API."""
    j0 = max(
        0,
        math.ceil(
            (dk.transient_length(chain) - chain.decimation_phase) / chain.decimation
        ),
    )
    noise = sigma * np.random.default_rng(seed).standard_normal(count)
    out = dk.run(chain, dk.RealSeq(noise))
    return float(np.mean(np.abs(out.seq.values[j0:]) ** 2)) / (4.0 * sigma**2)


def _study_chain():
    carrier = dk.CarrierConfig(7, 33)
    return dk.make_chain(
        carrier,
        dk.make_2sr(carrier),
        lp_bandwidth=0.01 * 2 * math.pi / carrier.sample_period,
        decimation=3,
        decimation_phase=1,
    )


def test_noise_gain_study_runs_the_chain_once_per_seed(monkeypatch):
    # One stepper pass per seed, each from index 0 over the whole stream.
    passes = []

    class CountingStepper(dk.pipeline._Stepper):
        def __init__(self, *args):
            super().__init__(*args)
            passes.append(self)

    monkeypatch.setattr("ddckit.simulate._Stepper", CountingStepper)
    spec = dk.SignalSpec(dk.ConstantEnvelope(0.7 - 0.4j), noise_sigma=1.3)
    count = 2 * dk.pipeline._CHUNK + 5_000
    dk.noise_gain_study(spec, _study_chain(), count, [2, 5, 11])
    assert [stepper.index for stepper in passes] == [count] * 3


def test_noise_gain_study_is_the_noise_alone_composition():
    chain = _study_chain()
    sigma, count, seeds = 1.3, 20_000, [4, 7, 9]
    spec = dk.SignalSpec(dk.ConstantEnvelope(0.7 - 0.4j), noise_sigma=sigma)
    study = dk.noise_gain_study(spec, chain, count, seeds)
    gains = np.array([_noise_alone_gain(chain, sigma, s, count) for s in seeds])
    assert study.value == float(np.mean(gains))
    assert study.stderr == float(np.std(gains, ddof=1) / math.sqrt(len(seeds)))


def _whole_array_gain(chain, sigma, seed, count):
    """The noise gain of one seed composed over whole arrays: one draw, one
    run of the chain's array kernel, one power array."""
    j0 = max(
        0,
        math.ceil(
            (dk.transient_length(chain) - chain.decimation_phase) / chain.decimation
        ),
    )
    noise = sigma * np.random.default_rng(seed).standard_normal(count)
    z = dk.pipeline._run(chain, noise, 0)
    return float(np.mean(np.abs(z[j0:]) ** 2)) / (4.0 * sigma**2)


def _streamed_chains():
    """(name, chain, whether its first clean output lies past the first chunk)."""
    carrier = dk.CarrierConfig(7, 33)
    h = carrier.sample_period
    low = dk.ChainOrder.DECIMATE_THEN_FILTER
    # A pole at exp(-1e-3) settles over 27631 samples, past the first chunk.
    slow, fast = 1e-3 / h, 0.01 * 2 * math.pi / h
    two_sr = dk.make_2sr(carrier)
    yield "full-rate-slow", dk.make_chain(carrier, two_sr, lp_bandwidth=slow), True
    yield "slow-then-decimate", dk.make_chain(
        carrier, two_sr, lp_bandwidth=slow, decimation=3, decimation_phase=2
    ), True
    yield "decimate-then-slow", dk.make_chain(
        carrier, two_sr, lp_bandwidth=slow, decimation=3, decimation_phase=2, order=low
    ), True
    yield "filter-then-decimate", dk.make_chain(
        carrier, two_sr, lp_bandwidth=fast, decimation=3, decimation_phase=1
    ), False
    yield "decimate-then-filter", dk.make_chain(
        carrier, two_sr, lp_bandwidth=fast, decimation=3, decimation_phase=1, order=low
    ), False
    yield "polyphase-ma", dk.DdcChain(
        dk.CarrierConfig(3, 14), dk.make_ma(14), decimation=14, decimation_phase=5
    ), False


@pytest.mark.parametrize(
    "chain, past_first_chunk",
    [(c, past) for _, c, past in _streamed_chains()],
    ids=[name for name, _, _ in _streamed_chains()],
)
def test_streamed_noise_gain_study_is_the_whole_array_composition(chain, past_first_chunk):
    # The study draws, runs and squares chunk by chunk; over a count that is
    # not a multiple of the chunk, every number is that of whole arrays.
    j0 = math.ceil((dk.transient_length(chain) - chain.decimation_phase) / chain.decimation)
    first_chunk = len(range(chain.decimation_phase, dk.pipeline._CHUNK, chain.decimation))
    assert (j0 > first_chunk) == past_first_chunk
    sigma, seeds = 0.9, [3, 8]
    count = 3 * dk.pipeline._CHUNK + 12_345
    study = dk.noise_gain_study(dk.SignalSpec(noise_sigma=sigma), chain, count, seeds)
    gains = np.array([_whole_array_gain(chain, sigma, s, count) for s in seeds])
    expected = [np.mean(gains), np.std(gains, ddof=1) / math.sqrt(len(seeds))]
    assert np.array([study.value, study.stderr]).tobytes() == np.array(expected).tobytes()


def test_noise_gain_study_holds_only_the_output_power_in_memory():
    # A full-rate study at 2**19 samples: the post-transient power array
    # (4 MiB) plus chunk-sized temporaries, not the whole noise or output.
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.DdcChain(carrier, dk.make_2sr(carrier))
    count = 1 << 19
    spec = dk.SignalSpec(noise_sigma=1.0)
    dk.noise_gain_study(spec, chain, 1 << 12, [1, 2])  # warm up caches
    tracemalloc.start()
    try:
        dk.noise_gain_study(spec, chain, count, [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    power = 8 * (count - dk.transient_length(chain))
    assert peak < power + 2 * 2**20


# A study draws its noise on one worker thread, through a bounded queue, ahead
# of the chain.

def _outcome_within(seconds, call):
    """What ``call`` returned or raised, run on a thread of its own so that a
    study that hangs fails the test instead of stalling the suite."""
    outcome = []

    def target():
        try:
            outcome.append(call())
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"the study did not finish within {seconds} s"
    return outcome[0]


def _threaded_study(count=2 * dk.pipeline._CHUNK + 5_000, seeds=(2, 5, 11)):
    spec = dk.SignalSpec(noise_sigma=1.3)
    return lambda: dk.noise_gain_study(spec, _study_chain(), count, list(seeds))


def test_noise_gain_study_leaves_no_thread_behind():
    before = threading.active_count()
    report = _outcome_within(60, _threaded_study())
    assert isinstance(report, dk.NormReport)
    assert threading.active_count() == before


def test_a_refused_noise_gain_study_starts_no_thread(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew noise for a refused study")

    monkeypatch.setattr("ddckit.simulate._adc_noise", no_draw)
    before = threading.active_count()
    with pytest.raises(dk.UsageError, match="distinct"):
        _threaded_study(seeds=(3, 3))()
    assert threading.active_count() == before


def test_a_failing_chain_pass_stops_the_drawing_thread(monkeypatch):
    # The worker is still drawing the fourth chunk when the third one fails.
    failure = RuntimeError("the third chunk")
    real_step, real_noise = dk.pipeline._Stepper.step, dk.simulate._adc_noise
    steps = []

    def slow_noise(*args):
        for chunk in real_noise(*args):
            time.sleep(0.05)
            yield chunk

    def failing_step(self, values):
        steps.append(len(values))
        if len(steps) == 3:
            time.sleep(0.01)  # the worker starts on the next chunk
            raise failure
        return real_step(self, values)

    monkeypatch.setattr(dk.pipeline._Stepper, "step", failing_step)
    monkeypatch.setattr("ddckit.simulate._adc_noise", slow_noise)
    before = threading.active_count()
    assert _outcome_within(60, _threaded_study()) is failure
    assert len(steps) == 3
    assert threading.active_count() == before


def test_a_failing_draw_is_raised_in_the_caller(monkeypatch):
    failure = MemoryError("mid-seed")
    real_noise = dk.simulate._adc_noise

    def failing_noise(sigma, seed, count):
        chunks = real_noise(sigma, seed, count)
        yield next(chunks)
        if seed == 5:
            raise failure
        yield from chunks

    monkeypatch.setattr("ddckit.simulate._adc_noise", failing_noise)
    before = threading.active_count()
    assert _outcome_within(60, _threaded_study()) is failure
    assert threading.active_count() == before


def test_a_chain_that_fails_while_the_queue_is_full_stops_the_drawing_thread(monkeypatch):
    # The first chunk fails once the worker has filled the queue and drawn
    # one more chunk, which it is blocked putting.
    failure = RuntimeError("the first chunk")
    real_noise = dk.simulate._adc_noise
    drawn, blocked = [], threading.Event()

    def counted_noise(*args):
        for chunk in real_noise(*args):
            drawn.append(1)
            if len(drawn) == dk.simulate._AHEAD + 2:
                blocked.set()
            yield chunk

    def failing_step(self, values):
        assert blocked.wait(10), "the worker did not fill the queue"
        time.sleep(0.01)  # the worker reaches its put
        raise failure

    monkeypatch.setattr(dk.pipeline._Stepper, "step", failing_step)
    monkeypatch.setattr("ddckit.simulate._adc_noise", counted_noise)
    before = threading.active_count()
    assert _outcome_within(60, _threaded_study()) is failure
    # The stepped chunk, the queue's, the blocked one and at most one more.
    assert len(drawn) <= dk.simulate._AHEAD + 3 < 3 * 3
    assert threading.active_count() == before


def test_a_draw_that_fails_while_the_queue_is_full_is_raised_after_its_chunks(
    monkeypatch,
):
    # The first step waits until the draw of the fourth chunk, the second
    # seed's first, has failed: the queue then holds the second and third.
    failure = MemoryError("the second seed")
    real_step, real_noise = dk.pipeline._Stepper.step, dk.simulate._adc_noise
    failed, steps, waits = threading.Event(), [], []

    def failing_noise(sigma, seed, count):
        if seed == 5:
            failed.set()
            raise failure
        yield from real_noise(sigma, seed, count)

    def waiting_step(self, values):
        if not steps:
            waits.append(failed.wait(10))
        steps.append(len(values))
        return real_step(self, values)

    monkeypatch.setattr(dk.pipeline._Stepper, "step", waiting_step)
    monkeypatch.setattr("ddckit.simulate._adc_noise", failing_noise)
    before = threading.active_count()
    assert _outcome_within(60, _threaded_study()) is failure
    assert waits == [True]
    assert len(steps) == 3  # the first seed's chunks, all drawn before the failure
    assert threading.active_count() == before


def test_the_noise_is_drawn_on_a_worker_at_most_the_queue_and_one_chunk_ahead(
    monkeypatch,
):
    drawn, ahead, drawers = [], [], set()
    real_noise, real_step = dk.simulate._adc_noise, dk.pipeline._Stepper.step

    def counted_noise(sigma, seed, count):
        for chunk in real_noise(sigma, seed, count):
            drawers.add(threading.get_ident())
            drawn.append(1)
            yield chunk

    def counted_step(self, values):
        time.sleep(0.002)  # room for the worker to draw what it may
        ahead.append(len(drawn) - len(ahead) - 1)
        return real_step(self, values)

    monkeypatch.setattr("ddckit.simulate._adc_noise", counted_noise)
    monkeypatch.setattr(dk.pipeline._Stepper, "step", counted_step)
    _threaded_study()()
    assert drawers and threading.get_ident() not in drawers
    assert len(ahead) == len(drawn) == 3 * 3
    # Beyond the chunk being stepped: the queue's chunks and the one the
    # worker holds while it waits to put it.
    assert 0 <= min(ahead) and max(ahead) <= dk.simulate._AHEAD + 1


@pytest.mark.parametrize("slowed", ["chain", "draw"])
def test_noise_gain_study_does_not_depend_on_how_its_threads_interleave(
    monkeypatch, slowed
):
    study = _threaded_study()
    unslowed = study()
    if slowed == "chain":
        real_step = dk.pipeline._Stepper.step

        def slow_step(self, values):
            time.sleep(0.001)
            return real_step(self, values)

        monkeypatch.setattr(dk.pipeline._Stepper, "step", slow_step)
    else:
        real_noise = dk.simulate._adc_noise

        def slow_noise(*args):
            for chunk in real_noise(*args):
                time.sleep(0.001)
                yield chunk

        monkeypatch.setattr("ddckit.simulate._adc_noise", slow_noise)
    slow = study()
    assert (
        np.array([slow.value, slow.stderr]).tobytes()
        == np.array([unslowed.value, unslowed.stderr]).tobytes()
    )


def test_concurrent_noise_gain_studies_under_fast_thread_switching():
    # Three studies at once, six threads on two cores, switching threads
    # every microsecond: each study gives the bytes it gives alone.
    studies = [_threaded_study(seeds=(s, s + 1, s + 2)) for s in (1, 10, 20)]
    alone = [study() for study in studies]
    outcomes = [[] for _ in studies]
    threads = [
        threading.Thread(target=lambda s=s, o=o: o.append(s()), daemon=True)
        for s, o in zip(studies, outcomes)
    ]
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threading.active_count() == before
    for report, (together,) in zip(alone, outcomes):
        assert (
            np.array([together.value, together.stderr]).tobytes()
            == np.array([report.value, report.stderr]).tobytes()
        )


def test_signal_beyond_float_range_is_a_domain_error():
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.make_chain(carrier, dk.make_2sr(carrier))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dk.DomainError, match="float range"):
            dk.run_experiment(dk.SignalSpec(dk.ConstantEnvelope(1e308)), chain, 5000)


def test_noise_gain_study_depends_only_on_the_noise():
    chain = _study_chain()
    loaded = dk.SignalSpec(
        dk.ConstantEnvelope(1 + 2j),
        noise_sigma=0.8,
        dc_offset=0.05,
        harmonics=((3, 0.2 - 0.1j),),
        seed=17,
    )
    bare = dk.SignalSpec(dk.ConstantEnvelope(0.0), noise_sigma=0.8)
    seeds = [1, 2, 3, 4]
    assert dk.noise_gain_study(loaded, chain, 20_000, seeds) == dk.noise_gain_study(
        bare, chain, 20_000, seeds
    )


def test_run_experiment_noise_gain_is_the_noise_alone_composition():
    chain = _study_chain()
    spec = dk.SignalSpec(
        dk.ConstantEnvelope(0.7 - 0.4j), noise_sigma=1.3, dc_offset=0.01, seed=23
    )
    report = dk.run_experiment(spec, chain, 20_000)
    assert report.noise_gain_empirical == _noise_alone_gain(chain, 1.3, 23, 20_000)


def test_run_experiment_draws_its_noise_once(monkeypatch):
    calls = []
    real_noise = dk.simulate._adc_noise

    def counting_noise(*args, **kwargs):
        calls.append(1)
        return real_noise(*args, **kwargs)

    monkeypatch.setattr("ddckit.simulate._adc_noise", counting_noise)
    spec = dk.SignalSpec(dk.ConstantEnvelope(0.7 - 0.4j), noise_sigma=1.3, seed=23)
    dk.run_experiment(spec, _study_chain(), 20_000)
    assert len(calls) == 1


def test_noise_gain_study_rejects_runs_with_no_clean_output(monkeypatch):
    # MA(14) decimated by 14: 14 samples give one output, still in the transient.
    carrier = dk.CarrierConfig(3, 14)
    chain = dk.DdcChain(carrier, dk.make_ma(14), decimation=14)

    def no_run(*args, **kwargs):
        raise AssertionError("ran the chain for an empty study")

    monkeypatch.setattr("ddckit.simulate._Stepper", no_run)
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


# ------------------------------------------------- noise beyond float range

@pytest.mark.parametrize("sigma", [9e153, 1e200, 10**200], ids=["9e153", "1e200", "int"])
def test_signal_spec_rejects_a_noise_power_beyond_float_range(sigma):
    with pytest.raises(dk.UsageError, match="noise_sigma"):
        dk.SignalSpec(noise_sigma=sigma)


@pytest.mark.parametrize("entry", ["noise_gain_study", "run_experiment"])
def test_noise_estimate_beyond_float_range_is_a_domain_error(entry):
    # 4*sigma**2 is finite, but the output power of some samples is not.
    spec = dk.SignalSpec(noise_sigma=5e153)
    chain = _study_chain()
    with pytest.raises(dk.DomainError, match="monte-carlo"):
        if entry == "noise_gain_study":
            dk.noise_gain_study(spec, chain, 5_000, [1, 2])
        else:
            dk.run_experiment(spec, chain, 5_000)


@pytest.mark.parametrize(
    "value, stderr",
    [(math.inf, None), (math.nan, None), (1.0, math.nan), (1.0, math.inf)],
)
def test_norm_report_refuses_non_finite_numbers(value, stderr):
    with pytest.raises(dk.DomainError):
        dk.NormReport(value, "monte-carlo", stderr)
