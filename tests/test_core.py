"""Core types: carrier config, sequences, streaming filters, decimation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddckit as dk


# ---------------------------------------------------------------- carrier

def test_carrier_derived_quantities():
    c = dk.CarrierConfig(7, 33, 94.29e6)
    assert c.phase_step == pytest.approx(2 * math.pi * 7 / 33, rel=0, abs=0)
    assert c.sample_period == pytest.approx(1 / 94.29e6)
    assert c.carrier_freq == pytest.approx(94.29e6 * 7 / 33)
    assert c.is_coprime


def test_carrier_iq_phase_step_is_exact():
    # 2*pi*1/4 and pi/2 are the same double; the harmonic grid depends on it.
    assert dk.CarrierConfig(1, 4).phase_step == math.pi / 2


def test_carrier_non_coprime_flagged_not_rejected():
    c = dk.CarrierConfig(2, 8)
    assert not c.is_coprime


@pytest.mark.parametrize("periods,samples", [(0, 4), (4, 4), (3, 6), (2, 4), (-1, 4)])
def test_carrier_rejects_bad_ratio(periods, samples):
    with pytest.raises(dk.UsageError):
        dk.CarrierConfig(periods, samples)


def test_carrier_rejects_bad_rate():
    with pytest.raises(dk.UsageError):
        dk.CarrierConfig(1, 4, 0.0)
    with pytest.raises(dk.UsageError):
        dk.CarrierConfig(1, 4, math.inf)


def test_mixer_phase_table():
    c = dk.CarrierConfig(7, 33)
    table = c.mixer_phases()
    assert len(table) == 33
    assert table[0] == 1.0 + 0.0j
    k = np.arange(33)
    assert np.allclose(table, np.exp(-1j * c.phase_step * k), atol=1e-15)


# ---------------------------------------------------------------- sequences

def test_sequences_validate_finiteness():
    with pytest.raises(dk.UsageError):
        dk.RealSeq(np.array([1.0, np.nan]))
    with pytest.raises(dk.UsageError):
        dk.ComplexSeq(np.array([1.0, np.inf * 1j]))


def test_realseq_rejects_complex():
    with pytest.raises(dk.UsageError):
        dk.RealSeq(np.array([1.0 + 1j]))


def test_sequence_start_index():
    s = dk.ComplexSeq(np.arange(5), start=10)
    assert len(s) == 5
    assert s.end == 15


@pytest.mark.parametrize("seq", [dk.RealSeq, dk.ComplexSeq])
@pytest.mark.parametrize("start", [0.5, "3", None, True], ids=["float", "str", "none", "bool"])
def test_sequences_reject_a_non_integer_start(seq, start):
    with pytest.raises(dk.UsageError, match="start"):
        seq(np.arange(4.0), start=start)


def test_sequence_values_are_frozen():
    s = dk.RealSeq(np.arange(4.0))
    with pytest.raises(ValueError):
        s.values[0] = 7.0


# ---------------------------------------------------------------- filters

def test_filter_requires_taps_and_stable_pole():
    with pytest.raises(dk.UsageError):
        dk.ComplexFilter(np.array([]))
    with pytest.raises(dk.UsageError):
        dk.ComplexFilter(np.array([1.0]), pole=1.0)
    with pytest.raises(dk.UsageError):
        dk.ComplexFilter(np.array([1.0]), pole=1.5j)


def test_filter_stream_identity():
    f = dk.ComplexFilter(np.array([1.0]))
    x = dk.ComplexSeq(np.array([3 + 4j, -1]))
    assert np.array_equal(dk.apply_filter(f, x).values, x.values)


def test_filter_stream_impulse_gives_taps():
    f = dk.ComplexFilter(np.array([1.0, 1.0]))
    y = dk.apply_filter(f, dk.ComplexSeq(np.array([1.0, 0.0, 0.0])))
    assert np.array_equal(y.values, np.array([1, 1, 0], dtype=complex))


def test_iir_step_response_closed_form():
    # y[k] = p*y[k-1] + b0*x[k] on a unit step gives 1 - 0.5**(k+1).
    f = dk.ComplexFilter(np.array([0.5]), pole=0.5)
    y = dk.apply_filter(f, dk.ComplexSeq(np.ones(6)))
    expected = np.array([1 - 0.5 ** (k + 1) for k in range(6)])
    assert np.allclose(y.values, expected, rtol=0, atol=1e-15)


def test_filter_state_mismatch_is_usage_error():
    f = dk.ComplexFilter(np.array([1.0, 1.0]))
    g = dk.ComplexFilter(np.array([1.0, 1.0]))
    state = dk.FilterState(g)
    with pytest.raises(dk.UsageError):
        dk.filter_stream(f, state, dk.ComplexSeq(np.ones(3)))


def test_filter_state_reset():
    f = dk.ComplexFilter(np.array([1.0, 1.0]))
    state = dk.FilterState(f)
    dk.filter_stream(f, state, dk.ComplexSeq(np.ones(3)))
    state.reset()
    y = dk.filter_stream(f, state, dk.ComplexSeq(np.array([1.0, 0.0])))
    assert np.array_equal(y.values, np.array([1, 1], dtype=complex))


def test_filter_accepts_real_input():
    f = dk.ComplexFilter(np.array([1j]))
    y = dk.apply_filter(f, dk.RealSeq(np.array([2.0])))
    assert y.values[0] == 2j


_taps = st.lists(
    st.complex_numbers(min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)
_signal = st.lists(
    st.complex_numbers(min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=40,
)


@given(taps=_taps, data=_signal, split=st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_fir_streaming_blocks_match_one_shot_bitwise(taps, data, split):
    f = dk.ComplexFilter(np.array(taps))
    x = np.array(data)
    split = min(split, len(x))
    whole = dk.apply_filter(f, dk.ComplexSeq(x)).values
    state = dk.FilterState(f)
    first = dk.filter_stream(f, state, dk.ComplexSeq(x[:split])).values
    second = dk.filter_stream(f, state, dk.ComplexSeq(x[split:], start=split)).values
    assert np.array_equal(np.concatenate([first, second]), whole)


@given(
    data=_signal,
    split=st.integers(min_value=0, max_value=40),
    pole_mag=st.floats(min_value=0.0, max_value=0.99),
    pole_arg=st.floats(min_value=-math.pi, max_value=math.pi),
)
@settings(max_examples=60, deadline=None)
# An empty first or last block must leave the pole's carry as it is.
@example(data=[1.0, 2.0 - 1.0j, 0.5j], split=0, pole_mag=0.9, pole_arg=0.3)
@example(data=[1.0, 2.0 - 1.0j, 0.5j], split=3, pole_mag=0.9, pole_arg=0.3)
def test_iir_streaming_blocks_match_one_shot(data, split, pole_mag, pole_arg):
    pole = pole_mag * complex(math.cos(pole_arg), math.sin(pole_arg))
    f = dk.ComplexFilter(np.array([1.0 - pole_mag]), pole=pole)
    x = np.array(data)
    split = min(split, len(x))
    whole = dk.apply_filter(f, dk.ComplexSeq(x)).values
    state = dk.FilterState(f)
    parts = np.concatenate(
        [
            dk.filter_stream(f, state, dk.ComplexSeq(x[:split])).values,
            dk.filter_stream(f, state, dk.ComplexSeq(x[split:], start=split)).values,
        ]
    )
    assert np.allclose(parts, whole, rtol=1e-15, atol=1e-15)


@given(taps=_taps, data=_signal)
@settings(max_examples=40, deadline=None)
def test_sample_by_sample_equals_one_shot_bitwise(taps, data):
    f = dk.ComplexFilter(np.array(taps))
    x = np.array(data)
    whole = dk.apply_filter(f, dk.ComplexSeq(x)).values
    state = dk.FilterState(f)
    singles = [
        dk.filter_stream(f, state, dk.ComplexSeq(x[k : k + 1], start=k)).values[0]
        for k in range(len(x))
    ]
    assert np.array_equal(np.array(singles), whole)


@given(taps=_taps, data=_signal)
@settings(max_examples=60, deadline=None)
def test_filter_linearity(taps, data):
    f = dk.ComplexFilter(np.array(taps))
    x = np.array(data)
    y = x[::-1].copy()
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    lhs = dk.apply_filter(f, dk.ComplexSeq(a * x + b * y)).values
    rhs = a * dk.apply_filter(f, dk.ComplexSeq(x)).values + b * dk.apply_filter(
        f, dk.ComplexSeq(y)
    ).values
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)


@given(taps=_taps, data=_signal, delay=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_filter_time_invariance_exact(taps, data, delay):
    f = dk.ComplexFilter(np.array(taps))
    x = np.array(data)
    shifted = np.concatenate([np.zeros(delay, dtype=complex), x])
    y = dk.apply_filter(f, dk.ComplexSeq(x)).values
    y_shifted = dk.apply_filter(f, dk.ComplexSeq(shifted)).values
    assert np.array_equal(y_shifted[delay:], y)
    assert np.array_equal(y_shifted[:delay], np.zeros(delay, dtype=complex))


@given(
    taps=_taps,
    data=_signal,
    split=st.integers(min_value=0, max_value=40),
    first=st.integers(min_value=0, max_value=45),
    step=st.integers(min_value=1, max_value=15),
    pole=st.none() | st.complex_numbers(max_magnitude=0.99),
)
@settings(max_examples=80, deadline=None)
def test_kept_outputs_are_the_full_outputs_sliced_bitwise(taps, data, split, first, step, pole):
    # The first block leaves a non-zero delay line (and carry) behind, so the
    # second block's kept outputs also read the previous block's samples.
    f = dk.ComplexFilter(np.array(taps), pole=pole)
    x = np.array(data)
    split = min(split, len(x))
    full_state, kept_state = dk.FilterState(f), dk.FilterState(f)
    for state in (full_state, kept_state):
        dk.core._filter_block(state, x[:split])
    full = dk.core._filter_block(full_state, x[split:])
    kept = dk.core._filter_block(kept_state, x[split:], (first, step))
    assert kept.tobytes() == full[first::step].tobytes()
    assert kept_state._delay.tobytes() == full_state._delay.tobytes()
    if pole is not None:
        assert kept_state._carry.tobytes() == full_state._carry.tobytes()


def _tap_loop(taps, delay, x, first, step):
    """The FIR kernel spelled out tap by tap: the outputs ``first::step`` of
    the block ``x`` after the delay line ``delay``, each summed over the taps
    in ascending order, and the delay line left behind."""
    history = np.concatenate([delay, x])
    count, length = len(x), len(taps)
    v = taps[0] * history[length - 1 + first :: step]
    for m in range(1, length):
        lag = length - 1 - m
        v = v + taps[m] * history[lag + first : lag + count : step]
    return v, history[count:]


def _assert_blocks_are_the_tap_loop(filt, blocks, first, step):
    """Run ``blocks`` in turn through one state of ``filt``, keeping the
    outputs ``first::step`` of each, and pin every output and delay line,
    dtypes included, to :func:`_tap_loop`.  A real block through a real
    state runs the real parts of the taps."""
    state = dk.FilterState(filt)
    for x in blocks:
        real = x.dtype == np.float64 and state._delay.dtype == np.float64
        taps = filt.taps.real if real else filt.taps
        with np.errstate(over="ignore", invalid="ignore"):
            expected, delay = _tap_loop(taps, state._delay, x, first, step)
            got = dk.core._filter_block(state, x, (first, step))
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert state._delay.dtype == delay.dtype
        assert state._delay.tobytes() == delay.tobytes()


# Parts from the whole range the kernel sees: both signed zeros and
# subnormals, whose products can underflow to a zero of either sign.
_part = st.floats(-8.0, 8.0) | st.sampled_from([0.0, -0.0, 5e-324, -1e-310])
_parts = st.lists(st.tuples(_part, _part), max_size=60)


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


@given(
    taps=st.lists(st.tuples(_part, _part), min_size=1, max_size=40),
    real_taps=st.booleans(),
    blocks=st.lists(st.tuples(_parts, st.booleans()), min_size=1, max_size=3),
    scale=st.sampled_from([1e-310, 1.0, 1e300]),
    step=st.integers(min_value=1, max_value=45),
    first=st.integers(min_value=0, max_value=44),
)
@settings(max_examples=100, deadline=None)
# One kept output of 40 taps, complex and real: numpy's pairwise summation
# would reorder them.
@example(
    taps=[(1.0 + m / 7, -0.5) for m in range(40)], real_taps=False,
    blocks=[([(3.0 ** (m % 9), -(2.0 ** m)) for m in range(30)], True)],
    scale=1.0, step=45, first=29,
)
@example(
    taps=[(1.0 + m / 7, 0.0) for m in range(40)], real_taps=True,
    blocks=[([((-3.0) ** (m % 9) + 0.1, 0.0) for m in range(30)], False)],
    scale=1.0, step=45, first=29,
)
# Complex blocks through a real state, with signed zeros at two scales.
@example(
    taps=[(0.0, 0.0), (-0.0, 0.0), (2.0, 0.0)] * 4, real_taps=True,
    blocks=[([(-0.0, 0.0)] * 20, False), ([(-0.0, -0.0), (1e-310, 0.0)] * 10, True)],
    scale=1e300, step=3, first=1,
)
# Sums of -0.0 products: starting the sum from +0.0 would flip their sign.
@example(
    taps=[(1.0, 0.0), (2.0, 0.0)], real_taps=True, blocks=[([(-0.0, 0.0)] * 6, False)],
    scale=1.0, step=2, first=0,
)
def test_fir_blocks_are_the_tap_loop_bitwise(taps, real_taps, blocks, scale, step, first):
    # The kernel sums each kept output over up to 40 taps in one reduction;
    # every output, kept or full, and every delay line must be the tap
    # loop's, whatever the block split, the signs of zeros or the scale.
    taps = _complex(taps)
    if real_taps:
        taps = np.concatenate([[abs(taps[0].real)], taps[1:].real]).astype(np.complex128)
    filt = dk.ComplexFilter(taps)
    assert filt._real or not real_taps
    xs = [_complex(pairs) * scale if cplx else _complex(pairs).real * scale for pairs, cplx in blocks]
    _assert_blocks_are_the_tap_loop(filt, xs, first % step, step)
    _assert_blocks_are_the_tap_loop(filt, xs, 0, 1)


@pytest.mark.parametrize("seed", [0, 1])
def test_fir_block_sweep_is_the_tap_loop_bitwise(seed):
    # Seeded random blocks over the shapes where a reordered tap sum could
    # show: 1-40 taps, steps 1-29 (often above the tap count), one kept
    # output, signed zeros, subnormal and huge scales, real and complex taps
    # and blocks, and complex blocks through real states.
    rng = np.random.default_rng(seed)

    def parts(count, scale):
        x = rng.uniform(-8.0, 8.0, count) * scale
        special = rng.random(count) < 0.25
        x[special] = rng.choice([0.0, -0.0, 5e-324, -1e-310], special.sum())
        return x

    seen = {"one kept output, > 8 taps": 0, "step > taps": 0, "complex through a real state": 0}
    for _ in range(500):
        length = int(rng.integers(1, 41))
        step = int(rng.integers(1, 30))
        first = int(rng.integers(0, step))
        scale = float(rng.choice([1e-310, 1.0, 1e300]))
        real_taps = rng.random() < 0.4
        taps = parts(length, 1.0).astype(np.complex128)
        if real_taps:
            taps[0] = abs(taps[0])
        else:
            taps += 1j * parts(length, 1.0)
        filt = dk.ComplexFilter(taps)
        blocks = []
        for _ in range(3):
            count = int(rng.integers(0, 120))
            x = parts(count, scale)
            if rng.random() < 0.6:
                x = x + 1j * parts(count, scale)
                real_state = filt._real and not any(map(np.iscomplexobj, blocks))
                seen["complex through a real state"] += bool(blocks) and real_state
            blocks.append(x)
            seen["one kept output, > 8 taps"] += len(range(first, count, step)) == 1 and length > 8
        seen["step > taps"] += step > length
        _assert_blocks_are_the_tap_loop(filt, blocks, first, step)
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("pole", [0.99999, 0.99999j, 0.99999 * np.exp(-0.7j)])
def test_chunked_pole_matches_one_shot_bitwise(pole):
    # lfilter carries its state through zi, so splitting a long stream at
    # arbitrary points gives exactly the one-shot recursion.
    f = dk.ComplexFilter(np.array([0.3 - 0.1j, -0.2j, 0.5]), pole=pole)
    x = np.random.default_rng(5).standard_normal(50_000)
    whole = dk.core._filter_block(dk.FilterState(f), x)
    state = dk.FilterState(f)
    cuts = [0, 1, 16384, 16385, 32769, 50_000]
    parts = [dk.core._filter_block(state, x[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


# ---------------------------------------------------------------- decimate

def test_decimate_examples():
    x = dk.ComplexSeq(np.arange(6))
    assert np.array_equal(dk.decimate(x, 2, 0).values, np.array([0, 2, 4], dtype=complex))
    assert np.array_equal(dk.decimate(x, 3, 1).values, np.array([1, 4], dtype=complex))
    assert np.array_equal(dk.decimate(x, 1, 0).values, x.values)


def test_decimate_rejects_bad_phase():
    x = dk.ComplexSeq(np.arange(6))
    with pytest.raises(dk.UsageError):
        dk.decimate(x, 2, 2)
    with pytest.raises(dk.UsageError):
        dk.decimate(x, 0, 0)


def test_decimate_preserves_sequence_type():
    x = dk.RealSeq(np.arange(6.0))
    assert isinstance(dk.decimate(x, 2), dk.RealSeq)


# ------------------------------------------------------ integer arguments

@pytest.mark.parametrize(
    "call",
    [
        lambda: dk.decimate(dk.ComplexSeq(np.arange(6)), 2, True),
        lambda: dk.decimate(dk.ComplexSeq(np.arange(6)), True, 0),
        lambda: dk.multirate_norm_sq([dk.make_ma(3)], dk.make_lp(0.1, 1.0), True),
        lambda: dk.CarrierConfig(True, 4),
        lambda: dk.alias_map(True, dk.CarrierConfig(7, 33)),
        lambda: dk.make_ma(True),
    ],
    ids=["decimate-phase", "decimate-factor", "multirate-factor", "carrier",
         "alias-order", "ma-length"],
)
def test_bool_is_not_an_integer(call):
    with pytest.raises(dk.UsageError):
        call()


# ---------------------------------------------------------- outside values

@pytest.mark.parametrize(
    "call",
    [
        lambda: dk.CarrierConfig(7, 33, True),
        lambda: dk.make_lp(True, 1.0),
        lambda: dk.phase_metrics(dk.make_ma(3), 0.0, True),
        lambda: dk.FreqGrid.regular(True),
        lambda: dk.ComplexFilter(True),
    ],
    ids=["carrier-rate", "lp-bandwidth", "phase-period", "grid-points", "filter-tap"],
)
def test_bool_is_not_a_number(call):
    with pytest.raises(dk.UsageError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: dk.CarrierConfig(7, 33, "1"),
        lambda: dk.make_lp("x", 1.0),
        lambda: dk.make_lp(1.0, None),
        lambda: dk.phase_metrics(dk.make_ma(3), "x", 1.0),
        lambda: dk.tune_lp_bandwidth(dk.make_ma(3), -5.0, "1"),
        lambda: dk.tune_lp_bandwidth(dk.make_ma(3), "x", 1.0),
    ],
    ids=["carrier-rate", "lp-bandwidth", "lp-period", "phase-omega", "tune-period",
         "tune-target"],
)
def test_a_number_of_the_wrong_type_is_a_usage_error(call):
    with pytest.raises(dk.UsageError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: dk.RealSeq(["a"]),
        lambda: dk.FreqGrid(["a"]),
        lambda: dk.ComplexFilter(["a"]),
        lambda: dk.ComplexFilter([1.0], pole="x"),
        lambda: dk.ComplexFilter([[1.0, 2.0], [3.0]]),
    ],
    ids=["realseq", "grid", "filter-taps", "filter-pole", "filter-ragged"],
)
def test_text_or_ragged_lists_are_not_numbers(call):
    with pytest.raises(dk.UsageError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: dk.FreqGrid([math.nan]),
        lambda: dk.FreqGrid([0.1], sample_rate=-1),
        lambda: dk.ComplexFilter([1.0], domain="x"),
        lambda: dk.CarrierConfig(7, 33, 10**400),
    ],
    ids=["grid-nan", "grid-rate", "filter-domain", "carrier-int-beyond-float"],
)
def test_values_out_of_their_domain_are_refused(call):
    with pytest.raises(dk.UsageError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda f: f.response(None),
        lambda f: f.response(True),
        lambda f: f.response("a"),
        lambda f: f.response(math.inf),
        lambda f: f.response(math.nan),
        lambda f: f.response(np.array([0.1, math.nan])),
        lambda f: f.response([[0.1, 0.2]]),
        lambda f: f.impulse(-1),
        lambda f: f.impulse(1.5),
        lambda f: f.impulse(True),
    ],
    ids=["response-none", "response-bool", "response-text", "response-inf",
         "response-nan", "response-nan-array", "response-2d", "impulse-negative",
         "impulse-float", "impulse-bool"],
)
def test_filter_response_and_impulse_refuse_bad_requests(call):
    with pytest.raises(dk.UsageError):
        call(dk.make_ma(3))


@pytest.mark.parametrize("pole", [np.float32(0.9), np.float64(0.9)], ids=["f32", "f64"])
def test_dc_reject_pole_takes_any_real_float(pole):
    assert dk.make_dc_reject_passband(pole).pole == float(pole)


_holders = [
    (dk.RealSeq, lambda s: s.values),
    (dk.ComplexSeq, lambda s: s.values),
    (dk.FreqGrid, lambda g: g.thetas),
    (dk.SampledEnvelope, lambda e: e.values),
    (dk.ComplexFilter, lambda f: f.taps),
]


@pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
@pytest.mark.parametrize(
    "build, stored", _holders, ids=[cls.__name__ for cls, _ in _holders]
)
def test_objects_keep_their_own_copy_of_an_array(build, stored, view):
    base = np.linspace(-3.0, 3.0, 12)
    given = base[2:] if view else base
    obj = build(given)
    kept = stored(obj).copy()
    assert base.flags.writeable
    base[5] = 100.0
    base[3] = math.nan
    assert stored(obj).tobytes() == kept.tobytes()
    assert not stored(obj).flags.writeable


@pytest.mark.parametrize(
    "build, stored", _holders, ids=[cls.__name__ for cls, _ in _holders]
)
def test_objects_holding_arrays_compare_and_hash_by_identity(build, stored):
    values = np.linspace(-3.0, 3.0, 12)
    first, second = build(values), build(values)
    assert stored(first).tobytes() == stored(second).tobytes()
    assert (first == first) is True
    assert (first == second) is False
    assert (first != second) is True
    assert hash(first) == hash(first)
    assert len({first, second, first}) == 2


# ------------------------------------------------------------ wrong types

_C733 = dk.CarrierConfig(7, 33)
_CHAIN = dk.make_chain(_C733, dk.make_2sr(_C733))
_SEQ = dk.RealSeq(np.ones(100))
_NOISY = dk.SignalSpec(noise_sigma=0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dk.run(None, _SEQ),
        lambda: dk.transient_length(None),
        lambda: dk.group_delay_seconds("x"),
        lambda: dk.mix_down(_SEQ, None),
        lambda: dk.FilterState(None),
        lambda: dk.apply_filter(None, _SEQ),
        lambda: dk.filter_stream(_CHAIN.ddc, None, _SEQ),
        lambda: dk.decimate(None, 2),
        lambda: dk.synthesize(None, _C733, 10),
        lambda: dk.synthesize(_NOISY, None, 10),
        lambda: dk.run_experiment(None, _CHAIN, 5000),
        lambda: dk.run_experiment(_NOISY, None, 5000),
        lambda: dk.noise_gain_study(None, _CHAIN, 5000, [1, 2]),
        lambda: dk.noise_gain_study(_NOISY, None, 5000, [1, 2]),
        lambda: dk.noise_gain_study(_NOISY, _CHAIN, 5000, None),
        lambda: dk.noise_gain_study(_NOISY, _CHAIN, 5000, (s for s in [1, 2])),
        lambda: dk.analytic_noise_gain(None),
        lambda: dk.SampledEnvelope([1.0, 2.0]).at(np.array([0.5])),
        lambda: dk.h2_norm_sq(None),
        lambda: dk.h2_norm_sq(3),
        lambda: dk.multirate_norm_sq(None, dk.make_lp(0.1, 1.0), 2),
        lambda: dk.tune_lp_bandwidth(None, -5.0, 1.0),
        lambda: dk.phase_metrics(None, 0.0, 1.0),
        lambda: dk.freq_response(3, np.array([0.0])),
        lambda: dk.alias_map(3, None),
        lambda: dk.amplifies_noise(None),
        lambda: dk.reduce_angle("x"),
        lambda: dk.parse_filter_spec(None, _C733),
        lambda: dk.parse_filter_spec("2sr", "7/33"),
        lambda: dk.get_preset([]),
        lambda: dk.load_preset_file(None),
        lambda: dk.iq_harmonic_bias(0.01, 4000, carrier="1/4"),
        lambda: dk.iq_harmonic_bias("0.01", 4000),
        lambda: dk.harmonic_bias(_C733, _CHAIN.ddc, 3, "x", 1000),
        lambda: dk.make_chain(None, _CHAIN.ddc, lp_bandwidth=0.1),
        lambda: dk.make_chain(
            _C733, _CHAIN.ddc, 0.1, decimation="2", order=dk.ChainOrder.DECIMATE_THEN_FILTER
        ),
    ],
    ids=[
        "run-chain", "transient-chain", "group-delay-chain", "mix-carrier",
        "state-filter", "apply-filter", "stream-state", "decimate-input",
        "synthesize-spec", "synthesize-carrier", "experiment-spec",
        "experiment-chain", "study-spec", "study-chain", "study-seeds-none",
        "study-seeds-generator", "analytic-gain-chain", "sampled-float-index",
        "h2-none", "h2-int", "multirate-none", "tune-none", "phase-none",
        "freq-response-int", "alias-carrier", "amplifies-carrier", "reduce-text",
        "spec-none", "spec-carrier-text", "preset-list", "preset-file-none",
        "iq-bias-carrier", "iq-bias-text-amplitude", "harmonic-bias-text-amplitude",
        "make-chain-carrier", "make-chain-text-decimation",
    ],
)
def test_a_wrong_type_is_a_usage_error(call):
    with pytest.raises(dk.UsageError):
        call()


# ------------------------------------------------- results out of range

_HUGE = dk.ComplexFilter([1e308, 1e308])


@pytest.mark.parametrize(
    "call",
    [
        lambda: dk.filter_stream(_HUGE, dk.FilterState(_HUGE), dk.RealSeq([1.0, 1.0])),
        lambda: dk.apply_filter(_HUGE, dk.ComplexSeq([1.0, 1.0])),
        lambda: dk.mix_down(dk.RealSeq(np.full(4, 1e308)), _C733),
        lambda: dk.ComplexFilter([1e308, 1e308], pole=0.999).impulse(3),
    ],
    ids=["filter-stream", "apply-filter", "mix-down", "impulse"],
)
def test_a_result_beyond_float_range_is_a_domain_error(call):
    # Finite inputs whose result is not: the fault is the result's range,
    # not the caller's values, and numpy stays quiet.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dk.DomainError, match="left the float range"):
            call()
