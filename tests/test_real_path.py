"""Real coefficients in real arithmetic: the float64 paths of the filter
kernel against a literal complex composition, bit for bit; scipy's compiled
linear filter, which runs every pole, against scipy.signal.lfilter, bit for
bit, in either import order; and the imports: a pole adds no module outside
the package (the one extension it loads is not left in sys.modules) and
never loads scipy.signal, and the first design queries import nothing beyond
the package."""

import functools
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import ddckit as dk
from ddckit import pipeline


def _reference_filter(filt, x):
    """The filter as one complex composition from zero state: the tap sums
    in ascending order on the complex128 input, then the complex lfilter."""
    x = np.asarray(x, dtype=np.complex128)
    taps, n, span = filt.taps, len(x), len(filt.taps) - 1
    history = np.concatenate([np.zeros(span, dtype=np.complex128), x])
    v = taps[0] * history[span:]
    for m in range(1, span + 1):
        v = v + taps[m] * history[span - m : span - m + n]
    if filt.pole is not None:
        v = lfilter(
            np.ones(1, dtype=np.complex128),
            np.array([1.0, -filt.pole], dtype=np.complex128),
            v,
        )
    return v


def _reference_chain(chain, x, start):
    """The chain as one complex composition: pre-mixer, mixer read by the
    absolute index, envelope filter, and the low-pass before or after the
    decimator, every stage computed at every sample."""
    v = np.asarray(x, dtype=np.complex128)
    if chain.pre_mixer is not None:
        v = _reference_filter(chain.pre_mixer, v)
    phasors = 2.0 * chain.carrier.mixer_phases()
    v = v * phasors[(start + np.arange(len(v))) % chain.carrier.samples]
    v = _reference_filter(chain.ddc, v)
    after = chain.order is dk.ChainOrder.DECIMATE_THEN_FILTER
    if chain.lowpass is not None and not after:
        v = _reference_filter(chain.lowpass, v)
    v = v[chain.decimation_phase :: chain.decimation]
    if chain.lowpass is not None and after:
        v = _reference_filter(chain.lowpass, v)
    return v


def _run_in_blocks(chain, x, start, cuts):
    stepper = pipeline._Stepper(chain, start)
    bounds = [0, *sorted(min(c, len(x)) for c in cuts), len(x)]
    parts = [stepper.step(x[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    return np.concatenate(parts)


# Floats from the whole range the kernel sees, with both signed zeros and
# subnormals, whose products can underflow to a zero of either sign.
_sample = st.floats(-8.0, 8.0) | st.sampled_from([0.0, -0.0, 5e-324, -1e-310])
_samples = st.lists(_sample, min_size=1, max_size=60)
_cuts = st.lists(st.integers(min_value=0, max_value=60), max_size=4)


@given(
    data=_samples,
    cuts=_cuts,
    pre_pole=st.none() | st.floats(0.5, 0.999),
    lp_pole=st.none() | st.floats(0.0, 0.999),
    decimation=st.integers(min_value=1, max_value=5),
    phase=st.integers(min_value=0, max_value=4),
    after=st.booleans(),
    envelope=st.sampled_from(["ma5", "2sr"]),
    start=st.sampled_from([0, 40000007]),
)
@settings(max_examples=150, deadline=None)
@example(
    data=[0.0, -0.0] * 30, cuts=[7, 31], pre_pole=0.9375, lp_pole=0.9,
    decimation=3, phase=2, after=False, envelope="ma5", start=40000007,
)
@example(
    data=[-0.0] * 40, cuts=[], pre_pole=0.9375, lp_pole=0.9,
    decimation=2, phase=1, after=True, envelope="2sr", start=0,
)
def test_real_stages_in_chains_match_the_complex_composition_bitwise(
    data, cuts, pre_pole, lp_pole, decimation, phase, after, envelope, start
):
    carrier = dk.CarrierConfig(7, 33)
    ddc = dk.make_ma(5) if envelope == "ma5" else dk.make_2sr(carrier)
    if lp_pole is None and after:
        lp_pole = 0.5  # decimate-then-filter needs a low-pass
    chain = dk.DdcChain(
        carrier,
        ddc,
        lowpass=None if lp_pole is None else dk.ComplexFilter([1.0 - lp_pole], lp_pole),
        pre_mixer=None if pre_pole is None else dk.make_dc_reject_passband(pre_pole),
        decimation=decimation,
        decimation_phase=phase % decimation,
        order=(
            dk.ChainOrder.DECIMATE_THEN_FILTER if after else dk.ChainOrder.FILTER_THEN_DECIMATE
        ),
    )
    x = np.array(data)
    expected = _reference_chain(chain, x, start)
    assert _run_in_blocks(chain, x, start, cuts).tobytes() == expected.tobytes()
    assert pipeline._run(chain, x, start).tobytes() == expected.tobytes()


def test_run_matches_the_complex_composition_across_chunks():
    # Several of run's 16384-sample chunks, with a pole on either side of
    # the mixer and a decimator at a non-zero phase.
    carrier = dk.CarrierConfig(3, 14)
    x = np.random.default_rng(8).standard_normal(2 * 16384 + 777)
    x[100:300] = -0.0
    for order in dk.ChainOrder:
        chain = dk.make_chain(
            carrier,
            dk.make_ma(14),
            lp_bandwidth=0.05,
            pre_mixer=dk.make_dc_reject_passband(15 / 16),
            decimation=7,
            decimation_phase=3,
            order=order,
        )
        out = dk.run(chain, dk.RealSeq(x, start=40000007)).seq.values
        assert out.tobytes() == _reference_chain(chain, x, 40000007).tobytes()


_blocks = st.lists(st.tuples(st.booleans(), _samples), min_size=1, max_size=5)


@pytest.mark.parametrize(
    "filt",
    [
        dk.make_dc_reject_passband(15 / 16),
        dk.make_lp(0.1, 1.0),
        dk.make_ma(4),
        dk.make_iq(dk.CarrierConfig(1, 4)),
    ],
    ids=["dc-reject", "lp", "ma4", "iq"],
)
@given(blocks=_blocks)
@settings(max_examples=40, deadline=None)
def test_a_real_state_fed_real_then_complex_blocks_matches_bitwise(filt, blocks):
    # A real block from a second stream makes a complex block: its imaginary
    # parts are the first stream's reversed.
    state, outs, stream = dk.FilterState(filt), [], []
    for is_complex, data in blocks:
        x = np.array(data)
        seq = dk.RealSeq(x)
        if is_complex:
            seq = dk.ComplexSeq(x + 1j * x[::-1])
        stream.append(seq.values.astype(np.complex128))
        outs.append(dk.filter_stream(filt, state, seq).values)
    expected = _reference_filter(filt, np.concatenate(stream))
    assert np.concatenate(outs).tobytes() == expected.tobytes()


@given(
    parts=st.lists(st.tuples(_sample, _sample), min_size=1, max_size=40),
    cuts=_cuts,
    pole=st.sampled_from([0.0, 1e-300, 0.5, 0.9375]) | st.floats(0.0, 0.99999),
)
@settings(max_examples=150, deadline=None)
@example(parts=[(1.0, -0.0), (-0.0, -0.0), (-0.0, 1.0)], cuts=[1], pole=0.5)
@example(parts=[(1.0, -1.0), (-1.0, -0.0)], cuts=[1], pole=0.0)
def test_a_real_pole_on_complex_blocks_keeps_the_complex_signed_zeros(parts, cuts, pole):
    # Zero parts, and products pole*y that underflow to zero, are where a
    # real recursion over the float view could sign a zero differently from
    # the complex one; those blocks must still give the complex bits.
    filt = dk.ComplexFilter([1.0], pole=pole)
    x = np.array([complex(re, im) for re, im in parts])
    state, bounds = dk.FilterState(filt), [0, *sorted(min(c, len(x)) for c in cuts), len(x)]
    out = [dk.core._filter_block(state, x[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate(out).tobytes() == _reference_filter(filt, x).tobytes()


@pytest.mark.parametrize(
    "filt",
    [
        dk.to_baseband(dk.make_dc_reject_passband(15 / 16), dk.CarrierConfig(7, 33)),
        dk.ComplexFilter([0.5], pole=0.5j),
        dk.ComplexFilter([-1.0, 1.0], pole=0.5),
        dk.ComplexFilter([1.0], pole=-0.5),
    ],
    ids=["baseband-dc-reject", "imaginary-pole", "negative-first-tap", "negative-pole"],
)
def test_filters_that_may_not_run_real_stay_on_the_complex_path(filt):
    # Complex coefficients need complex arithmetic; a negative first tap or
    # pole would turn some of the complex kernel's +0.0 into -0.0 in real
    # arithmetic, so those filters stay complex too.
    x = np.array([0.0, -0.0, 1.5, -2.0, -0.0, 0.25, 0.0, -1.0] * 4)
    out = dk.core._filter_block(dk.FilterState(filt), x)
    assert out.dtype == np.complex128
    assert out.tobytes() == _reference_filter(filt, x).tobytes()


@given(data=_samples)
@settings(max_examples=80, deadline=None)
@example(data=[0.0, -0.0, -0.0, 0.0, 1.0, -1.0, -0.0])
def test_the_real_pre_mixer_stage_hands_the_mixer_its_exact_input(data):
    # On the real ADC stream the complex kernel's imaginary parts are all
    # +0.0, which is what numpy puts there when the mixer promotes the real
    # output to complex; the real parts match bit for bit.
    hp = dk.make_dc_reject_passband(15 / 16)
    x = np.array(data)
    expected = _reference_filter(hp, x)
    assert not expected.imag.any() and not np.signbit(expected.imag).any()
    out = dk.core._filter_block(dk.FilterState(hp), x)
    assert out.dtype == np.float64
    assert out.tobytes() == expected.real.tobytes()
    carrier = dk.CarrierConfig(7, 33)
    phasors = 2.0 * carrier.mixer_phases()[(5 + np.arange(len(x))) % carrier.samples]
    assert (out * phasors).tobytes() == (expected * phasors).tobytes()


# The import guards run in one fresh interpreter.  The design queries and
# the FIR-only run, which must load nothing outside ddckit after the CLI,
# come first; no mixer table may be built before that run, and the run must
# build one; then a pole must add no module outside ddckit (it loads scipy's
# compiled linear filter alone, without leaving it in sys.modules), and
# scipy.signal must stay missing through the CLI's pole-heavy simulate.
_IMPORT_GUARDS = """
import sys
import numpy as np
import ddckit as dk
import ddckit.cli

def fail(guard, message):
    print(f"{guard}: {message}")

def check(after):
    if "scipy.signal" in sys.modules:
        fail("pole", f"scipy.signal loaded after {after}")

def outside(before):
    return sorted(
        name for name in set(sys.modules) - before
        if name != "ddckit" and not name.startswith("ddckit.")
    )

def tables(after, expected):
    kept = dk.pipeline._chunk_mixer.cache_info().currsize
    if kept != expected:
        fail("tables", f"{kept} mixer tables kept after {after}, not {expected}")

check("import")
tables("import", 0)
before = set(sys.modules)
carrier = dk.CarrierConfig(7, 33)
stages = dk.parse_filter_spec("hp:0.9375+2sr+lp:0.01", carrier)
dk.h2_norm_sq(stages)
dk.multirate_norm_sq(dk.make_ma(33), dk.make_lp(0.1, 1.0), 33)
dk.tune_lp_bandwidth(stages[:2], -20.0, 1.0)
dk.tune_lp_bandwidth(dk.make_ma(33), -20.0, 1.0)
# A tune with poles whose low-pass lands at bandwidth*period 1e-5.
narrow = dk.h2_norm_sq(stages[:2] + [dk.make_lp(1e-5, 1.0)]).value_db
dk.tune_lp_bandwidth(stages[:2], narrow, 1.0)
dk.parse_filter_spec("ma:4+2sr+dcr+iq+lp:0.01+hp:0.9375", dk.CarrierConfig(1, 4))
dk.phase_metrics(stages, 0.5, 1.0)
dk.phase_metrics(stages, 0.0, 1.0)
dk.freq_response(stages, dk.FreqGrid.regular(64))
dk.freq_response(stages[1:], dk.FreqGrid.regular(64))
ess = dk.get_preset("ess")
envelope = dk.parse_filter_spec(ess.filter_spec, ess.carrier)[0]
chain = dk.make_chain(ess.carrier, envelope, decimation=ess.decimation)
tables("building a chain", 0)
dk.run(chain, dk.RealSeq(np.ones(700)))
tables("a run", 1)
dk.group_delay_seconds(chain)
added = outside(before)
if added:
    fail("first-call", f"loaded outside ddckit: {added}")
loaded = [name for name in ("numpy.fft", "numpy.polynomial") if name in sys.modules]
if loaded:
    fail("first-call", f"loaded at all: {loaded}")
check("the design queries and a FIR-only run")
dk.h2_norm_sq([dk.make_2sr(carrier), dk.make_lp(0.01, 1.0)])
check("h2_norm_sq")
dk.freq_response(dk.make_ma(11), dk.FreqGrid.regular(64))
check("freq_response")
ddckit.cli.main(["norm", "--carrier", "7/33", "--filter", "2sr", "--lp", "0.01"])
check("ddckit norm")
ddckit.cli.main(["tune", "--carrier", "7/33", "--filter", "hp:0.9375+2sr",
                 "--target-db", "-20"])
check("ddckit tune")
loaded = [name for name in ("numpy.fft", "numpy.polynomial") if name in sys.modules]
if loaded:
    fail("first-call", f"loaded after ddckit tune: {loaded}")
before = set(sys.modules)
chain = dk.make_chain(carrier, dk.make_2sr(carrier), lp_bandwidth=0.1)
dk.run(chain, dk.RealSeq(np.ones(500)))
added = outside(before)
if added:
    fail("pole", f"a pole added {added} outside ddckit")
check("a run with a pole")
ddckit.cli.main(["simulate", "--preset", "lcls2", "--lp", "--noise", "0.01",
                 "--samples", "50000"])
check("ddckit simulate --lp")
"""


def _child_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports the same ddckit
    as this process."""
    src = str(Path(dk.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@functools.cache
def _import_guards() -> tuple[int, str, str]:
    """Run the import guards once, in a fresh interpreter: its exit code,
    its stdout (one ``guard: message`` line per failed check, after the CLI's
    output) and its stderr."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARDS], capture_output=True, text=True, env=_child_env()
    )
    return done.returncode, done.stdout, done.stderr


def _guard_failures(guard: str) -> list[str]:
    returncode, stdout, stderr = _import_guards()
    assert returncode == 0, stderr
    return [line for line in stdout.splitlines() if line.startswith(guard + ": ")]


def test_a_pole_loads_only_scipys_compiled_filter():
    assert _guard_failures("pole") == []


def test_design_queries_and_a_fir_run_import_nothing_after_the_cli():
    assert _guard_failures("first-call") == []


def test_mixer_tables_are_built_by_the_first_run_not_at_import():
    assert _guard_failures("tables") == []


def _recursion_calls(data, carry, pole):
    """The three calls ``_recursion`` makes, with the arguments it builds, as
    ``(b, a, x, axis, zi)``: a real block, the ``(n, 2)`` float view of a
    complex block along axis 0, and a complex block through ``pole``."""
    x = np.array(data)
    z = x + 1j * x[::-1]
    real = np.array([1.0, -pole.real])
    return [
        (np.ones(1), real, x, -1, np.array([carry.real])),
        (np.ones(1), real, z.view(np.float64).reshape(-1, 2), 0,
         np.array([[carry.real, carry.imag]])),
        (np.ones(1, dtype=np.complex128), np.array([1.0, -pole], dtype=np.complex128), z, -1,
         np.array([carry])),
    ]


def _lfilter_mismatches(calls, results):
    """The indices of the calls whose ``(output, carry)`` in ``results``
    differs from ``lfilter``'s in a bit."""
    return [
        i
        for i, ((b, a, x, axis, zi), got) in enumerate(zip(calls, results, strict=True))
        if [r.tobytes() for r in got]
        != [r.tobytes() for r in lfilter(b, a, x, axis=axis, zi=zi)]
    ]


@given(
    data=_samples,
    carry=st.tuples(_sample, _sample),
    pole=st.sampled_from([0.0, 1e-300, 0.5, 0.9375, 0.5j, -0.5])
    | st.complex_numbers(max_magnitude=0.99999),
)
@settings(max_examples=150, deadline=None)
def test_scipys_compiled_filter_gives_lfilters_bits(data, carry, pole):
    calls = _recursion_calls(data, complex(*carry), complex(pole))
    routine = dk.core._linear_filter()
    assert _lfilter_mismatches(calls, [routine(*call) for call in calls]) == []


# A fresh interpreter unpickles a block and the three calls, runs a chain
# with two poles on the block and the loaded routine on the calls, both
# before or after importing scipy.signal, and pickles the results and whether
# scipy.signal's lfilter reaches the very routine ddckit loaded.
_LOAD_ORDER = """
import pickle
import sys
order, given, taken = sys.argv[1:]
if order == "scipy-first":
    import scipy.signal
import ddckit as dk
from ddckit import core

with open(given, "rb") as f:
    x, calls = pickle.load(f)
carrier = dk.CarrierConfig(7, 33)
chain = dk.make_chain(carrier, dk.make_2sr(carrier), lp_bandwidth=0.05,
                      pre_mixer=dk.make_dc_reject_passband(15 / 16))
out = dk.run(chain, dk.RealSeq(x, start=40000007)).seq.values
routine = core._linear_filter()
results = [routine(*call) for call in calls]
import scipy.signal
from scipy.signal import _signaltools, _sigtools
holders = [
    sys.modules["scipy.signal._sigtools"], scipy.signal._sigtools, _sigtools,
    _signaltools._sigtools,
]
same = all(holder._linear_filter is routine for holder in holders)
with open(taken, "wb") as f:
    pickle.dump((out, results, same), f)
"""


def _awkward_block() -> np.ndarray:
    """Gaussian samples with runs of both signed zeros and two subnormals."""
    x = np.random.default_rng(3).standard_normal(1200)
    x[50:60], x[60:70], x[70], x[71] = -0.0, 0.0, 5e-324, -1e-310
    return x


def _awkward_calls() -> list:
    """The three calls on the awkward block, for a real pole and a complex
    one, from a carry with a subnormal imaginary part."""
    return [
        call
        for pole in (0.9375, 0.5 + 0.25j)
        for call in _recursion_calls(_awkward_block(), 0.75 - 1e-310j, pole)
    ]


@functools.cache
def _load_orders() -> dict[str, tuple[int, str, tuple]]:
    """Both load orders, each in a fresh interpreter, run side by side: the
    exit code, stderr and the unpickled results."""
    with tempfile.TemporaryDirectory() as tmp:
        given = Path(tmp, "given.pickle")
        given.write_bytes(pickle.dumps((_awkward_block(), _awkward_calls())))
        runs = {
            order: subprocess.Popen(
                [sys.executable, "-c", _LOAD_ORDER, order, given, Path(tmp, order)],
                stderr=subprocess.PIPE, text=True, env=_child_env(),
            )
            for order in ("ddckit-first", "scipy-first")
        }
        done = {order: (run.communicate()[1], run.returncode) for order, run in runs.items()}
        return {
            order: (code, err, code or pickle.loads(Path(tmp, order).read_bytes()))
            for order, (err, code) in done.items()
        }


@pytest.mark.parametrize("order", ["ddckit-first", "scipy-first"])
def test_the_loaded_routine_is_lfilters_in_either_import_order(order):
    returncode, stderr, taken = _load_orders()[order]
    assert returncode == 0, stderr
    out, results, same = taken
    assert same
    carrier = dk.CarrierConfig(7, 33)
    chain = dk.make_chain(
        carrier, dk.make_2sr(carrier), lp_bandwidth=0.05,
        pre_mixer=dk.make_dc_reject_passband(15 / 16),
    )
    assert out.tobytes() == _reference_chain(chain, _awkward_block(), 40000007).tobytes()
    assert _lfilter_mismatches(_awkward_calls(), results) == []
