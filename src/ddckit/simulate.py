"""Synthetic ADC streams and experiments that check pipelines against the
analytic baseband predictions.

Noise is injected where it physically arises, as real white Gaussian samples
at the ADC, so the mixed noise seen by the baseband filters is genuinely
cyclostationary; the experiments then verify that its output variance matches
``4*sigma^2`` times the analytic filter energy.  Every stage of a chain is
linear, so that variance is measured by running the chain on the seeded noise
alone.  The generator is NumPy's PCG64 ``Generator.standard_normal``, seeded
per spec, which pins every experiment to a reproducible stream.  One helper
draws that noise, a chain chunk at a time; chunked draws are bitwise the
one-shot draw.  A noise study streams each chunk through the chain as it is
drawn and keeps only the output power after the transient, so its memory does
not grow with the whole noise or output.  One worker thread draws the study's
noise and hands the chunks over through one bounded queue, so the draw runs
beside the chain pass; the chunks and every number are bitwise those of
drawing them in turn.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import queue
import threading
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence, Union, get_args

import numpy as np

from . import analysis
from .core import (
    CarrierConfig,
    ComplexFilter,
    RealSeq,
    UsageError,
    _adopt,
    _check_type,
    _is_int,
    _is_number,
    _tone,
    _validated_samples,
)
from .filters import make_iq
from .pipeline import _CHUNK, DdcChain, DdcOutput, _Stepper, run, transient_length


@dataclass(frozen=True)
class ConstantEnvelope:
    value: complex = 1.0

    def __post_init__(self) -> None:
        _check_amplitudes(self.value)

    def at(self, k: np.ndarray) -> np.ndarray:
        k = _sample_indices(k)
        return np.full(k.shape, complex(self.value), dtype=np.complex128)


@dataclass(frozen=True)
class StepEnvelope:
    """Jumps from ``before`` to ``after`` at absolute sample ``step_index``."""

    before: complex
    after: complex
    step_index: int

    def __post_init__(self) -> None:
        _check_amplitudes(self.before, self.after)
        if not _is_int(self.step_index):
            raise UsageError("step_index must be an integer")

    def at(self, k: np.ndarray) -> np.ndarray:
        return np.where(
            _sample_indices(k) < self.step_index,
            complex(self.before),
            complex(self.after),
        ).astype(np.complex128)


@dataclass(frozen=True)
class PhaseRampEnvelope:
    """Constant amplitude with linearly advancing phase (a detuned carrier),
    at integer sample indices."""

    amplitude: complex = 1.0
    rate: float = 0.0  # rad per input sample

    def __post_init__(self) -> None:
        _check_amplitudes(self.amplitude)
        if not _is_number(self.rate, numbers.Real):
            raise UsageError("rate must be a finite real number")

    def at(self, k: np.ndarray) -> np.ndarray:
        return complex(self.amplitude) * np.exp(1j * self.rate * _sample_indices(k))


@dataclass(frozen=True, eq=False)
class SampledEnvelope:
    """Explicit envelope trajectory, one value per absolute sample index,
    kept as a read-only complex copy of the values given."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "values",
            _validated_samples(self.values, np.complex128, "sampled envelope values"),
        )

    def at(self, k: np.ndarray) -> np.ndarray:
        k = _sample_indices(k)
        if np.any(k >= len(self.values)) or np.any(k < 0):
            raise UsageError("sampled envelope is shorter than the request")
        return self.values[k]


Envelope = Union[ConstantEnvelope, StepEnvelope, PhaseRampEnvelope, SampledEnvelope]


@dataclass(frozen=True)
class SignalSpec:
    """Description of a synthetic ADC stream.

    ``harmonics`` lists ``(order, amplitude)`` pairs for tones at integer
    multiples of the carrier (order >= 2); aliasing through the sample rate is
    implicit in the block arithmetic.  ``noise_sigma`` is the standard
    deviation of the real white ADC noise per sample, drawn from ``seed`` (a
    non-negative integer).
    """

    envelope: Envelope = field(default_factory=ConstantEnvelope)
    noise_sigma: float = 0.0
    dc_offset: float = 0.0
    harmonics: tuple[tuple[int, complex], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_type(self.envelope, get_args(Envelope), "envelope")
        sigma = self.noise_sigma
        # The noise power 4*sigma**2 scales every noise-gain estimate.
        if not (
            _is_number(sigma, numbers.Real)
            and sigma >= 0.0
            and _is_number(4.0 * sigma * sigma, numbers.Real)
        ):
            raise UsageError(
                "noise_sigma must be a non-negative real number whose noise "
                "power 4*sigma**2 is finite"
            )
        if not _is_number(self.dc_offset, numbers.Real):
            raise UsageError("dc_offset must be a finite real number")
        orders = []
        for harmonic in self.harmonics:
            try:
                order, amplitude = harmonic
            except (TypeError, ValueError):
                raise UsageError("harmonics must be (order, amplitude) pairs") from None
            if not _is_int(order) or order < 2:
                raise UsageError("harmonic orders must be integers >= 2")
            if not _is_number(amplitude, numbers.Complex):
                raise UsageError("harmonic amplitudes must be finite numbers")
            orders.append(order)
        if len(set(orders)) != len(orders):
            raise UsageError("harmonic orders must be distinct")
        _check_seed(self.seed)


def _sample_indices(k) -> np.ndarray:
    """``k``, the absolute sample indices an envelope is asked for, as an
    array of integers; anything else is a :class:`~ddckit.core.UsageError`."""
    try:
        k = np.asarray(k)
    except (TypeError, ValueError):  # ragged nesting
        raise UsageError("sample indices must be integers") from None
    if k.dtype.kind not in "iu":
        raise UsageError(f"sample indices must be integers, not {k.dtype}")
    return k


def _check_amplitudes(*values) -> None:
    if not all(_is_number(value, numbers.Complex) for value in values):
        raise UsageError("envelope values must be finite numbers")


def _check_seed(seed) -> None:
    if not _is_int(seed) or seed < 0:
        raise UsageError(f"seed must be a non-negative integer, not {seed!r}")


def _check_count(count) -> None:
    if not _is_int(count) or count < 1:
        raise UsageError(f"count must be a positive integer, not {count!r}")


def _adc_noise(sigma: float, seed: int, count: int) -> Iterator[np.ndarray]:
    """The white ADC noise of a seeded stream, ``count`` real samples, drawn
    in consecutive chunks of at most ``_CHUNK``.

    The generator draws its normals one after another, so the chunks are
    bitwise the one-shot draw ``sigma * standard_normal(count)``."""
    rng = np.random.default_rng(seed)
    for begin in range(0, count, _CHUNK):
        chunk = rng.standard_normal(min(_CHUNK, count - begin))
        chunk *= sigma
        yield chunk


_AHEAD = 2  # drawn chunks a noise study's queue holds


def _noise_ahead(sigma: float, seeds: Sequence[int], count: int) -> Iterator[np.ndarray]:
    """The ADC noise of a noise study, seed after seed, in the chunks
    :func:`_adc_noise` draws, drawn ahead of the caller by one worker thread.

    The worker puts each chunk in order into one queue of depth ``_AHEAD``,
    so the caller gets the chunks, with their bits, that it would have drawn
    itself, and the worker is never more than ``_AHEAD + 1`` chunks ahead.
    numpy draws with the GIL released, so the draw runs beside the caller's
    chain pass.  A failed draw is put in the queue and raised here as the
    same exception.  The worker checks a stop flag before each put.  Closing
    the generator, which the caller does on success or failure, sets the
    flag, drains the queue and joins the worker: after the drain the worker
    puts at most one more chunk, and the queue has room for it."""
    ready = queue.Queue(_AHEAD)
    stop = threading.Event()

    def draw() -> None:
        try:
            for seed in seeds:
                for chunk in _adc_noise(sigma, seed, count):
                    if stop.is_set():
                        return
                    ready.put(chunk)
        except BaseException as exc:
            if not stop.is_set():
                ready.put(exc)

    worker = threading.Thread(target=draw, name="ddckit-noise-draw")
    worker.start()
    try:
        for _ in range(len(seeds) * len(range(0, count, _CHUNK))):
            chunk = ready.get()
            if isinstance(chunk, BaseException):
                raise chunk
            yield chunk
    finally:
        stop.set()
        while not ready.empty():  # the caller is the only taker
            ready.get()
        worker.join()


def _adc_stream(
    spec: SignalSpec, carrier: CarrierConfig, count: int
) -> tuple[RealSeq, list[np.ndarray]]:
    """The stream of :func:`synthesize`, adopted from the samples it computes
    (an overflow is a :class:`~ddckit.core.DomainError`), and the noise in
    them as the chunks it was drawn in (none without noise)."""
    noise = []
    if spec.noise_sigma > 0.0:
        noise = list(_adc_noise(spec.noise_sigma, spec.seed, count))
    args = (spec, carrier, count, noise)
    return _adopt(RealSeq, "the synthesized stream", _samples, *args, start=0), noise


def _samples(
    spec: SignalSpec, carrier: CarrierConfig, count: int, noise: list[np.ndarray]
) -> np.ndarray:
    """Every term of :func:`synthesize`, with the ``noise`` chunks added
    last, as a new array."""
    k = np.arange(count)
    # The carrier, exp(+1j*step*k), is the conjugate of the mixer's phasor.
    carrier_pos = _tone(-1j * carrier.phase_step, carrier.samples, 0, count, np.conj)
    y = (spec.envelope.at(k) * carrier_pos).real.copy()
    for order, amplitude in spec.harmonics:
        rate, amplitude = 1j * (order * carrier.phase_step), complex(amplitude)
        y += _tone(rate, carrier.samples, 0, count, lambda tone: (amplitude * tone).real)
    if spec.dc_offset:
        y += spec.dc_offset
    for begin, chunk in zip(range(0, count, _CHUNK), noise):
        y[begin : begin + len(chunk)] += chunk
    return y


def synthesize(spec: SignalSpec, carrier: CarrierConfig, count: int) -> RealSeq:
    """Generate ``count`` ADC samples starting at absolute index zero.

    Sample k is the real carrier with the spec's envelope, plus each harmonic
    tone, the DC offset, and white Gaussian noise.  All deterministic phasors
    repeat every carrier block and are evaluated at ``k % samples``, once for
    each residue the stream reaches, by the one helper every carrier-periodic
    phasor comes from, so tones land exactly on their grid frequencies
    regardless of length.
    """
    _check_type(spec, SignalSpec, "the signal spec")
    _check_type(carrier, CarrierConfig, "the carrier")
    _check_count(count)
    return _adc_stream(spec, carrier, count)[0]


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one pipeline experiment.

    ``noise_gain_empirical`` is output noise variance over ``4*sigma^2`` and
    should match ``noise_gain_analytic`` (the chain's effective filter energy,
    single- or multirate depending on the chain order) within a few standard
    errors.  ``spur_level_db`` is the strongest coherently demodulated
    periodic residual relative to the envelope magnitude.
    """

    rms_envelope_error: float
    spur_level_db: float
    noise_gain_empirical: float | None
    noise_gain_stderr: float | None
    noise_gain_analytic: float
    settling_samples: int
    output_samples: int


def _noise_power(chain: DdcChain, noise: Iterable[np.ndarray], count: int) -> np.ndarray:
    """Output power of the chain run on ADC noise alone, from its first
    output past the transient on: its mean over ``4*sigma^2`` estimates the
    noise gain.

    ``noise`` holds the ``count`` samples in the chunks :func:`_adc_noise`
    draws.  Each chunk goes through one :class:`~ddckit.pipeline._Stepper`
    pass as it comes, and the power of its post-transient outputs is written
    into one array, so neither the whole output nor, when ``noise`` is drawn
    as it is read, the whole noise is built.  The noise is the package's
    own, so it is not validated again.  The caller has checked that the run
    has post-transient output."""
    # The stepper first: the first pass over a carrier ratio builds the mixer
    # table that is kept, and built before the power array it sits below it
    # in the heap, so the array's memory can go back to the system once it
    # is freed.  A study's chunks come from its drawing thread's own malloc
    # arena.  Peak RSS of ten noise studies on the benchmark's chains (2**19
    # samples, 4 seeds, a fresh interpreter, glibc): built first, 109 of 113
    # runs read 43.0-43.4 MB and 4 read 47.0-47.1 MB; built after the array,
    # 5 of 16 runs read 46.1-46.4 MB.
    step = _Stepper(chain, 0).step
    power = np.empty(len(range(count)[chain._outputs]) - chain._settled)
    end = -chain._settled  # where the next chunk's last output goes in ``power``, plus 1
    for chunk in noise:
        z = step(chunk)
        end += len(z)
        # Outputs before the first settled one would go below index 0: they
        # are dropped.
        dest = power[max(end - len(z), 0) : max(end, 0)]
        np.abs(z[len(z) - len(dest) :], out=dest)
        np.square(dest, out=dest)
    return power


def analytic_noise_gain(chain: DdcChain) -> float:
    """Effective squared filter norm of the chain for white ADC noise: the
    exact energy of its stage plan's baseband stages, each at its rate (a
    stage after the decimator in ``z^decimation``, by the noble identity).
    A decimator by 1 leaves the single-rate norm of the same cascade, bit
    for bit."""
    _check_type(chain, DdcChain, "the chain")
    return analysis._norm_sq([(stage.baseband, stage.rate) for stage in chain._plan.stages()])


def _spur_candidates(spec: SignalSpec, chain: DdcChain) -> list[float]:
    """Full-rate baseband frequencies where deterministic spurs can sit."""
    step = chain.carrier.phase_step
    thetas = [analysis.reduce_angle(-step), analysis.reduce_angle(-2.0 * step)]
    for order, _ in spec.harmonics:
        images = analysis.alias_map(order, chain.carrier)
        thetas.extend([images.pos, images.neg])
    return thetas


def _demodulate_spurs(
    residual: np.ndarray, thetas: Sequence[float], chain: DdcChain
) -> float:
    """Largest coherently demodulated spur amplitude in the residual.

    Demodulation runs over a whole number of carrier blocks so that every
    other block-periodic component integrates to zero exactly.
    """
    block = chain.carrier.samples
    usable = (len(residual) // block) * block
    # One carrier block per row: a row times a block-length table is the
    # window times the periodic phasor, element for element.
    rows = residual[:usable].reshape(-1, block)
    strongest = 0.0
    for theta in thetas:
        # At the output rate the spur period still divides one carrier block,
        # so the demodulating phasor is one block of a carrier-periodic tone.
        table = _tone(-1j * (theta * chain._outputs.step), block, 0, block)
        amp = abs(np.mean((rows * table).ravel()))
        strongest = max(strongest, amp)
    return strongest


def _check_experiment_length(chain: DdcChain, count: int) -> int:
    """The chain transient, once ``count`` input samples are known to cover
    ten transients, and the transient and one decimated carrier block after
    it.  Those ``carrier.samples`` times the chain's total decimation factor
    (its outputs' input-index step) hold one carrier block of outputs, so
    the spurs always have a whole block to be demodulated over."""
    settle = transient_length(chain)
    if count < max(10 * settle, settle + chain.carrier.samples * chain._outputs.step):
        raise UsageError(
            f"{count} samples is too short: need at least 10x the transient "
            f"({settle}), and the transient and one decimated carrier block after it"
        )
    return settle


def _experiment(
    spec: SignalSpec, chain: DdcChain, count: int
) -> tuple[ExperimentReport, DdcOutput]:
    """:func:`run_experiment`'s report, and the chain's output for the whole
    stream that it measured."""
    _check_type(spec, SignalSpec, "the signal spec")
    _check_type(chain, DdcChain, "the chain")
    _check_count(count)
    settle = _check_experiment_length(chain, count)
    y, noise = _adc_stream(spec, chain.carrier, count)
    out = run(chain, y)
    del y
    expected = spec.envelope.at(np.arange(*chain._outputs.indices(count)))
    j0 = chain._settled
    residual = out.seq.values[j0:] - expected[j0:]

    gain = stderr = None
    if noise:
        with np.errstate(over="ignore", invalid="ignore"):
            power = _noise_power(chain, noise, count)
            scale = 4.0 * spec.noise_sigma**2
            gain = float(np.mean(power)) / scale
            blocks = min(16, len(power))
            per_block = [float(np.mean(p)) for p in np.array_split(power, blocks)]
            stderr = float(np.std(per_block, ddof=1) / math.sqrt(blocks)) / scale
        # A noise power beyond the float range leaves a non-finite estimate,
        # which the report refuses with DomainError.  It is checked before
        # the envelope error, which the same overflow would spoil.
        analysis.NormReport(gain, "monte-carlo", stderr)

    rms_error = float(np.sqrt(np.mean(np.abs(residual) ** 2)))

    spur_amp = _demodulate_spurs(residual, _spur_candidates(spec, chain), chain)
    ref = float(np.sqrt(np.mean(np.abs(expected[j0:]) ** 2)))
    spur_db = 20.0 * math.log10(max(spur_amp, 1e-300) / (ref if ref > 0 else 1.0))

    return ExperimentReport(
        rms_envelope_error=rms_error,
        spur_level_db=spur_db,
        noise_gain_empirical=gain,
        noise_gain_stderr=stderr,
        noise_gain_analytic=analytic_noise_gain(chain),
        settling_samples=settle,
        output_samples=len(out.seq),
    ), out


def run_experiment(spec: SignalSpec, chain: DdcChain, count: int) -> ExperimentReport:
    """Synthesize a stream, run the chain, and compare against the known
    envelope trajectory and the analytic noise gain.

    The envelope error and the spurs are measured on the chain's output for
    the whole stream, at the input indices the chain places its outputs at;
    the empirical noise gain on a second pass, over the stream's ADC noise
    alone, through the noise study's output-power helper.  The noise is
    drawn once, for both runs."""
    return _experiment(spec, chain, count)[0]


def noise_gain_study(
    spec: SignalSpec, chain: DdcChain, count: int, seeds: Sequence[int]
) -> analysis.NormReport:
    """Monte-Carlo noise gain over several distinct seeds, as a norm report.

    Every stage of the chain is linear, so each seed's estimate comes from one
    pass of the chain over that seed's ADC noise alone.  The noise is drawn a
    chunk at a time and streamed through the chain, and the estimate is the
    mean of the post-transient output power, held in one array per seed; the
    numbers are bitwise those of running the chain on the whole noise at
    once.  One worker thread, started after the arguments are checked and
    joined before the study returns or raises, draws the seeds' noise in
    order into a queue of a few chunks that the chain pass takes from: the
    draw, which numpy runs with the GIL released, overlaps the chain pass,
    and the numbers do not change.  A failed draw is raised here as the same
    exception.  By linearity, only ``spec.noise_sigma`` affects the
    estimate: the envelope, harmonics, DC offset and ``spec.seed`` do not.
    """
    _check_type(spec, SignalSpec, "the signal spec")
    _check_type(chain, DdcChain, "the chain")
    _check_type(seeds, Sequence, "the noise study's seeds")
    _check_count(count)
    if spec.noise_sigma <= 0.0:
        raise UsageError("noise study needs noise_sigma > 0")
    if len(seeds) < 2:
        raise UsageError("need at least two seeds for a standard error")
    for seed in seeds:
        _check_seed(seed)
    if len(set(seeds)) != len(seeds):
        raise UsageError("noise study seeds must be distinct")
    if chain._settled >= len(range(count)[chain._outputs]):
        raise UsageError("no post-transient output samples to evaluate")
    scale = 4.0 * spec.noise_sigma**2
    # A noise power beyond the float range leaves a non-finite estimate, which
    # the report refuses with DomainError.
    with np.errstate(over="ignore", invalid="ignore"):
        per_seed = len(range(0, count, _CHUNK))
        with contextlib.closing(_noise_ahead(spec.noise_sigma, seeds, count)) as noise:
            gains = [
                float(np.mean(_noise_power(chain, islice(noise, per_seed), count))) / scale
                for _ in seeds
            ]
        gains_arr = np.asarray(gains)
        value = float(np.mean(gains_arr))
        stderr = float(np.std(gains_arr, ddof=1) / math.sqrt(len(gains_arr)))
    return analysis.NormReport(value=value, method="monte-carlo", stderr=stderr)


def harmonic_bias(
    carrier: CarrierConfig,
    ddc_filter: ComplexFilter,
    order: int,
    amplitude: complex,
    count: int,
) -> complex:
    """Steady-state envelope estimate minus the true envelope when the input
    carries one harmonic tone on the constant envelope 1.

    Averaging over whole carrier blocks after the transient removes every
    non-zero-frequency image exactly, so what remains is the bias from images
    aliased onto zero baseband frequency (plus float dust).
    """
    chain = DdcChain(carrier, ddc_filter)
    spec = SignalSpec(harmonics=((order, amplitude),))
    out = run(chain, synthesize(spec, carrier, count))
    j0 = chain._settled
    usable = ((len(out.seq) - j0) // carrier.samples) * carrier.samples
    if usable == 0:
        raise UsageError("too few samples to average a whole carrier block")
    window = out.seq.values[j0 : j0 + usable]
    return complex(np.mean(window) - 1.0)


def iq_harmonic_bias(
    amplitude: complex, count: int, carrier: CarrierConfig | None = None
) -> complex:
    """Envelope bias of the quarter-rate (IQ) chain under a third-harmonic
    tone; the image lands exactly on zero baseband frequency, so the bias is
    the conjugated harmonic amplitude rather than float dust."""
    if carrier is None:
        carrier = CarrierConfig(1, 4)
    _check_type(carrier, CarrierConfig, "the carrier")
    if carrier.samples != 4 * carrier.periods:
        raise UsageError("IQ harmonic bias requires a quarter-rate carrier")
    return harmonic_bias(carrier, make_iq(carrier), 3, amplitude, count)
