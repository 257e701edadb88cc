"""Synthetic ADC streams and experiments that check pipelines against the
analytic baseband predictions.

Noise is injected where it physically arises, as real white Gaussian samples
at the ADC, so the mixed noise seen by the baseband filters is genuinely
cyclostationary; the experiments then verify that its output variance matches
``4*sigma^2`` times the analytic filter energy.  The generator is NumPy's
PCG64 ``Generator.standard_normal``, seeded per spec, which pins every
experiment to a reproducible stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from . import analysis
from .core import CarrierConfig, ComplexFilter, RealSeq, UsageError
from .filters import make_iq
from .pipeline import DdcChain, run, transient_length


@dataclass(frozen=True)
class ConstantEnvelope:
    value: complex = 1.0

    def at(self, k: np.ndarray) -> np.ndarray:
        return np.full(len(k), complex(self.value), dtype=np.complex128)


@dataclass(frozen=True)
class StepEnvelope:
    """Jumps from ``before`` to ``after`` at absolute sample ``step_index``."""

    before: complex
    after: complex
    step_index: int

    def at(self, k: np.ndarray) -> np.ndarray:
        return np.where(
            np.asarray(k) < self.step_index,
            complex(self.before),
            complex(self.after),
        ).astype(np.complex128)


@dataclass(frozen=True)
class PhaseRampEnvelope:
    """Constant amplitude with linearly advancing phase (a detuned carrier)."""

    amplitude: complex = 1.0
    rate: float = 0.0  # rad per input sample

    def at(self, k: np.ndarray) -> np.ndarray:
        return complex(self.amplitude) * np.exp(1j * self.rate * np.asarray(k))


@dataclass(frozen=True)
class SampledEnvelope:
    """Explicit envelope trajectory, one value per absolute sample index."""

    values: np.ndarray

    def at(self, k: np.ndarray) -> np.ndarray:
        values = np.asarray(self.values, dtype=np.complex128)
        k = np.asarray(k)
        if np.any(k >= len(values)) or np.any(k < 0):
            raise UsageError("sampled envelope is shorter than the request")
        return values[k]


Envelope = Union[ConstantEnvelope, StepEnvelope, PhaseRampEnvelope, SampledEnvelope]


@dataclass(frozen=True)
class SignalSpec:
    """Description of a synthetic ADC stream.

    ``harmonics`` lists ``(order, amplitude)`` pairs for tones at integer
    multiples of the carrier (order >= 2); aliasing through the sample rate is
    implicit in the block arithmetic.  ``noise_sigma`` is the standard
    deviation of the real white ADC noise per sample.
    """

    envelope: Envelope = field(default_factory=ConstantEnvelope)
    noise_sigma: float = 0.0
    dc_offset: float = 0.0
    harmonics: tuple[tuple[int, complex], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.noise_sigma >= 0.0 and math.isfinite(self.noise_sigma)):
            raise UsageError("noise_sigma must be finite and non-negative")
        if not math.isfinite(self.dc_offset):
            raise UsageError("dc_offset must be finite")
        orders = [m for m, _ in self.harmonics]
        if any(not isinstance(m, int) or m < 2 for m in orders):
            raise UsageError("harmonic orders must be integers >= 2")
        if len(set(orders)) != len(orders):
            raise UsageError("harmonic orders must be distinct")


def synthesize(spec: SignalSpec, carrier: CarrierConfig, count: int) -> RealSeq:
    """Generate ``count`` ADC samples starting at absolute index zero.

    Sample k is the real carrier with the spec's envelope, plus each harmonic
    tone, the DC offset, and white Gaussian noise.  All deterministic phasors
    are read from block-periodic tables, so tones land exactly on their grid
    frequencies regardless of length.
    """
    if count < 1:
        raise UsageError("need at least one sample")
    k = np.arange(count)
    idx = k % carrier.samples
    carrier_pos = np.conj(carrier.mixer_phases())  # exp(+1j*step*k), one block
    y = (spec.envelope.at(k) * carrier_pos[idx]).real.copy()
    for order, amplitude in spec.harmonics:
        table = np.exp(1j * (order * carrier.phase_step) * np.arange(carrier.samples))
        y += (complex(amplitude) * table[idx]).real
    if spec.dc_offset:
        y += spec.dc_offset
    if spec.noise_sigma > 0.0:
        rng = np.random.default_rng(spec.seed)
        y += spec.noise_sigma * rng.standard_normal(count)
    return RealSeq(y, start=0)


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


def _first_clean_output(chain: DdcChain, margin: int = 0) -> int:
    settle = transient_length(chain) + margin
    return max(0, math.ceil((settle - chain.decimation_phase) / chain.decimation))


def analytic_noise_gain(chain: DdcChain) -> float:
    """Effective squared filter norm of the chain for white ADC noise."""
    stages = chain.baseband_stages()
    for stage in chain._stages:
        if stage.decimated:
            # Only the low-pass can run after the decimator.
            return analysis.multirate_norm_sq(
                stages, stage.baseband, chain.decimation
            ).value
    return analysis.h2_norm_sq(stages).value


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
    if usable == 0:
        return math.nan
    window = residual[:usable]
    idx = np.arange(usable) % block
    strongest = 0.0
    for theta in thetas:
        # At the output rate the spur period still divides one carrier block,
        # so the demodulating phasor is read from a block-length table.
        table = np.exp(-1j * (theta * chain.decimation) * np.arange(block))
        amp = abs(np.mean(window * table[idx]))
        strongest = max(strongest, amp)
    return strongest


def _check_experiment_length(chain: DdcChain, count: int) -> int:
    """The chain transient, once ``count`` input samples are known to cover
    ten transients and one decimated carrier block."""
    settle = transient_length(chain)
    if count < max(10 * settle, chain.carrier.samples * chain.decimation):
        raise UsageError(
            f"{count} samples is too short: need at least 10x the transient "
            f"({settle}) and one decimated carrier block"
        )
    return settle


def run_experiment(spec: SignalSpec, chain: DdcChain, count: int) -> ExperimentReport:
    """Synthesize a stream, run the chain, and compare against the known
    envelope trajectory and the analytic noise gain."""
    settle = _check_experiment_length(chain, count)
    out = run(chain, synthesize(spec, chain.carrier, count))
    k_out = chain.decimation_phase + np.arange(len(out.seq)) * chain.decimation
    expected = spec.envelope.at(k_out)
    j0 = _first_clean_output(chain)
    residual = out.seq.values[j0:] - expected[j0:]
    if len(residual) == 0:
        raise UsageError("no post-transient output samples to evaluate")

    rms_error = float(np.sqrt(np.mean(np.abs(residual) ** 2)))

    spur_amp = _demodulate_spurs(residual, _spur_candidates(spec, chain), chain)
    ref = float(np.sqrt(np.mean(np.abs(expected[j0:]) ** 2)))
    if math.isnan(spur_amp):
        spur_db = math.nan
    else:
        spur_db = 20.0 * math.log10(max(spur_amp, 1e-300) / (ref if ref > 0 else 1.0))

    gain = stderr = None
    if spec.noise_sigma > 0.0:
        quiet = run(chain, synthesize(replace(spec, noise_sigma=0.0), chain.carrier, count))
        noise = (out.seq.values - quiet.seq.values)[j0:]
        power = np.abs(noise) ** 2
        gain = float(np.mean(power)) / (4.0 * spec.noise_sigma**2)
        blocks = min(16, len(power))
        per_block = [float(np.mean(p)) for p in np.array_split(power, blocks)]
        stderr = float(np.std(per_block, ddof=1) / math.sqrt(blocks)) / (
            4.0 * spec.noise_sigma**2
        )

    return ExperimentReport(
        rms_envelope_error=rms_error,
        spur_level_db=spur_db,
        noise_gain_empirical=gain,
        noise_gain_stderr=stderr,
        noise_gain_analytic=analytic_noise_gain(chain),
        settling_samples=settle,
        output_samples=len(out.seq),
    )


def noise_gain_study(
    spec: SignalSpec, chain: DdcChain, count: int, seeds: Sequence[int]
) -> analysis.NormReport:
    """Monte-Carlo noise gain over several seeds, as a norm report.

    The deterministic part of the stream is synthesized once and subtracted
    from every noisy run, so the estimate isolates the filtered ADC noise.
    """
    if spec.noise_sigma <= 0.0:
        raise UsageError("noise study needs noise_sigma > 0")
    if len(seeds) < 2:
        raise UsageError("need at least two seeds for a standard error")
    j0 = _first_clean_output(chain)
    if j0 >= len(range(chain.decimation_phase, count, chain.decimation)):
        raise UsageError("no post-transient output samples to evaluate")
    quiet = run(chain, synthesize(replace(spec, noise_sigma=0.0), chain.carrier, count))
    gains = []
    for seed in seeds:
        out = run(chain, synthesize(replace(spec, seed=seed), chain.carrier, count))
        noise = (out.seq.values - quiet.seq.values)[j0:]
        gains.append(float(np.mean(np.abs(noise) ** 2)) / (4.0 * spec.noise_sigma**2))
    gains_arr = np.asarray(gains)
    return analysis.NormReport(
        value=float(np.mean(gains_arr)),
        method="monte-carlo",
        stderr=float(np.std(gains_arr, ddof=1) / math.sqrt(len(gains_arr))),
    )


def harmonic_bias(
    carrier: CarrierConfig,
    ddc_filter: ComplexFilter,
    order: int,
    amplitude: complex,
    count: int,
    envelope_value: complex = 1.0,
) -> complex:
    """Steady-state envelope estimate minus the true envelope when the input
    carries one harmonic tone.

    Averaging over whole carrier blocks after the transient removes every
    non-zero-frequency image exactly, so what remains is the bias from images
    aliased onto zero baseband frequency (plus float dust).
    """
    chain = DdcChain(carrier, ddc_filter)
    spec = SignalSpec(
        envelope=ConstantEnvelope(envelope_value),
        harmonics=((order, complex(amplitude)),),
    )
    out = run(chain, synthesize(spec, carrier, count))
    j0 = _first_clean_output(chain)
    usable = ((len(out.seq) - j0) // carrier.samples) * carrier.samples
    if usable == 0:
        raise UsageError("too few samples to average a whole carrier block")
    window = out.seq.values[j0 : j0 + usable]
    return complex(np.mean(window) - complex(envelope_value))


def iq_harmonic_bias(
    amplitude: complex, count: int, carrier: CarrierConfig | None = None
) -> complex:
    """Envelope bias of the quarter-rate (IQ) chain under a third-harmonic
    tone; the image lands exactly on zero baseband frequency, so the bias is
    the conjugated harmonic amplitude rather than float dust."""
    if carrier is None:
        carrier = CarrierConfig(1, 4)
    if carrier.samples != 4 * carrier.periods:
        raise UsageError("IQ harmonic bias requires a quarter-rate carrier")
    return harmonic_bias(carrier, make_iq(carrier), 3, amplitude, count)
