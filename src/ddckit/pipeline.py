"""The full downconversion chain: optional passband pre-filter, digital mixer,
envelope filter, optional extra low-pass, and decimation in either order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import analysis
from .core import (
    CarrierConfig,
    ComplexFilter,
    ComplexSeq,
    Domain,
    FilterState,
    RealSeq,
    UsageError,
    _adopt,
    _check_type,
    _filter_block,
    _is_int,
)
from .filters import make_lp, to_baseband

# Residual below this fraction of a unit impulse counts as settled.
_SETTLE_EPS = 1e-12

# Input samples per chunk of a chain pass (run, and the noise studies, which
# also draw their noise a chunk at a time): a chunk's complex intermediates
# (256 KiB each) stay in a 2 MiB L2 cache while every stage passes over them.
_CHUNK = 16384

# Most phasors in a mixer table that is kept (1 MiB): a chunk and a carrier
# block of up to 49153 samples, less one.
_MIXER_KEPT = 65536


class ChainOrder(Enum):
    """Where decimation sits relative to the extra low-pass filter."""

    FILTER_THEN_DECIMATE = "filter-then-decimate"
    DECIMATE_THEN_FILTER = "decimate-then-filter"


class _Stage(NamedTuple):
    """One filter of a chain: as it runs, in its baseband form, and its rate
    (input samples per sample it runs on)."""

    filter: ComplexFilter
    baseband: ComplexFilter
    rate: int


class _Segment(NamedTuple):
    """Stages after the mixer that run at one rate, in processing order,
    then a decimator by ``factor`` that keeps the samples ``phase::factor``
    of their output; the last stage computes only those (unless it has a
    pole)."""

    stages: tuple[_Stage, ...]
    factor: int
    phase: int


class _Plan(NamedTuple):
    """A chain's stages in the order a pass runs them: the passband stages,
    on the raw ADC stream, then, after the mixer, the rate segments."""

    passband: tuple[_Stage, ...]
    segments: tuple[_Segment, ...]

    def stages(self) -> tuple[_Stage, ...]:
        """Every stage, in processing order."""
        return (*self.passband, *(stage for seg in self.segments for stage in seg.stages))


@dataclass(frozen=True)
class DdcChain:
    """An immutable downconversion pipeline description.

    Stages run in order: ``pre_mixer`` (passband, on the raw ADC stream),
    mixer, ``ddc`` (the envelope filter), then either low-pass and decimate or
    decimate and low-pass.  When filtering after decimation the ``lowpass``
    stage runs at the decimated rate and must be built for the longer sample
    period; :func:`make_chain` does that bookkeeping.

    Construction validates the fields and derives the chain's one stage
    plan: its filters in processing order, each with its baseband form and
    its rate, the passband ones and then the rate segments after the mixer.
    Filtering then decimating is one segment, ``(ddc[, lowpass])`` and the
    decimator; decimating then filtering adds a second, the low-pass at the
    decimated rate.  :func:`run`, :func:`transient_length`,
    :func:`group_delay_seconds`, :meth:`baseband_stages` and
    ``analytic_noise_gain`` all read that plan.  Three things are derived
    from it once too, so a block pays only for its own arithmetic: the
    transient length, the input index each output sits at (the segments'
    phases carried through their factors, and the total factor), and the
    first output past the transient.  Every reader of output positions, the
    simulator's included, takes them from there; only this module reads the
    decimation fields.
    """

    carrier: CarrierConfig
    ddc: ComplexFilter
    lowpass: ComplexFilter | None = None
    pre_mixer: ComplexFilter | None = None
    decimation: int = 1
    decimation_phase: int = 0
    order: ChainOrder = ChainOrder.FILTER_THEN_DECIMATE

    def __post_init__(self) -> None:
        _check_type(self.carrier, CarrierConfig, "the chain's carrier")
        _check_type(self.ddc, ComplexFilter, "the DDC filter")
        _check_type(self.lowpass, (ComplexFilter, type(None)), "the low-pass stage")
        _check_type(self.pre_mixer, (ComplexFilter, type(None)), "the pre-mixer stage")
        _check_type(self.order, ChainOrder, "the chain order")
        if self.ddc.domain is not Domain.BASEBAND:
            raise UsageError("the DDC filter must be a baseband filter")
        if self.lowpass is not None and self.lowpass.domain is not Domain.BASEBAND:
            raise UsageError("the low-pass stage must be a baseband filter")
        if self.pre_mixer is not None and self.pre_mixer.domain is not Domain.PASSBAND:
            raise UsageError("the pre-mixer stage must be a passband filter")
        if not _is_int(self.decimation) or self.decimation < 1:
            raise UsageError("decimation must be a positive integer")
        if not _is_int(self.decimation_phase):
            raise UsageError("decimation phase must be an integer")
        if not (0 <= self.decimation_phase < self.decimation):
            raise UsageError("decimation phase out of range")
        if self.order is ChainOrder.DECIMATE_THEN_FILTER and self.lowpass is None:
            raise UsageError("decimate-then-filter needs a low-pass stage")
        passband = ()
        if self.pre_mixer is not None:
            passband = (_Stage(self.pre_mixer, to_baseband(self.pre_mixer, self.carrier), 1),)
        stages, lowrate = (_Stage(self.ddc, self.ddc, 1),), ()
        if self.order is ChainOrder.DECIMATE_THEN_FILTER:
            lowrate = (_Segment((_Stage(self.lowpass, self.lowpass, self.decimation),), 1, 0),)
        elif self.lowpass is not None:
            stages += (_Stage(self.lowpass, self.lowpass, 1),)
        plan = _Plan(passband, (_Segment(stages, self.decimation, self.decimation_phase), *lowrate))
        transient = sum(stage.rate * _span(stage.filter) for stage in plan.stages())
        # Each segment keeps the samples phase::factor of the one before, so
        # output j sits at input index phase + j*factor over the whole plan.
        phase, factor = 0, 1
        for segment in plan.segments:
            phase, factor = phase + segment.phase * factor, factor * segment.factor
        # Derived from the fields, so kept out of them (and out of __init__,
        # repr and equality); frozen, hence set through object.__setattr__.
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_transient", transient)
        # The input samples that outputs sit at, as a slice of the input, and
        # the first output whose input index lies beyond the transient.
        object.__setattr__(self, "_outputs", slice(phase, None, factor))
        object.__setattr__(self, "_settled", max(0, -((phase - transient) // factor)))

    @property
    def output_period(self) -> float:
        return self.carrier.sample_period * self._outputs.step

    def baseband_stages(self) -> list[ComplexFilter]:
        """The filter stages that run before the decimator, mapped to the
        baseband, in processing order: the passband stages and the first
        rate segment.

        Mixing commutes with the passband pre-filter once the latter is
        transformed, so these filter the chain's input noise as one LTI
        cascade.  A low-pass that runs after the decimator is not included;
        the noise gain reads every stage of the plan, each at its rate.
        """
        return [stage.baseband for stage in (*self._plan.passband, *self._plan.segments[0].stages)]


def make_chain(
    carrier: CarrierConfig,
    ddc: ComplexFilter,
    lp_bandwidth: float | None = None,
    pre_mixer: ComplexFilter | None = None,
    decimation: int = 1,
    decimation_phase: int = 0,
    order: ChainOrder = ChainOrder.FILTER_THEN_DECIMATE,
) -> DdcChain:
    """Build a chain, constructing the low-pass stage at the rate implied by
    the filter/decimation order.

    ``lp_bandwidth`` is in rad/s.  With ``DECIMATE_THEN_FILTER`` the low-pass
    runs at the decimated rate, so its pole is ``exp(-bw * decimation * h)``.
    """
    _check_type(carrier, CarrierConfig, "the chain's carrier")
    if not _is_int(decimation) or decimation < 1:
        raise UsageError("decimation must be a positive integer")
    lowpass = None
    if lp_bandwidth is not None:
        period = carrier.sample_period
        if order is ChainOrder.DECIMATE_THEN_FILTER:
            period *= decimation
        lowpass = make_lp(lp_bandwidth, period)
    return DdcChain(
        carrier=carrier,
        ddc=ddc,
        lowpass=lowpass,
        pre_mixer=pre_mixer,
        decimation=decimation,
        decimation_phase=decimation_phase,
        order=order,
    )


@functools.lru_cache(maxsize=8)
def _chunk_mixer(periods: int, samples: int) -> np.ndarray:
    """The doubled mixer phasors of the carrier ratio ``periods/samples`` for
    a whole chunk read from any offset within the first block: one read-only
    table that every chain pass of that ratio slices.  It is built on first
    use, and the last eight ratios are kept.  Only ratios whose table holds
    at most :data:`_MIXER_KEPT` phasors get one; a pass over a longer carrier
    block computes each chunk's phasors alone."""
    # A copy, so the table does not hold the whole blocks it was cut from.
    table = CarrierConfig(periods, samples)._mixer(0, _CHUNK + samples - 1).copy()
    table.setflags(write=False)
    return table


def mix_down(y: RealSeq | ComplexSeq, carrier: CarrierConfig) -> ComplexSeq:
    """Multiply by ``2*exp(-1j*phase_step*k)`` with k the absolute sample index.

    The mixer phasor is periodic in the carrier block, so it is evaluated at
    ``k % samples``, once for each residue the block reaches, by the one
    helper every carrier-periodic phasor comes from; this keeps the phase
    exact for arbitrarily large indices and places the conjugate image of a
    constant envelope exactly on the double-frequency line.  An output
    beyond the float range raises :class:`~ddckit.core.DomainError`.
    """
    _check_type(y, (RealSeq, ComplexSeq), "mix_down input")
    _check_type(carrier, CarrierConfig, "the carrier")
    phasors = carrier._mixer(y.start, len(y))
    return _adopt(ComplexSeq, "the mixer's output", np.multiply, y.values, phasors, start=y.start)


@dataclass(frozen=True)
class DdcOutput:
    """Chain output and the chain that produced it.

    The output's timing belongs to the chain, so it is read from ``chain``
    when asked for, not computed on every block: the sample period is the
    input's times the plan's total decimation factor.  ``group_delay`` is
    the sum of per-stage group delays at zero baseband frequency, in
    seconds; it raises :class:`~ddckit.core.DomainError` when a stage has a
    response zero there, although the samples are well defined.
    ``decimation_delay`` is the extra effective delay of holding the output
    over a controller period (half the output period) and is reported
    separately because it is a property of the consumer's sampling, not of
    the filters.
    """

    seq: ComplexSeq
    chain: DdcChain

    @property
    def sample_period(self) -> float:
        return self.chain.output_period

    @property
    def group_delay(self) -> float:
        return group_delay_seconds(self.chain)

    @property
    def decimation_delay(self) -> float:
        return 0.5 * self.chain.output_period


def _span(filt: ComplexFilter) -> int:
    """The samples of a filter's output that its zero initial state spoils:
    its memory, plus the horizon where a pole's settling falls below
    :data:`_SETTLE_EPS`."""
    memory = len(filt.taps) - 1
    if filt.pole is None or filt.pole == 0:
        return memory
    return memory + int(math.ceil(math.log(_SETTLE_EPS) / math.log(abs(filt.pole))))


def transient_length(chain: DdcChain) -> int:
    """Number of leading output-affecting samples ruined by zero initial
    conditions, in input-rate samples.

    FIR stages contribute their memory (taps minus one); stages with a pole
    contribute the horizon where the geometric settling falls below 1e-12;
    each times the stage's rate, so a stage after the decimator counts in
    input-rate samples.
    """
    _check_type(chain, DdcChain, "the chain")
    return chain._transient


def group_delay_seconds(chain: DdcChain) -> float:
    """Sum of stage group delays at zero baseband frequency, in seconds."""
    _check_type(chain, DdcChain, "the chain")
    h = chain.carrier.sample_period
    total = 0.0
    for stage in chain._plan.stages():
        total += analysis.phase_metrics(stage.baseband, 0.0, h * stage.rate).group_delay
    return total


def run(chain: DdcChain, y: RealSeq) -> DdcOutput:
    """Push a block of ADC samples through the chain from zero filter state.

    The input must at least cover the chain transient.  Passband stages run
    on ``y``, then the mixer, then each rate segment's stages and its
    decimator.  ``y`` was validated when it was
    built, so the stages pass plain arrays along, through the same kernels
    as :func:`~ddckit.core.filter_stream` and :func:`mix_down`, and only the
    output is wrapped in a sequence, which takes the array :func:`_run`
    built as its own, without a copy.  An output that leaves the float range
    raises :class:`~ddckit.core.DomainError`.  Output sample j sits at
    absolute input index ``y.start + phase + j*factor``, with ``factor`` the
    product of the plan's decimation factors and ``phase`` their phases
    carried through them, which the chain derives once; like
    :func:`~ddckit.core.decimate`, the output is re-indexed, so
    ``out.seq.start`` is 0 whatever ``y.start`` is.  Output blocks that
    carry absolute indices belong to streamable chains (ROADMAP item 4).
    The output's timing is not computed here: :class:`DdcOutput` reads it
    from the chain on demand, so a block costs only its stages' arithmetic.
    """
    _check_type(y, RealSeq, "run's ADC input")
    transient = transient_length(chain)
    if len(y) < max(1, transient):
        raise UsageError(
            f"input of {len(y)} samples is shorter than the chain transient "
            f"({transient} samples)"
        )
    seq = _adopt(ComplexSeq, "the chain's output", _run, chain, y.values, y.start, start=0)
    return DdcOutput(seq, chain)


class _Stepper:
    """One pass of a chain over its input, fed in consecutive chunks of at
    most :data:`_CHUNK` samples.

    A pass holds only what it carries from chunk to chunk: one
    :class:`~ddckit.core.FilterState` per stage (each state names its
    filter), the passband ones and, for each rate segment of the chain's
    plan, those of its stages but the last, the last one's and its
    decimator's factor, all built here once; the absolute index of the next
    input sample; and each segment's decimator phase relative to the next
    chunk.  Each chunk is mixed by one contiguous slice of the table of
    doubled mixer phasors that every pass of the carrier ratio shares
    (:func:`_chunk_mixer`), fetched when the pass is built; over a carrier
    block too long for a kept table, by the chunk's own doubled phasors,
    evaluated at the residues it reaches alone.  The last stage of each
    segment computes only the samples its decimator keeps (unless it has a
    pole).  The filter kernels sum in the same order whatever the split, so
    the outputs of all chunks, in turn, are bitwise those of running each
    whole stage in turn.  This is the seam for a streamable chain's state
    (ROADMAP item 4).
    """

    def __init__(self, chain: DdcChain, start: int) -> None:
        """A pass whose first input sample sits at absolute index ``start``."""
        plan = chain._plan
        self._passband = [FilterState(stage.filter) for stage in plan.passband]
        # Per segment: [the states of its stages but the last, the last one's,
        # the decimation factor, the phase], which ``step`` only unpacks; the
        # phase is the one entry it rewrites.
        self._segments = [
            [[FilterState(s.filter) for s in stages[:-1]], FilterState(stages[-1].filter), f, p]
            for stages, f, p in plan.segments
        ]
        self._carrier = carrier = chain.carrier
        kept = _CHUNK + carrier.samples - 1 <= _MIXER_KEPT
        self._table = _chunk_mixer(carrier.periods, carrier.samples) if kept else None
        self.index = start

    def step(self, values: np.ndarray) -> np.ndarray:
        """The chain's output for the next chunk of real input samples."""
        # Each stage rebinds ``v``, so no stage's input outlives its use.
        v = values
        for state in self._passband:
            v = _filter_block(state, v)
        if self._table is None:
            v = v * self._carrier._mixer(self.index, len(v))
        else:
            offset = self.index % self._carrier.samples
            v = v * self._table[offset : offset + len(v)]
        for segment in self._segments:
            states, last, factor, phase = segment
            for state in states:
                v = _filter_block(state, v)
            segment[3] = (phase - len(v)) % factor
            v = _filter_block(last, v, (phase, factor))
        self.index += len(values)
        return v


def _run(chain: DdcChain, values: np.ndarray, start: int) -> np.ndarray:
    """The array kernel of :func:`run`: the chain's output for the real ADC
    samples ``values``, whose first sample sits at absolute index ``start``.

    The input goes through one :class:`_Stepper` pass in cache-sized chunks,
    whose outputs are joined.
    """
    step = _Stepper(chain, start).step
    parts = [
        step(values[begin : begin + _CHUNK]) for begin in range(0, len(values), _CHUNK)
    ]
    # A single chunk is returned as it is; run's output takes it as its own.
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
