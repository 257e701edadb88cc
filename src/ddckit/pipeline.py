"""The full downconversion chain: optional passband pre-filter, digital mixer,
envelope filter, optional extra low-pass, and decimation in either order.
"""

from __future__ import annotations

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
    decimate,
    filter_stream,
)
from .filters import make_lp, to_baseband

# Residual below this fraction of a unit impulse counts as settled.
_SETTLE_EPS = 1e-12


class ChainOrder(Enum):
    """Where decimation sits relative to the extra low-pass filter."""

    FILTER_THEN_DECIMATE = "filter-then-decimate"
    DECIMATE_THEN_FILTER = "decimate-then-filter"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _Stage(NamedTuple):
    """One filter of a chain: as it runs, in its baseband form, and whether it
    runs after the decimator (at the decimated rate) or before it."""

    filter: ComplexFilter
    baseband: ComplexFilter
    decimated: bool


@dataclass(frozen=True)
class DdcChain:
    """An immutable downconversion pipeline description.

    Stages run in order: ``pre_mixer`` (passband, on the raw ADC stream),
    mixer, ``ddc`` (the envelope filter), then either low-pass and decimate or
    decimate and low-pass.  When filtering after decimation the ``lowpass``
    stage runs at the decimated rate and must be built for the longer sample
    period; :func:`make_chain` does that bookkeeping.

    Construction validates the fields and derives the chain's filters once, in
    processing order, each with its baseband form and its place relative to
    the decimator.  :func:`run`, :func:`transient_length`,
    :func:`group_delay_seconds`, :meth:`baseband_stages` and
    ``analytic_noise_gain`` all read that one description.
    """

    carrier: CarrierConfig
    ddc: ComplexFilter
    lowpass: ComplexFilter | None = None
    pre_mixer: ComplexFilter | None = None
    decimation: int = 1
    decimation_phase: int = 0
    order: ChainOrder = ChainOrder.FILTER_THEN_DECIMATE

    def __post_init__(self) -> None:
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
        stages = []
        if self.pre_mixer is not None:
            baseband = to_baseband(self.pre_mixer, self.carrier)
            stages.append(_Stage(self.pre_mixer, baseband, False))
        stages.append(_Stage(self.ddc, self.ddc, False))
        if self.lowpass is not None:
            after = self.order is ChainOrder.DECIMATE_THEN_FILTER
            stages.append(_Stage(self.lowpass, self.lowpass, after))
        # Derived from the fields, so kept out of them (and out of __init__,
        # repr and equality); frozen, hence set through object.__setattr__.
        object.__setattr__(self, "_stages", tuple(stages))

    @property
    def output_period(self) -> float:
        return self.carrier.sample_period * self.decimation

    def baseband_stages(self) -> list[ComplexFilter]:
        """The filter stages that run before the decimator, mapped to the
        baseband, in processing order.

        This is the chain's effective LTI filter for noise purposes: mixing
        commutes with the passband pre-filter once the latter is transformed.
        A low-pass that runs after the decimator is not included.
        """
        return [stage.baseband for stage in self._stages if not stage.decimated]


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


def mix_down(y: RealSeq | ComplexSeq, carrier: CarrierConfig) -> ComplexSeq:
    """Multiply by ``2*exp(-1j*phase_step*k)`` with k the absolute sample index.

    The mixer phasor is periodic in the carrier block, so it is read from a
    block-length table; this keeps the phase exact for arbitrarily large
    indices and places the conjugate image of a constant envelope exactly on
    the double-frequency line.
    """
    table = carrier.mixer_phases()
    k = (y.start + np.arange(len(y.values))) % carrier.samples
    return ComplexSeq(2.0 * np.asarray(y.values) * table[k], start=y.start)


@dataclass(frozen=True)
class DdcOutput:
    """Chain output plus its timing metadata.

    ``group_delay`` is the sum of per-stage group delays at zero baseband
    frequency, in seconds.  ``decimation_delay`` is the extra effective delay
    of holding the output over a controller period (half the output period)
    and is reported separately because it is a property of the consumer's
    sampling, not of the filters.
    """

    seq: ComplexSeq
    sample_period: float
    group_delay: float
    decimation_delay: float


def _settling_horizon(pole: complex | None) -> int:
    if pole is None or pole == 0:
        return 0
    return int(math.ceil(math.log(_SETTLE_EPS) / math.log(abs(pole))))


def transient_length(chain: DdcChain) -> int:
    """Number of leading output-affecting samples ruined by zero initial
    conditions, in input-rate samples.

    FIR stages contribute their memory (taps minus one); stages with a pole
    contribute the horizon where the geometric settling falls below 1e-12,
    scaled back to the input rate when the stage runs after decimation.
    """
    total = 0
    for stage in chain._stages:
        span = len(stage.filter.taps) - 1 + _settling_horizon(stage.filter.pole)
        total += span * chain.decimation if stage.decimated else span
    return total


def group_delay_seconds(chain: DdcChain) -> float:
    """Sum of stage group delays at zero baseband frequency, in seconds."""
    h = chain.carrier.sample_period
    total = 0.0
    for stage in chain._stages:
        period = h * chain.decimation if stage.decimated else h
        total += analysis.phase_metrics(stage.baseband, 0.0, period).group_delay
    return total


def _filter(stage: _Stage, x: RealSeq | ComplexSeq) -> ComplexSeq:
    return filter_stream(stage.filter, FilterState(stage.filter), x)


def run(chain: DdcChain, y: RealSeq) -> DdcOutput:
    """Push a block of ADC samples through the chain from zero filter state.

    The input must at least cover the chain transient.  Passband stages run
    on ``y``, then the mixer, the baseband stages before the decimator, the
    decimator and the stages after it.  Output sample j sits at absolute
    input index ``y.start + decimation_phase + j*decimation``; like
    :func:`~ddckit.core.decimate`, the output is re-indexed, so
    ``out.seq.start`` is 0 whatever ``y.start`` is.  Output blocks that
    carry absolute indices belong to streamable chains (ROADMAP item 4).
    """
    if len(y) < max(1, transient_length(chain)):
        raise UsageError(
            f"input of {len(y)} samples is shorter than the chain transient "
            f"({transient_length(chain)} samples)"
        )
    x: RealSeq | ComplexSeq = y
    for stage in chain._stages:
        if stage.filter.domain is Domain.PASSBAND:
            x = _filter(stage, x)
    z = mix_down(x, chain.carrier)
    for stage in chain._stages:
        if stage.filter.domain is Domain.BASEBAND and not stage.decimated:
            z = _filter(stage, z)
    z = decimate(z, chain.decimation, chain.decimation_phase)
    for stage in chain._stages:
        if stage.decimated:
            z = _filter(stage, z)
    return DdcOutput(
        seq=z,
        sample_period=chain.output_period,
        group_delay=group_delay_seconds(chain),
        decimation_delay=0.5 * chain.output_period,
    )
