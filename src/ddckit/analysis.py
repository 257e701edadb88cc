"""Frequency responses, impulse-energy (H2) norms, bandwidth tuning, and
latency metrics for complex-coefficient filters and cascades.

The squared H2 norm used throughout is the impulse-response energy
``sum_k |g_k|^2``; for a white unit-variance input it equals the output
variance, which is what ties these numbers to the simulator's Monte-Carlo
noise gains.  The norms are exact for any number of poles and any
decimation factor: one routine evaluates the numerator's support directly
and sums the rest in closed form through the observability Gramian of the
poles.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .core import (
    CarrierConfig,
    ComplexFilter,
    DomainError,
    UsageError,
    _check_type,
    _is_int,
    _is_number,
    _is_positive,
    _validated_samples,
)

FilterOrCascade = Union[ComplexFilter, Sequence[ComplexFilter]]


@dataclass(frozen=True)
class FreqGrid:
    """Strictly increasing normalized angular frequencies in (-pi, pi]."""

    thetas: np.ndarray
    sample_rate: float | None = None

    def __post_init__(self) -> None:
        thetas = _validated_samples(self.thetas, np.float64, "frequency grid")
        if len(thetas) == 0:
            raise UsageError("frequency grid must not be empty")
        if self.sample_rate is not None and not _is_positive(self.sample_rate):
            raise UsageError("grid sample_rate must be None or a positive finite real")
        if np.any(np.diff(thetas) <= 0):
            raise UsageError("frequency grid must be strictly increasing")
        if thetas[0] <= -math.pi or thetas[-1] > math.pi:
            raise UsageError("frequency grid must lie within (-pi, pi]")
        object.__setattr__(self, "thetas", thetas)

    @classmethod
    def regular(cls, points: int, sample_rate: float | None = None) -> "FreqGrid":
        """Uniform grid of ``points`` frequencies covering (-pi, pi]."""
        if not _is_int(points) or points < 1:
            raise UsageError("grid needs a positive integer number of points")
        step = 2.0 * math.pi / points
        thetas = -math.pi + step * np.arange(1, points + 1)
        return cls(thetas, sample_rate)

    @property
    def freq_hz(self) -> np.ndarray | None:
        """Grid as baseband offset frequencies in Hz (None without a rate)."""
        if self.sample_rate is None:
            return None
        return self.thetas * self.sample_rate / (2.0 * math.pi)

    def __len__(self) -> int:
        return len(self.thetas)


@dataclass(frozen=True)
class NormReport:
    """Squared-H2-norm result together with how it was obtained.

    ``method`` is ``closed-form`` for :func:`h2_norm_sq` and
    :func:`multirate_norm_sq`, which are exact for any number of poles (the
    tests hold them to 1e-13 relative against 50-digit mpmath), or
    ``monte-carlo`` for a simulated estimate, which carries its standard
    error in ``stderr``.
    """

    value: float
    method: str
    stderr: float | None = None

    def __post_init__(self) -> None:
        if not (_is_number(self.value, numbers.Real) and self.value >= 0.0):
            raise DomainError(
                f"{self.method} squared norm must be finite and non-negative, "
                f"not {self.value!r}"
            )
        if self.stderr is not None and not (
            _is_number(self.stderr, numbers.Real) and self.stderr >= 0.0
        ):
            raise DomainError(
                f"{self.method} standard error must be finite and non-negative, "
                f"not {self.stderr!r}"
            )

    @property
    def value_db(self) -> float:
        return 10.0 * math.log10(self.value) if self.value > 0 else -math.inf


def _as_stages(obj: FilterOrCascade) -> list[ComplexFilter]:
    if isinstance(obj, ComplexFilter):
        return [obj]
    stages = list(obj)
    if not stages or not all(isinstance(s, ComplexFilter) for s in stages):
        raise UsageError("expected a ComplexFilter or a sequence of them")
    return stages


def freq_response(obj: FilterOrCascade, grid) -> np.ndarray:
    """Evaluate the (cascade) frequency response on a grid: a
    :class:`FreqGrid` or a 1-D array of finite frequencies in rad/sample.

    Complex-coefficient filters are not conjugate-symmetric across zero
    frequency, so positive and negative frequencies carry distinct
    information; grids here always span both sides.
    """
    if isinstance(grid, FreqGrid):
        thetas = grid.thetas
    else:
        thetas = _validated_samples(grid, np.float64, "frequencies")
    return _response(_as_stages(obj), thetas)


def _response(stages: list[ComplexFilter], thetas: np.ndarray) -> np.ndarray:
    """The array kernel of :func:`freq_response`, for frequencies already
    validated: each stage's response kernel, not its validating method."""
    resp = np.ones_like(thetas, dtype=np.complex128)
    for stage in stages:
        resp = resp * stage._response(thetas)
    return resp


def _materialize(stages: list[ComplexFilter]) -> tuple[np.ndarray, list[complex]]:
    """Collapse a cascade to one FIR numerator and the list of poles."""
    taps = np.ones(1, dtype=np.complex128)
    poles: list[complex] = []
    for stage in stages:
        taps = np.convolve(taps, stage.taps)
        if stage.pole is not None:
            poles.append(stage.pole)
    return taps, poles


def _energy(
    taps: np.ndarray, poles: Sequence[complex], gaps: Sequence[complex], factor: int
) -> float:
    """Exact impulse energy of ``B(z) / prod_i (1 - p_i z^-factor)``.

    ``gaps[i]`` is ``1 - poles[i]``, computed by the caller without
    cancellation, so that poles near one lose no digits.  The denominator is
    a polynomial in ``z^-factor``, so the residue classes ``taps[r::factor]``
    are independent low-rate problems with the same poles.  They run side by
    side through one cascade of first-order sections, each a convolution
    with ``p^k`` placed at multiples of ``factor``.

    The head (the numerator's support) runs through the sections directly.
    Beyond it the input is zero and the section states evolve as
    ``x[k] = A x[k-1]`` with ``A[i][j] = p_j`` for ``j <= i``, so the tail
    energy is ``(A s)^H W (A s)`` for the states ``s`` at the end of the head
    and the observability Gramian ``W = A^H W A + e_n e_n^T``.  The Gramian
    is solved by back-substitution over the triangle; each entry divides by
    ``1 - conj(p_i) p_j``, formed from the gaps.  No step divides by a pole
    difference, so repeated poles need no separate branch.
    """
    rows = -(-len(taps) // factor)
    x = np.zeros(rows * factor, dtype=np.complex128)
    x[: len(taps)] = taps
    kernel = np.zeros_like(x)
    # v[i] = (A s)[i] = sum_{j <= i} p_j s_j, one entry per residue class.
    v: list[np.ndarray] = []
    for p in poles:
        kernel[::factor] = p ** np.arange(rows)
        x = np.convolve(x, kernel)[: len(kernel)]
        v.append(p * x[-factor:] + (v[-1] if v else 0.0))
    energy = np.vdot(x, x).real

    n = len(poles)
    gram = [[0j] * n for _ in range(n)]
    for i in reversed(range(n)):
        di = gaps[i].conjugate()
        for j in reversed(range(n)):
            # gram[i][j] is still zero; the rest of its lower-right block is
            # already solved.
            rest = sum(sum(row[j:]) for row in gram[i:])
            denom = di + gaps[j] - di * gaps[j]
            cross = poles[i].conjugate() * poles[j]
            gram[i][j] = (cross * rest + (i == j == n - 1)) / denom
            energy += (gram[i][j] * np.vdot(v[i], v[j])).real
    return float(energy)


def h2_norm_sq(obj: FilterOrCascade) -> NormReport:
    """Squared H2 norm (impulse energy) of a filter or cascade.

    Exact for any number of poles, repeated ones included: the result is
    always ``closed-form`` and matches a 50-digit reference to 1e-13
    relative in the tests.
    """
    taps, poles = _materialize(_as_stages(obj))
    value = _energy(taps, poles, [1.0 - p for p in poles], 1)
    return NormReport(value, "closed-form")


def multirate_norm_sq(
    inner: FilterOrCascade, outer_lowrate: ComplexFilter, factor: int
) -> NormReport:
    """Squared H2 norm of low-rate filtering applied after decimation.

    Decimating the output of ``inner`` by ``factor`` and then filtering by
    ``outer_lowrate`` has the same output variance under white input as the
    single-rate cascade of ``inner`` with ``outer_lowrate(z^factor)`` (the
    noble identity), which is what this computes.  With ``N = factor``, each
    inner pole moves to ``z^-N`` through ``1/(1 - p z^-1) = sum_{m<N} p^m
    z^-m / (1 - p^N z^-N)``, which leaves a rational function whose
    denominator is a polynomial in ``z^-N``.  The result is exact and
    ``closed-form`` for every factor and pole count, and matches a 50-digit
    reference to 1e-13 relative in the tests.
    """
    if not _is_int(factor) or factor < 1:
        raise UsageError("decimation factor must be a positive integer")
    _check_type(outer_lowrate, ComplexFilter, "the low-rate filter")
    taps, inner_poles = _materialize(_as_stages(inner))
    poles: list[complex] = []
    gaps: list[complex] = []
    for p in inner_poles:
        powers = p ** np.arange(factor)
        taps = np.convolve(taps, powers)
        poles.append(powers[-1] * p)
        # 1 - p^N = (1 - p) * sum_{m<N} p^m, without cancellation near one.
        gaps.append((1.0 - p) * complex(np.sum(powers)))
    up = np.zeros((len(outer_lowrate.taps) - 1) * factor + 1, dtype=np.complex128)
    up[::factor] = outer_lowrate.taps
    taps = np.convolve(taps, up)
    if outer_lowrate.pole is not None:
        poles.append(outer_lowrate.pole)
        gaps.append(1.0 - outer_lowrate.pole)
    return NormReport(_energy(taps, poles, gaps, factor), "closed-form")


def tune_lp_bandwidth(
    ddc_filter: FilterOrCascade, target_db: float, sample_period: float
) -> float:
    """Find the first-order low-pass bandwidth (rad/s) that brings the
    cascade's noise gain to ``target_db``.

    The impulse energy of ``ddc_filter * lowpass`` is strictly increasing in
    the bandwidth, so a bisection on bandwidth*period over [1e-9, 50] brackets
    any achievable target; the result matches the target within 1e-6 relative.
    """
    from .filters import make_lp

    if not _is_number(target_db, numbers.Real):
        raise UsageError("target must be a finite real number of dB")
    if not _is_positive(sample_period):
        raise UsageError("sample period must be a positive finite real number")
    stages = _as_stages(ddc_filter)
    try:
        target = 10.0 ** (target_db / 10.0)
    except OverflowError:  # beyond the float range, so beyond any gain
        target = math.inf

    def gain(x: float) -> float:
        return h2_norm_sq(stages + [make_lp(x / sample_period, sample_period)]).value

    x_lo, x_hi = 1e-9, 50.0
    lo, hi = gain(x_lo), gain(x_hi)
    if not (lo < target < hi):
        lo_db = 10.0 * math.log10(lo)
        hi_db = 10.0 * math.log10(hi)
        raise DomainError(
            f"target {target_db:.4g} dB is outside the achievable range "
            f"({lo_db:.4g} dB, {hi_db:.4g} dB) for this filter"
        )
    for _ in range(200):
        x_mid = math.exp(0.5 * (math.log(x_lo) + math.log(x_hi)))
        g = gain(x_mid)
        if abs(g - target) <= 1e-6 * target:
            return x_mid / sample_period
        if g < target:
            x_lo = x_mid
        else:
            x_hi = x_mid
    raise DomainError("bandwidth bisection failed to converge")


class PhaseMetrics(NamedTuple):
    phase: float
    """Unwrapped response phase at the requested frequency, radians."""
    group_delay: float
    """Group delay at the requested frequency, seconds."""


def phase_metrics(
    obj: FilterOrCascade, omega: float, sample_period: float
) -> PhaseMetrics:
    """Phase (continuously unwrapped from zero frequency) and group delay.

    The group delay is exact: with ``w = exp(-1j*theta)``, each stage
    contributes ``Re(sum_m m b_m w^m / sum_m b_m w^m)`` for its taps and
    ``Re(p w / (1 - p w))`` for its pole.  The evaluation frequency must not
    sit on a response zero.
    """
    if not _is_number(omega, numbers.Real):
        raise UsageError("frequency must be a finite real number")
    if not _is_positive(sample_period):
        raise UsageError("sample period must be a positive finite real number")
    stages = _as_stages(obj)
    theta = omega * sample_period
    steps = max(8, int(math.ceil(abs(theta) / 0.01)))
    # The path from zero frequency ends exactly at theta.
    path = np.linspace(0.0, theta, steps + 1)
    resp = _response(stages, path)
    if abs(resp[-1]) <= 1e-9:
        raise DomainError("phase is undefined at a response zero")
    phase = float(np.unwrap(np.angle(resp))[-1])

    w = complex(math.cos(theta), -math.sin(theta))
    # 1 - w, without cancellation near zero frequency.
    one_minus_w = complex(2.0 * math.sin(0.5 * theta) ** 2, math.sin(theta))
    delay_samples = 0.0
    for stage in stages:
        m = np.arange(len(stage.taps))
        terms = stage.taps * w**m
        delay_samples += (np.dot(m, terms) / np.sum(terms)).real
        if stage.pole is not None:
            p = stage.pole
            delay_samples += (p * w / ((1.0 - p) + p * one_minus_w)).real
    return PhaseMetrics(phase=phase, group_delay=delay_samples * sample_period)


def reduce_angle(theta: float) -> float:
    """Reduce an angle to the principal interval (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


class AliasImages(NamedTuple):
    pos: float
    """Baseband frequency of the +harmonic line after mixing, in (-pi, pi]."""
    neg: float
    """Baseband frequency of the -harmonic line after mixing, in (-pi, pi]."""


def alias_map(order: int, carrier: CarrierConfig) -> AliasImages:
    """Baseband landing frequencies of a real tone at ``order`` times the
    carrier after sampling and mixing.

    A real harmonic contributes two lines at +/- order times the carrier;
    mixing shifts both down by one carrier step, so they land at
    ``(order - 1)*step`` and ``(-order - 1)*step`` reduced modulo the sample
    rate.  For the quarter-rate (IQ) carrier every odd order has one image on
    zero frequency, which is exactly why IQ sampling biases precision
    applications; coprime ratios spread the images onto nonzero grid points
    that block-length averaging nulls.
    """
    if not _is_int(order) or order < 1:
        raise UsageError("harmonic order must be a positive integer")
    step = carrier.phase_step
    return AliasImages(
        pos=reduce_angle((order - 1) * step),
        neg=reduce_angle((-order - 1) * step),
    )
