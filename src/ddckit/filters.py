"""Constructors for the downconversion filters and the passband-to-baseband map.

All baseband constructors here are normalized for unity gain at zero baseband
frequency, so chains compose predictably (the factor 2 that restores envelope
scale lives in the mixer, see :mod:`ddckit.pipeline`).  The passband DC-reject
filter is the exception: it is provided in its raw high-pass form and picks up
its normalization only through the baseband transform.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings

import numpy as np

from .core import (
    CarrierConfig,
    ComplexFilter,
    Domain,
    SingularityError,
    UsageError,
    _check_type,
    _is_int,
    _is_number,
    _is_positive,
)

# Below this, two-sample reconstruction is numerically singular.
_SIN_STEP_FLOOR = 1e-9

# Noise-gain threshold: |sin(step)| < 1/sqrt(2) means the reconstruction
# filter has impulse energy > 1, i.e. it amplifies white measurement noise.
_SIN_STEP_WARN = 1.0 / math.sqrt(2.0)


class NoiseAmplificationWarning(UserWarning):
    """Raised when a reconstruction filter amplifies measurement noise."""


def amplifies_noise(carrier: CarrierConfig) -> bool:
    """True when two-sample reconstruction at this carrier has noise gain > 1
    (impulse energy 1/(2 sin^2) above unity)."""
    _check_type(carrier, CarrierConfig, "the carrier")
    return abs(math.sin(carrier.phase_step)) < _SIN_STEP_WARN


def _check_reconstruction_ratio(carrier: CarrierConfig, what: str) -> float:
    _check_type(carrier, CarrierConfig, "the carrier")
    s = math.sin(carrier.phase_step)
    if abs(s) < _SIN_STEP_FLOOR:
        raise SingularityError(
            f"{what} is singular for carrier ratio "
            f"{carrier.periods}/{carrier.samples} (sin of phase step ~ 0)"
        )
    if amplifies_noise(carrier):
        warnings.warn(
            f"{what} at ratio {carrier.periods}/{carrier.samples} amplifies "
            f"measurement noise (|sin step| = {abs(s):.3f} < 1/sqrt(2)); "
            "ratios near 1/4 avoid this",
            NoiseAmplificationWarning,
            stacklevel=3,
        )
    return s


def make_ma(length: int) -> ComplexFilter:
    """Block moving-average filter: ``length`` equal taps summing to one.

    For a coprime carrier with ``samples == length`` its zeros fall on every
    nonzero multiple of the block frequency, which nulls the double-frequency
    image, the DC-offset spur, and all aliased harmonics at once.
    """
    if not _is_int(length) or length < 1:
        raise UsageError("moving-average length must be a positive integer")
    return ComplexFilter._owning(np.full(length, 1.0 / length, dtype=np.complex128))


def make_2sr(carrier: CarrierConfig, keep_phase_factor: bool = True) -> ComplexFilter:
    """Two-sample reconstruction filter: exact envelope recovery from two
    consecutive samples, as a two-tap baseband filter.

    Taps are ``b0 = exp(1j*step)/(2j*sin(step))`` and
    ``b1 = -exp(-2j*step)*b0``: unity gain with zero angle at DC, and a notch
    at the double-frequency image ``-2*step``.  With ``keep_phase_factor``
    False the constant phase rotation is dropped (relative phase only).
    """
    s = _check_reconstruction_ratio(carrier, "two-sample reconstruction")
    step = carrier.phase_step
    if keep_phase_factor:
        b0 = cmath.exp(1j * step) / (2j * s)
    else:
        b0 = 1.0 / (2.0 * s)
    taps = np.array([b0, -cmath.exp(-2j * step) * b0], dtype=np.complex128)
    return ComplexFilter._owning(taps)


def make_dcr(carrier: CarrierConfig) -> ComplexFilter:
    """DC-offset spur rejection filter, baseband form.

    Three taps ``(c, 0, -exp(-2j*step)*c)`` with ``c = 1/(1 - exp(-2j*step))``:
    zeros at both the spur frequency ``-step`` and its mirror, unity DC gain.
    Only sensible near ratio 1/4, like two-sample reconstruction.
    """
    _check_reconstruction_ratio(carrier, "DC-spur rejection")
    step = carrier.phase_step
    c = 1.0 / (1.0 - cmath.exp(-2j * step))
    taps = np.array([c, 0.0, -cmath.exp(-2j * step) * c], dtype=np.complex128)
    return ComplexFilter._owning(taps)


def make_iq(carrier: CarrierConfig) -> ComplexFilter:
    """IQ-sampling filter (carrier at a quarter of the sample rate).

    Two equal taps ``(1/2, 1/2)``; the zero at the half-sample-rate image
    removes the double-frequency component.  Normalized for unity DC gain,
    which makes it tap-for-tap the quarter-rate case of :func:`make_2sr`.
    """
    _check_type(carrier, CarrierConfig, "the carrier")
    if carrier.samples != 4 * carrier.periods:
        raise UsageError(
            "IQ sampling requires carrier ratio 1/4, got "
            f"{carrier.periods}/{carrier.samples}"
        )
    return ComplexFilter._owning(np.array([0.5, 0.5], dtype=np.complex128))


def make_lp(bandwidth: float, sample_period: float) -> ComplexFilter:
    """First-order low-pass ``(1-a)/(1 - a z^-1)`` with ``a = exp(-bandwidth*sample_period)``.

    ``bandwidth`` is in rad/s.  Unity DC gain; impulse energy (1-a)/(1+a).
    A bandwidth*period too small for ``a`` to fall below 1.0 (about
    5.6e-17) is refused.
    """
    if not _is_positive(bandwidth):
        raise UsageError("low-pass bandwidth must be a positive finite real number")
    if not _is_positive(sample_period):
        raise UsageError("sample period must be a positive finite real number")
    x = bandwidth * sample_period
    a = math.exp(-x)
    if a == 1.0:
        raise UsageError(
            f"low-pass bandwidth*period {x:.3g} is too small: its pole exp(-{x:.3g}) rounds to 1"
        )
    return ComplexFilter._owning(np.array([1.0 - a], dtype=np.complex128), pole=a)


def make_dc_reject_passband(pole: float) -> ComplexFilter:
    """Passband DC-reject high-pass ``(1 - z^-1)/(1 - pole*z^-1)``.

    Placed before the mixer; the recursion is
    ``y[k] = pole*y[k-1] + x[k] - x[k-1]`` with an exact zero at DC.  ``pole``
    is real, slightly below one (15/16 is a typical hardware value).  In the
    baseband this becomes a first-order IIR notch at the spur frequency.
    """
    if not (_is_number(pole, numbers.Real) and 0.0 < pole < 1.0):
        raise UsageError("DC-reject pole must be a real number in (0, 1)")
    return ComplexFilter._owning(
        np.array([1.0, -1.0], dtype=np.complex128), float(pole), Domain.PASSBAND
    )


def to_baseband(filt: ComplexFilter, carrier: CarrierConfig) -> ComplexFilter:
    """Transform a passband filter to its baseband equivalent.

    Substituting ``z -> exp(1j*step) z`` rotates tap m by ``exp(-1j*step*m)``
    and the pole by ``exp(-1j*step)``; the baseband response at theta equals
    the passband response at theta + step.
    """
    _check_type(filt, ComplexFilter, "the filter")
    _check_type(carrier, CarrierConfig, "the carrier")
    if filt.domain is not Domain.PASSBAND:
        raise UsageError("filter is already a baseband filter")
    step = carrier.phase_step
    # An overflow shows as a non-finite tap, which the filter refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        taps = filt.taps * np.exp(-1j * step * np.arange(len(filt.taps)))
    pole = None if filt.pole is None else filt.pole * cmath.exp(-1j * step)
    return ComplexFilter._owning(taps, pole)


def convolve(first: ComplexFilter, second: ComplexFilter) -> ComplexFilter:
    """Materialize an FIR*FIR cascade as a single FIR filter."""
    _check_type(first, ComplexFilter, "the first filter")
    _check_type(second, ComplexFilter, "the second filter")
    if first.pole is not None or second.pole is not None:
        raise UsageError("can only materialize FIR*FIR cascades")
    if first.domain is not second.domain:
        raise UsageError("cannot cascade filters from different domains")
    return ComplexFilter._owning(np.convolve(first.taps, second.taps), domain=first.domain)
