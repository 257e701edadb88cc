"""Core types: carrier configuration, sample sequences, and streaming complex filters.

Everything downstream (filter constructors, chain composition, analysis) is
built on the small set of types defined here.  All arithmetic is double
precision.  Filters have complex coefficients; the FIR part is a direct sum
over the taps in ascending order, and only the pole runs in scipy, in the
compiled direct-form II filter to which :func:`scipy.signal.lfilter` hands
the call, so with ``lfilter``'s bits.  That one extension module is loaded on
its own when a filter with a pole first runs, in about a millisecond; the
package never imports ``scipy.signal``, which takes more than a second.  A
filter whose taps and pole are real runs in real arithmetic as far as its
input allows, with the complex kernel's bits.  Explicit state objects make
block processing exactly equivalent to one-shot processing.

What the package accepts from outside is decided here, once, by a few
private validators that every entry point calls: integers and finite numbers
that are not ``bool``, finite positive reals, instances of the package's
types, and sample arrays (1-D, numeric and finite, copied unless the
validator made them itself, and read-only).  One rule then covers every
array: outside input is validated once, where it enters (when a
:class:`RealSeq`, :class:`ComplexSeq` or :class:`ComplexFilter` is built from
outside values); the package's own results are adopted, never validated
again; and any overflow is a :class:`DomainError`.  Adopting is one private
helper, :func:`_adopt`: it runs the arithmetic that makes a new array, where
there is any, with numpy's overflow warnings off, refuses a non-finite value
in the result (an overflow) as a :class:`DomainError`, marks the array
read-only and builds the frozen object around it without a copy.  Every sequence, filter and regular
frequency grid the package computes comes from it: the outputs of
:func:`filter_stream`, :func:`apply_filter`, :func:`decimate`, the mixer and
``run``, synthesized streams, impulse responses, the filters of
:mod:`ddckit.filters` (through ``ComplexFilter._owning``, which also checks
the pole's stability) and ``FreqGrid.regular``.  Objects that hold arrays
(sequences, filters, frequency grids, sampled envelopes) compare and hash by
identity, since an element-wise comparison has no single truth value.  The
filter kernel can compute an FIR at the kept samples of a decimator alone
(polyphase decimation), in the same tap order, so the kept outputs are
bitwise those of the full computation.  A block whose decimator keeps few
outputs (at most 4096 tap products) forms all its tap products as one 2-D
product over a strided window of its delay line and samples, and sums the
product's rows in ascending tap order by one reduction; larger blocks and
full-rate blocks sum tap by tap.  Both give the same bits.

Every phasor that repeats with the carrier block (the mixer's, a synthesized
carrier's and harmonics', a spur demodulator's) comes from one private
helper, :func:`_tone`, exact at any absolute sample index: it evaluates
``exp`` only at the residues modulo the block that a call reaches, at most
one block, and tiles them.  The chain passes of :mod:`ddckit.pipeline` keep
tables of at most 65536 of the mixer's phasors, one per carrier ratio, and
compute each chunk's phasors alone above that.
"""

from __future__ import annotations

import cmath
import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np


class DdcError(Exception):
    """Base class for errors raised by this package."""


class UsageError(DdcError):
    """Caller misuse: invalid arguments, mismatched state, malformed config."""


class DomainError(DdcError):
    """Mathematically undefined or out-of-domain request (unstable filter,
    unachievable tuning target, evaluation at a response zero)."""


class SingularityError(DomainError):
    """A construction is singular for the given carrier ratio."""


def _is_int(value) -> bool:
    """True for a Python integer that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value, kind: type) -> bool:
    """True for a finite number of the abstract ``kind`` (``numbers.Real``,
    ``numbers.Complex``) that is not a ``bool``."""
    # A float or an int is of both kinds; testing its type first skips the
    # abstract-class check, several times slower, on the common path.
    if type(value) not in (float, int) and (
        isinstance(value, bool) or not isinstance(value, kind)
    ):
        return False
    try:
        return cmath.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _is_positive(value) -> bool:
    """True for a finite positive real number that is not a ``bool``."""
    return _is_number(value, numbers.Real) and value > 0


def _check_type(value, kind, what: str) -> None:
    """Raise :class:`UsageError` unless ``value`` is an instance of ``kind``,
    a class or a tuple of classes."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = " or ".join(k.__name__ for k in kinds)
        raise UsageError(f"{what} must be a {names}, not {type(value).__name__}")


def _validated_samples(values, dtype: type, what: str) -> np.ndarray:
    """``values``, given from outside, as a read-only 1-D array of ``dtype``
    (``np.float64`` or ``np.complex128``) that nothing else refers to.

    The element type is read from the dtype alone: only integers, floats and,
    for ``np.complex128``, complex numbers pass, so ``bool``, strings and
    objects are refused without a pass over the samples.  The array is copied
    unless the conversion to ``dtype`` already made a new one, so later writes
    to the caller's array do not reach the result, and the caller's array
    stays writeable.  Arrays the package computes itself are adopted by
    :func:`_adopt` instead.
    """
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting
        raise UsageError(f"{what} must be a 1-D array of numbers") from None
    kinds = "iufc" if dtype is np.complex128 else "iuf"
    if arr.dtype.kind not in kinds:
        real = "" if dtype is np.complex128 else "real "
        raise UsageError(f"{what} must hold {real}numbers, not {arr.dtype}")
    if arr.ndim != 1:
        raise UsageError(f"{what} must be one-dimensional")
    arr = arr.astype(dtype, copy=False)
    # count_nonzero reads the boolean array faster than all().
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise UsageError(f"{what} must contain only finite values")
    if arr is values or arr.base is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _adopt(cls: type, what: str, values, *args, **fields):
    """An instance of ``cls``, one of the package's frozen dataclasses whose
    first field is an array, around ``values``: a new array of that field's
    dtype that the package has just computed from values it holds, or a
    function that computes it from ``args``.  The other fields are given by
    name.

    A function runs with numpy's overflow and invalid-value warnings off: an
    overflow shows as a non-finite value.  A non-finite value is refused as a
    :class:`DomainError` naming ``what``.  The array is marked read-only and
    taken without a copy; ``cls.__post_init__`` does not run, since nothing
    here came from outside.
    """
    if callable(values):
        with np.errstate(over="ignore", invalid="ignore"):
            values = values(*args)
    # count_nonzero reads the boolean array faster than all().
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise DomainError(f"{what} left the float range")
    values.setflags(write=False)
    fields[next(iter(cls.__dataclass_fields__))] = values
    obj = object.__new__(cls)
    # The instance is frozen; its fields go where object.__setattr__ puts them.
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True)
class CarrierConfig:
    """Sampling grid for a sinusoidal carrier: ``periods`` carrier cycles per
    block of ``samples`` ADC samples.

    The ratio periods/samples fixes the per-sample phase advance of the
    carrier, ``phase_step = 2*pi*periods/samples``, computed from the integer
    ratio so that filter zeros land exactly on the harmonic grid.  The IQ
    special case is ``CarrierConfig(1, 4)``.

    Parameters
    ----------
    periods : int
        Carrier periods per block (> 0).
    samples : int
        Samples per block (> 2*periods: the carrier must be below Nyquist).
    sample_rate : float
        ADC sample rate in Hz.
    """

    periods: int
    samples: int
    sample_rate: float = 1.0

    def __post_init__(self) -> None:
        if not _is_int(self.periods) or not _is_int(self.samples):
            raise UsageError("carrier ratio must be a pair of integers")
        if self.periods <= 0 or self.samples <= 0:
            raise UsageError("carrier ratio requires positive integers")
        if 2 * self.periods >= self.samples:
            raise UsageError(
                f"carrier ratio {self.periods}/{self.samples} is at or above "
                "Nyquist (need periods/samples < 1/2)"
            )
        if not _is_positive(self.sample_rate):
            raise UsageError("sample_rate must be a positive finite real number")

    @property
    def phase_step(self) -> float:
        """Carrier phase advance per sample, in radians."""
        return 2.0 * math.pi * self.periods / self.samples

    @property
    def sample_period(self) -> float:
        """Sample period in seconds."""
        return 1.0 / self.sample_rate

    @property
    def carrier_freq(self) -> float:
        """Carrier frequency in Hz."""
        return self.sample_rate * self.periods / self.samples

    @property
    def is_coprime(self) -> bool:
        """True when the ratio is fully reduced; required for the complete
        harmonic-rejection properties of block-length filters."""
        return math.gcd(self.periods, self.samples) == 1

    def mixer_phases(self) -> np.ndarray:
        """One block of mixer phasors ``exp(-1j*phase_step*k)``, k = 0..samples-1.

        The phasors are periodic in the block length, so a lookup into this
        table by ``k % samples`` gives the exact mixer value for any absolute
        sample index (no phase accumulation error at large k).
        """
        table = _tone(-1j * self.phase_step, self.samples, 0, self.samples)
        table.setflags(write=False)
        return table

    def _mixer(self, start: int, count: int) -> np.ndarray:
        """What the mixer multiplies by at the ``count`` absolute indices from
        ``start``: ``2.0 * mixer_phases()[k % samples]``, from :func:`_tone`
        (doubling a phasor is exact)."""
        return _tone(-1j * self.phase_step, self.samples, start, count, lambda p: 2.0 * p)


def _tone(rate: complex, samples: int, start: int, count: int, form=None) -> np.ndarray:
    """``form(exp(rate * (k % samples)))`` at the ``count`` absolute indices
    k from ``start``: a phasor that repeats every ``samples`` indices, exact
    at any index, in a new array.  ``exp``, and ``form`` when given (an
    element-wise function, such as a doubling, a conjugate or a real part),
    run once for each residue the indices reach, at most ``samples`` of
    them, and that block is tiled.  Every carrier-periodic phasor of the
    package comes from here."""
    # Reduced in Python first: a huge start would overflow numpy's integers.
    block = np.exp(rate * ((start % samples + np.arange(min(count, samples))) % samples))
    if form is not None:
        block = form(block)
    return np.tile(block, -(-count // samples))[:count]


def _check_start(start, what: str) -> None:
    if not _is_int(start):
        raise UsageError(f"{what} start must be an integer, not {start!r}")


@dataclass(frozen=True, eq=False)
class RealSeq:
    """Real-valued sample sequence with an absolute start index.

    ``start`` is the absolute index of ``values[0]`` in units of the sample
    period; the mixer is time-varying, so block processing must carry this
    index to keep the mixer phase reproducible across blocks.
    """

    values: np.ndarray
    start: int = 0

    def __post_init__(self) -> None:
        _check_start(self.start, "RealSeq")
        object.__setattr__(
            self, "values", _validated_samples(self.values, np.float64, "RealSeq")
        )

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        return self.start + len(self.values)


@dataclass(frozen=True, eq=False)
class ComplexSeq:
    """Complex-valued sample sequence with an absolute start index."""

    values: np.ndarray
    start: int = 0

    def __post_init__(self) -> None:
        _check_start(self.start, "ComplexSeq")
        object.__setattr__(
            self, "values", _validated_samples(self.values, np.complex128, "ComplexSeq")
        )

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        return self.start + len(self.values)


class Domain(Enum):
    """Whether a filter acts on the raw ADC stream or after the mixer."""

    PASSBAND = "passband"
    BASEBAND = "baseband"


def _stable_pole(pole) -> complex:
    """``pole``, a finite number, as a ``complex`` inside the unit circle."""
    pole = complex(pole)
    if abs(pole) >= 1.0:
        raise UsageError(f"pole magnitude {abs(pole):.6g} >= 1 (unstable)")
    return pole


@dataclass(frozen=True, eq=False)
class ComplexFilter:
    """Causal filter with complex coefficients: an FIR tap vector over an
    optional single stable pole.

    Transfer function ``B(z) / (1 - pole*z^-1)`` with
    ``B(z) = taps[0] + taps[1] z^-1 + ...``.  ``pole=None`` is plain FIR; a
    single tap with a pole is the classic first-order low-pass; two taps over
    a pole covers the passband DC-reject form ``(1 - z^-1)/(1 - p z^-1)``.

    A filter whose taps and pole are real (every imaginary part +0.0), with
    neither the first tap nor the pole negative, runs in real arithmetic
    wherever that gives the complex kernel's bits (see :class:`FilterState`).
    """

    taps: np.ndarray
    pole: complex | None = None
    domain: Domain = Domain.BASEBAND

    def __post_init__(self) -> None:
        taps = self.taps
        if isinstance(taps, numbers.Number):
            taps = [taps]
        taps = _validated_samples(taps, np.complex128, "filter taps")
        if len(taps) < 1:
            raise UsageError("filter needs at least one tap")
        object.__setattr__(self, "taps", taps)
        _check_type(self.domain, Domain, "filter domain")
        if self.pole is not None:
            if not _is_number(self.pole, numbers.Complex):
                raise UsageError(f"pole must be a finite number, not {self.pole!r}")
            object.__setattr__(self, "pole", _stable_pole(self.pole))

    @classmethod
    def _owning(
        cls, taps: np.ndarray, pole=None, domain: Domain = Domain.BASEBAND
    ) -> ComplexFilter:
        """A filter adopted (see :func:`_adopt`) around ``taps``, a non-empty
        1-D ``complex128`` array the package has just computed.

        The pole, a finite number the package computed, is converted and
        checked for stability as the constructor does.
        """
        pole = None if pole is None else _stable_pole(pole)
        return _adopt(cls, "filter taps", taps, pole=pole, domain=domain)

    @functools.cached_property
    def _real(self) -> bool:
        """Whether the taps and pole are real and neither the first tap nor
        the pole is negative: read once, when the first
        :class:`FilterState` is built.

        A negative first tap or pole, or a -0.0 imaginary part, can leave
        -0.0 where the complex kernel has +0.0, so such filters stay
        complex."""
        signs = [self.taps[0].real]
        imag = self.taps.imag
        if self.pole is not None:
            signs.append(self.pole.real)
            imag = np.append(imag, self.pole.imag)
        return not (imag.any() or np.signbit(imag).any() or np.signbit(signs).any())

    def response(self, theta) -> np.ndarray:
        """Frequency response at normalized angular frequency ``theta``
        (rad/sample): a finite real number or a 1-D array of them."""
        if _is_number(theta, numbers.Real):
            theta = np.asarray(theta, dtype=np.float64)
        elif isinstance(theta, (np.ndarray, list, tuple)):
            theta = _validated_samples(theta, np.float64, "frequencies")
        else:
            raise UsageError(
                f"frequency must be a finite real number or a 1-D array of "
                f"them, not {theta!r}"
            )
        return self._response_at(np.exp(-1j * theta))

    def _response_at(self, w):
        """The array kernel of :meth:`response`, at the phasors
        ``w = exp(-1j*theta)`` of frequencies already validated: an array or
        a numpy scalar, so that a cascade computes its phasors once.

        Horner's rule with numpy ``polyval``'s products and sums in its order
        (``taps[-1] + w*0``, then ``taps[m] + acc*w``), so the bits are
        ``polyval``'s.  Each sum is taken in place; each product is a new
        array, because numpy's in-place complex product of a one-element
        array can round differently from its out-of-place product (seen
        with numpy 2.4 on an AVX-512 CPU).
        """
        taps = self.taps
        num = w * 0
        num += taps[-1]
        for tap in taps[-2::-1]:
            num = num * w
            num += tap
        if self.pole is None:
            return num
        return num / (1.0 - self.pole * w)

    def impulse(self, count: int) -> np.ndarray:
        """First ``count`` samples of the impulse response, read-only; a
        response beyond the float range raises :class:`DomainError`."""
        if not _is_int(count) or count < 0:
            raise UsageError(
                f"impulse length must be a non-negative integer, not {count!r}"
            )
        x = np.zeros(count, dtype=np.complex128)
        if count > 0:
            x[0] = 1.0
        args = (FilterState(self), x)
        seq = _adopt(ComplexSeq, "the impulse response", _filter_block, *args, start=0)
        return seq.values

    @property
    def dc_gain(self) -> complex:
        return complex(self.response(0.0))


class FilterState:
    """Mutable per-stream state for one filter: the numerator delay line plus
    the pole accumulator when the filter has one.

    Single-owner: one state must not be shared between concurrent runs.
    Processing a sequence in blocks through the same state gives exactly the
    one-shot result (bitwise for the FIR part: the per-sample tap summation
    order is fixed and independent of block boundaries).

    Whether the filter runs in real arithmetic is decided here, once: a state
    of a filter with real taps and pole holds real values, and real input
    blocks run through it in ``float64``.  Its first complex block turns it
    into a complex state (the real values with imaginary parts +0.0, which
    is what the complex kernel would hold), so the outputs are bitwise those
    of the complex kernel whatever the blocks.
    """

    def __init__(self, filt: ComplexFilter) -> None:
        _check_type(filt, ComplexFilter, "the filter")
        self.filter = filt
        dtype = np.float64 if filt._real else np.complex128
        self._delay = np.zeros(len(filt.taps) - 1, dtype=dtype)
        self._carry = None if filt.pole is None else np.zeros(1, dtype=dtype)

    def reset(self) -> None:
        self._delay[:] = 0.0
        if self._carry is not None:
            self._carry[:] = 0.0


_FLOAT64 = np.dtype(np.float64)
_ONE = np.ones(1)

# Most tap products, kept outputs times taps, that an FIR block before a
# decimator forms as one 2-D product; larger blocks, and blocks at full rate,
# run the tap loop, which is faster there (16384 outputs x 14 taps: 245-322 us
# as a loop, 380-506 us as one product; level at 1170 x 14; a 2-tap filter
# on 165-1848 outputs: 5-11 us as a loop, 6-15 us as one product).
_PRODUCT_SIZE = 4096


@functools.cache
def _linear_filter():
    """``scipy.signal._sigtools._linear_filter``, scipy's compiled
    direct-form II filter, to which :func:`scipy.signal.lfilter` hands every
    call whose denominator has more than one coefficient, with ``b``, ``a``,
    ``x``, ``axis`` and ``zi`` unchanged.

    The extension module is loaded from scipy's directory on its own, when a
    filter with a pole first runs, in about a millisecond: importing
    ``scipy.signal`` for ``lfilter`` takes more than a second and brings in
    ``scipy.stats``, ``scipy.interpolate`` and ``scipy.optimize``, which the
    package does not use.  Finding scipy's directory does not import scipy.
    The extension registers itself in ``sys.modules`` as
    ``scipy.signal._sigtools``; that entry is dropped again, since a later
    ``import scipy.signal`` that found it there would not bind ``_sigtools``
    as an attribute of ``scipy.signal``.  That import then loads the
    extension afresh, around the same routine, and a ``scipy.signal``
    imported earlier hands back its own module and keeps its entry.  The
    routine is private to scipy, so the tier-1 tests pin it bitwise against
    ``lfilter``, in either import order.
    """
    name = "scipy.signal._sigtools"
    registered = name in sys.modules
    scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, "signal") for d in scipy_dirs]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        sys.modules.pop(name, None)
    return module._linear_filter


def _tap_sum(
    taps: np.ndarray, history: np.ndarray, first: int, step: int, kept: int
) -> np.ndarray:
    """The FIR outputs ``sum_m taps[m] * x[k-m]`` at ``kept`` outputs ``k =
    first, first + step, ...``, from ``history``, the delay line followed by
    the block (so ``x[k-m]`` is ``history[len(taps) - 1 - m + k]``), as one
    2-D product and one reduction: bitwise the tap loop of
    :func:`_filter_block`.

    Row ``m`` of a strided window view of ``history`` holds ``x[k-m]`` at
    the kept ``k``, so the product's rows are the tap loop's products, and
    numpy takes each from the same multiply loop.  numpy reduces the rows of
    a C-contiguous array one after another, starting from the first row
    (``initial=None``, which keeps the sign of a zero sum); so the sums run
    in ascending tap order, as the tap loop's do.  A single float per row
    would be summed pairwise instead, so complex rows are reduced through
    their float view, with two floats per output.
    """
    size = history.itemsize
    window = np.ndarray(
        (len(taps), kept),
        history.dtype,
        history,
        (len(taps) - 1 + first) * size,
        (-size, step * size),
    )
    products = np.multiply(taps[:, np.newaxis], window, order="C")
    rows = products.view(np.float64)
    return np.add.reduce(rows, axis=0, initial=None).view(products.dtype)


def _filter_block(
    state: FilterState, values: np.ndarray, keep: tuple[int, int] = (0, 1)
) -> np.ndarray:
    """The array kernel of :func:`filter_stream`: filter one block of
    samples, real or complex, through ``state.filter`` from ``state``, which
    it updates, and return the output array.  The state is all a call needs,
    so a chain pass holds only its filter states.

    ``keep = (first, step)`` returns only the outputs ``first::step`` of the
    block, bitwise equal to slicing the full output, and leaves the same
    state behind.  A plain FIR computes ``taps[0]*x[k] + taps[1]*x[k-1] +
    ...``, in ascending tap order, only at the kept ``k`` (polyphase
    decimation); the delay line still advances over the whole block.  Up to
    :data:`_PRODUCT_SIZE` kept tap products are formed at once
    (:func:`_tap_sum`); more, or a full-rate block, in a loop over the taps.  A filter with a pole needs every output
    for its recursion, so it computes them all and then slices; the first
    pole to run loads scipy's compiled filter (:func:`_linear_filter`), not
    ``scipy.signal``.

    A real block through a real state (see :class:`FilterState`) runs the
    taps and the pole in ``float64`` and returns a real array: its values are
    the real parts of the complex kernel's output, whose imaginary parts are
    all +0.0, which is what numpy adds when it promotes the real array to
    complex (in the mixer, or in a :class:`ComplexSeq`).  Any other block runs
    in ``complex128`` and returns a complex array; there a real pole runs
    through :func:`_recursion`.
    """
    filt = state.filter
    values = np.asarray(values)
    if values.dtype is _FLOAT64 and state._delay.dtype is _FLOAT64:
        taps = filt.taps.real
    else:
        values = values.astype(np.complex128, copy=False)
        taps = filt.taps
        if state._delay.dtype is _FLOAT64:
            # A real state's first complex block: +0.0 imaginary parts are
            # what the complex kernel would have carried.
            state._delay = state._delay.astype(np.complex128)
            if state._carry is not None:
                state._carry = state._carry.astype(np.complex128)
    count = len(values)
    if count == 0:
        # For an empty block scipy's linear filter does not hand back the
        # carry it was given (scipy 1.17 returns uninitialised memory); keep
        # the state.
        return values
    first, step = (0, 1) if filt.pole is not None else keep
    length = len(taps)
    if length == 1:
        v = taps[0] * values[first::step]
    else:
        history = np.concatenate([state._delay, values])
        # Only a decimator's kept outputs are summed as one product (see
        # _PRODUCT_SIZE).  numpy sums a reduction with one float per row
        # pairwise, not row by row, so a real block needs two kept outputs.
        kept = len(range(first, count, step)) if step > 1 else 0
        floats = kept * (history.itemsize // _FLOAT64.itemsize)
        if 2 <= floats and kept * length <= _PRODUCT_SIZE:
            v = _tap_sum(taps, history, first, step, kept)
        else:
            v = taps[0] * history[length - 1 + first :: step]
            tmp = np.empty_like(v)
            for m in range(1, length):
                lag = length - 1 - m
                np.multiply(taps[m], history[lag + first : lag + count : step], out=tmp)
                v += tmp
        state._delay = history[count:].copy()
    if filt.pole is not None:
        v = _recursion(state, v)[keep[0] :: keep[1]]
    return v


def _recursion(state: FilterState, v: np.ndarray) -> np.ndarray:
    """``y[k] = pole*y[k-1] + v[k]``, with the pole of ``state.filter``, from
    the carry in ``state``, which it updates: the pole of
    :func:`_filter_block`.

    Each call runs :func:`_linear_filter` positionally, as
    ``(b, a, x, axis, zi)``, which is what :func:`scipy.signal.lfilter`
    passes it, so the bits are ``lfilter``'s.  A real ``v`` runs in one real
    filter.  A complex ``v`` through a real pole runs as one real filter down
    the two columns of its ``(n, 2)`` float view, along axis 0, carried in
    the complex carry's float view.  The two differ from the complex filter
    only in the sign of a zero: where a part of ``v`` is zero, or where
    ``pole*y`` is zero and the next part of ``v`` is too.  So the float view
    runs only on a ``v`` with no zero part, and its result is kept only if
    the carry it hands on has none; any other block runs through the complex
    filter.
    """
    linear_filter = _linear_filter()
    filt = state.filter
    if filt._real:
        a = np.array([1.0, -filt.pole.real])
        if v.dtype is _FLOAT64:
            v, state._carry = linear_filter(_ONE, a, v, -1, state._carry)
            return v
        pairs = v.view(np.float64).reshape(-1, 2)
        # Faster than np.count_nonzero(pairs), which numpy 2.4 runs one float
        # at a time: 2.9 against 6.4 us on 4290 samples, 6.2 against 23 us
        # on 16384.
        if not (pairs == 0.0).any():
            zi = state._carry.view(np.float64).reshape(1, 2)
            y, carry = linear_filter(_ONE, a, pairs, 0, zi)
            if carry.all():
                state._carry = carry.view(np.complex128).reshape(1)
                return y.view(np.complex128).reshape(-1)
    v, state._carry = linear_filter(
        np.ones(1, dtype=np.complex128),
        np.array([1.0, -filt.pole], dtype=np.complex128),
        v,
        -1,
        state._carry,
    )
    return v


def filter_stream(
    filt: ComplexFilter, state: FilterState, x: RealSeq | ComplexSeq
) -> ComplexSeq:
    """Run one block of samples through ``filt``, updating ``state`` in place.

    Output sample k is ``sum_m taps[m] * x[k-m]`` (taps summed in ascending
    order, every sample, so results are bit-reproducible across block splits
    and input delays), fed through ``y[k] = pole*y[k-1] + v[k]`` when the
    filter has a pole.  Initial conditions are whatever ``state`` holds (all
    zeros after reset).  Output start index equals input start index.  An
    output beyond the float range raises :class:`DomainError`.
    """
    _check_type(x, (RealSeq, ComplexSeq), "filter_stream input")
    _check_type(state, FilterState, "the filter state")
    if state.filter is not filt:
        raise UsageError("filter state belongs to a different filter")

    def block() -> np.ndarray:
        # A real block through a real state comes back real.
        return _filter_block(state, x.values).astype(np.complex128, copy=False)

    return _adopt(ComplexSeq, "the filter's output", block, start=x.start)


def apply_filter(filt: ComplexFilter, x: RealSeq | ComplexSeq) -> ComplexSeq:
    """One-shot filtering from zero initial conditions."""
    return filter_stream(filt, FilterState(filt), x)


def decimate(x: RealSeq | ComplexSeq, factor: int, phase: int = 0) -> RealSeq | ComplexSeq:
    """Keep every ``factor``-th sample starting at ``phase``.

    Output sample j is input sample ``phase + j*factor``; the output sample
    period is ``factor`` times the input one.  The returned sequence is
    re-indexed from zero: absolute timing of output sample j is
    ``(x.start + phase + j*factor)`` input periods.
    """
    _check_type(x, (RealSeq, ComplexSeq), "decimate input")
    if not _is_int(factor) or factor < 1:
        raise UsageError("decimation factor must be a positive integer")
    if not _is_int(phase) or not (0 <= phase < factor):
        raise UsageError(f"decimation phase must lie in [0, {factor})")
    kept = x.values[phase::factor].copy()
    return _adopt(type(x), "decimate's output", kept, start=0)

