"""Frequency responses, impulse-energy (H2) norms, bandwidth tuning, and
latency metrics for complex-coefficient filters and cascades.

The squared H2 norm used throughout is the impulse-response energy
``sum_k |g_k|^2``; for a white unit-variance input it equals the output
variance, which is what ties these numbers to the simulator's Monte-Carlo
noise gains.  The norms are closed forms, with no truncated sum, for any
number of poles and any decimation factor: one routine evaluates the
numerator's support directly and sums the rest through the observability
Gramian of the poles.  Their precision is measured, not bounded (see
:class:`NormReport`).  The same parts give the gain under an added
first-order low-pass in closed form, from which its bandwidth is tuned.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .core import (
    CarrierConfig,
    ComplexFilter,
    DomainError,
    UsageError,
    _adopt,
    _check_type,
    _is_int,
    _is_number,
    _is_positive,
    _validated_samples,
)

FilterOrCascade = Union[ComplexFilter, Sequence[ComplexFilter]]

# The bracket of bandwidth*period that tune_lp_bandwidth searches.
_X_LO, _X_HI = 1e-9, 50.0
_ULP_OF_ONE = 2.0**-52
# The most points a regular grid that FreqGrid.regular keeps may have.
_REGULAR_POINTS_KEPT = 1 << 16
# A stage whose response at the evaluation frequency is at most this share
# of its tap magnitude sum sits on a zero, for phase_metrics.
_ZERO_SHARE = 1e-9
_TINY = 2.0**-1022  # the smallest normal float
# exp(-1j*theta) at theta = 0.0, as numpy computes it.
_DC = complex(1.0, -0.0)
_DC_PHASOR = np.array([_DC])
_DC_PHASOR.setflags(write=False)


def _check_grid_rate(sample_rate) -> None:
    if sample_rate is not None and not _is_positive(sample_rate):
        raise UsageError("grid sample_rate must be None or a positive finite real")


@dataclass(frozen=True, eq=False)
class FreqGrid:
    """Strictly increasing normalized angular frequencies in (-pi, pi]."""

    thetas: np.ndarray
    sample_rate: float | None = None

    def __post_init__(self) -> None:
        thetas = _validated_samples(self.thetas, np.float64, "frequency grid")
        if len(thetas) == 0:
            raise UsageError("frequency grid must not be empty")
        _check_grid_rate(self.sample_rate)
        if np.any(np.diff(thetas) <= 0):
            raise UsageError("frequency grid must be strictly increasing")
        if thetas[0] <= -math.pi or thetas[-1] > math.pi:
            raise UsageError("frequency grid must lie within (-pi, pi]")
        object.__setattr__(self, "thetas", thetas)

    @classmethod
    def regular(cls, points: int, sample_rate: float | None = None) -> "FreqGrid":
        """Uniform grid of ``points`` frequencies covering (-pi, pi].

        The grid is adopted around the array it builds (``core._adopt``): it
        is finite, strictly increasing and inside (-pi, pi] by construction,
        so it is neither copied nor checked again.  Grids of up to 65536
        points are shared: the last eight distinct ``(points, sample_rate)``
        requests (the types included) each keep one immutable grid, whose
        read-only thetas and phasors every later request of the same pair
        returns.  The arguments are checked before the lookup.
        """
        if not _is_int(points) or points < 1:
            raise UsageError("grid needs a positive integer number of points")
        _check_grid_rate(sample_rate)
        if points > _REGULAR_POINTS_KEPT:
            return _regular_grid.__wrapped__(points, sample_rate)
        return _regular_grid(points, sample_rate)

    @functools.cached_property
    def _phasors(self) -> np.ndarray:
        """``exp(-1j*thetas)``, read-only, computed on first use."""
        w = np.exp(-1j * self.thetas)
        w.setflags(write=False)
        return w

    @property
    def freq_hz(self) -> np.ndarray | None:
        """Grid as baseband offset frequencies in Hz (None without a rate)."""
        if self.sample_rate is None:
            return None
        return self.thetas * self.sample_rate / (2.0 * math.pi)

    def __len__(self) -> int:
        return len(self.thetas)


@functools.lru_cache(maxsize=8, typed=True)
def _regular_grid(points: int, sample_rate: float | None) -> FreqGrid:
    """The grid of :meth:`FreqGrid.regular`, whose last eight distinct
    requests are kept; ``__wrapped__`` builds one that is not kept."""
    step = 2.0 * math.pi / points
    thetas = -math.pi + step * np.arange(1, points + 1)
    # step * points rounds above 2*pi for some counts (25 is the first), which
    # would put the last point just past pi.
    thetas[-1] = min(thetas[-1], math.pi)
    return _adopt(FreqGrid, "frequency grid", thetas, sample_rate=sample_rate)


def _db(value: float) -> float:
    """``value`` in dB, -inf for zero."""
    return 10.0 * math.log10(value) if value > 0 else -math.inf


@dataclass(frozen=True)
class NormReport:
    """Squared-H2-norm result together with how it was obtained.

    ``method`` is ``closed-form`` for :func:`h2_norm_sq` and
    :func:`multirate_norm_sq`, which sum no truncated series for any number
    of poles, or ``monte-carlo`` for a simulated estimate, which carries its
    standard error in ``stderr``.  The tests hold the closed forms to 1e-13
    relative against 50-digit mpmath on the cascades they draw; that is a
    measurement, not a bound.  A zero that nearly cancels a pole near 1
    behind a second pole loses digits: ``[1, -1]``, a pole at 0.5 and
    ``make_lp(x, 1.0)`` read 1.7e-13 relative at ``x = 1e-4`` and 4.9e-10 at
    ``1e-8``.
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
        return _db(self.value)


def _as_stages(obj: FilterOrCascade) -> list[ComplexFilter]:
    if isinstance(obj, ComplexFilter):
        return [obj]
    try:
        stages = list(obj)
    except TypeError:  # not iterable
        stages = []
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
        w = grid._phasors
    else:
        w = np.exp(-1j * _validated_samples(grid, np.float64, "frequencies"))
    return _response(_as_stages(obj), w)


def _response(stages: list[ComplexFilter], w: np.ndarray) -> np.ndarray:
    """The array kernel of :func:`freq_response`, at the phasors
    ``w = exp(-1j*theta)`` of frequencies already validated: each stage's
    response kernel at phasors computed once for the cascade (or kept by its
    :class:`FreqGrid`), not its validating method."""
    resp = np.ones_like(w)
    for stage in stages:
        resp = resp * stage._response_at(w)
    return resp


def _dc_response(stages: list[ComplexFilter]) -> np.ndarray:
    """``_response(stages, _DC_PHASOR)``, bitwise, without two numpy calls
    per tap.

    At zero frequency the phasor is ``1 - 0j``, so every product in the
    numerator's Horner rule is exact and only its signed zeros depend on the
    arithmetic; Python's complex product and sum give the same ones as
    numpy's, so each numerator is summed in Python.  The pole divisions and
    the cascade product round, and stay numpy's.
    """
    resp = np.ones(1, dtype=np.complex128)
    for stage in stages:
        taps = stage.taps.tolist()
        num = complex(0.0, 0.0) + taps[-1]
        for tap in reversed(taps[:-1]):
            num = num * _DC + tap
        h = np.array([num])
        if stage.pole is not None:
            h = h / (1.0 - stage.pole * _DC_PHASOR)
        resp = resp * h
    return resp


def _energy(
    taps: np.ndarray, poles: Sequence[complex], gaps: Sequence[complex], factor: int
) -> float:
    """Exact impulse energy of ``B(z) / prod_i (1 - p_i z^-factor)``: the
    head's energy plus the tail's ``v^H W v``, from :func:`_energy_terms`.

    ``gaps[i]`` is ``1 - poles[i]``, computed by the caller without
    cancellation, so that poles near one lose no digits.
    """
    head, v, gram = _energy_terms(taps, poles, gaps, factor)
    energy = np.vdot(head, head).real
    for i in reversed(range(len(v))):
        for j in reversed(range(len(v))):
            energy += (gram[i][j] * np.vdot(v[i], v[j])).real
    return float(energy)


def _energy_terms(
    taps: np.ndarray, poles: Sequence[complex], gaps: Sequence[complex], factor: int
) -> tuple[np.ndarray, list[np.ndarray], list[list[complex]]]:
    """The head, the states beyond it and the observability Gramian of
    ``B(z) / prod_i (1 - p_i z^-factor)``, which :func:`_energy` sums.

    The denominator is a polynomial in ``z^-factor``, so the residue classes
    ``taps[r::factor]`` are independent low-rate problems with the same
    poles.  They run side by side through one cascade of first-order
    sections, each a convolution with ``p^k`` placed at multiples of
    ``factor``.

    The head (the numerator's support, zero-padded to whole rows of
    ``factor``) runs through the sections directly.  Beyond it the input is
    zero and the section states evolve as ``x[k] = A x[k-1]`` with
    ``A[i][j] = p_j`` for ``j <= i``, so the tail energy is
    ``(A s)^H W (A s)`` for the states ``s`` at the end of the head and the
    observability Gramian ``W = A^H W A + e_n e_n^T``.  ``v[i]`` is
    ``(A s)[i]``, one entry per residue class.  The Gramian is solved by
    back-substitution over the triangle; each entry divides by
    ``1 - conj(p_i) p_j``, formed from the gaps.  No step divides by a pole
    difference, so repeated poles need no separate branch.
    """
    rows = -(-len(taps) // factor)
    head = np.zeros(rows * factor, dtype=np.complex128)
    head[: len(taps)] = taps
    kernel = np.zeros(rows * factor, dtype=np.complex128)
    v: list[np.ndarray] = []
    for p in poles:
        kernel[::factor] = p ** np.arange(rows)
        head = np.convolve(head, kernel)[: len(kernel)]
        v.append(p * head[-factor:] + (v[-1] if v else 0.0))

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
    return head, v, gram


def _collapse(
    pairs: Iterable[tuple[ComplexFilter, int]],
) -> tuple[np.ndarray, list[complex], list[complex], int]:
    """Collapse a cascade of ``(filter, rate)`` pairs, in processing order,
    to one numerator, its poles moved to the last pair's rate, their gaps
    ``1 - p``, and that rate: the parts whose :func:`_energy` is the
    cascade's impulse energy.

    A filter at rate ``N`` (input samples per sample it runs on) has the
    same output variance under white input as the filter in ``z^N`` at rate
    one (the noble identity), so its taps are spread by ``N``.  Only rates 1
    and one other occur, so a pole below the last rate runs at rate one; it
    moves to ``z^-N`` through ``1/(1 - p z^-1) = sum_{m<N} p^m z^-m / (1 -
    p^N z^-N)`` when the first stage at rate ``N`` arrives.  A pole that
    already runs at the last rate is not lifted: a lift by 1 is the
    identity.  Each rate's taps are convolved before its poles are lifted,
    and both before the next rate's taps: that order fixes the bits.
    """
    taps, poles, gaps, current = None, [], [], 1
    for filt, rate in pairs:
        stage_taps = filt.taps
        if rate > 1:
            if rate != current:  # the first stage at rate N: lift the poles so far
                lifted, gaps = [], []
                for p in poles:
                    powers = p ** np.arange(rate)
                    taps = np.convolve(taps, powers)
                    lifted.append(powers[-1] * p)
                    # 1 - p^N = (1 - p) * sum_{m<N} p^m, without cancellation near one.
                    gaps.append((1.0 - p) * complex(np.sum(powers)))
                poles, current = lifted, rate
            stage_taps = np.zeros((len(filt.taps) - 1) * rate + 1, dtype=np.complex128)
            stage_taps[::rate] = filt.taps
        taps = stage_taps if taps is None else np.convolve(taps, stage_taps)
        if filt.pole is not None:
            poles.append(filt.pole)
            gaps.append(1.0 - filt.pole)
    return taps, poles, gaps, current


def _norm_sq(pairs: Iterable[tuple[ComplexFilter, int]]) -> float:
    """Exact impulse energy of a cascade of ``(filter, rate)`` pairs in
    processing order, from its :func:`_collapse`: the one body of
    :func:`h2_norm_sq`, :func:`multirate_norm_sq` and the chains' noise
    gain."""
    taps, poles, gaps, factor = _collapse(pairs)
    if not poles and factor == 1:
        # _energy's sum, without its copy; above rate 1 that copy is padded
        # to whole rows, which sums in another order.
        return float(np.vdot(taps, taps).real)
    return _energy(taps, poles, gaps, factor)


def h2_norm_sq(obj: FilterOrCascade) -> NormReport:
    """Squared H2 norm (impulse energy) of a filter or cascade.

    A closed form for any number of poles, repeated ones included: the
    result is always ``closed-form``, and matches a 50-digit reference to
    1e-13 relative on the cascades the tests draw.  A zero that nearly
    cancels a pole near 1 behind another pole misses that (see
    :class:`NormReport`).
    """
    return NormReport(_norm_sq([(stage, 1) for stage in _as_stages(obj)]), "closed-form")


def multirate_norm_sq(
    inner: FilterOrCascade, outer_lowrate: ComplexFilter, factor: int
) -> NormReport:
    """Squared H2 norm of low-rate filtering applied after decimation.

    Decimating the output of ``inner`` by ``factor`` and then filtering by
    ``outer_lowrate`` has the same output variance under white input as the
    single-rate cascade of ``inner`` with ``outer_lowrate(z^factor)`` (the
    noble identity), which is what this computes.  The result is
    ``closed-form`` for every factor and pole count, and matches a 50-digit
    reference to 1e-13 relative on the cascades the tests draw, with the
    same exception as :func:`h2_norm_sq`.  At ``factor`` 1 it is
    ``h2_norm_sq`` of the concatenated cascade, bit for bit.
    """
    if not _is_int(factor) or factor < 1:
        raise UsageError("decimation factor must be a positive integer")
    _check_type(outer_lowrate, ComplexFilter, "the low-rate filter")
    pairs = [(stage, 1) for stage in _as_stages(inner)]
    pairs.append((outer_lowrate, factor))
    return NormReport(_norm_sq(pairs), "closed-form")


def tune_lp_bandwidth(
    ddc_filter: FilterOrCascade, target_db: float, sample_period: float
) -> float:
    """Find the first-order low-pass bandwidth (rad/s) that brings the
    cascade's noise gain to ``target_db``.

    The impulse energy of ``ddc_filter * lowpass`` is strictly increasing in
    the bandwidth, so bandwidth*period over [1e-9, 50] brackets any
    achievable target.  The fixed stages are collapsed once; each evaluation
    is one exact norm, bitwise ``h2_norm_sq(stages + [make_lp(bandwidth,
    sample_period)])``.

    The cascade's gain has a closed form in the low-pass pole, poles
    included (see :func:`_lp_root`), so the bandwidth is solved from that
    form and confirmed by one exact norm.  Only where that norm misses the
    stated precision (a cascade whose closed form cancels, such as one with
    a DC null) does Brent's method (Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 4: inverse quadratic and secant steps,
    with bisection whenever they do not shrink the bracket fast enough)
    solve log gain = log target over the log of the low-pass tap ``1 - a``,
    which is log bandwidth*period for a narrow low-pass.

    The result misses the target by at most ``max(1e-12, 2**-52 / (1 - a))``
    relative, with ``a`` the low-pass pole, plus the norm's own ~1e-15.  The
    second term is the gain step that one ulp of the pole makes: below
    bandwidth*period ~ 1e-5 the gain is a staircase in the bandwidth that
    1e-12 cannot resolve.  On 11000 random cascades with one to four poles,
    repeated and complex ones included, every tune took one norm
    evaluation.
    """
    if not _is_number(target_db, numbers.Real):
        raise UsageError("target must be a finite real number of dB")
    if not _is_positive(sample_period):
        raise UsageError("sample period must be a positive finite real number")
    if math.isinf(_X_HI / sample_period):
        raise UsageError("sample period too small: the low-pass bandwidth overflows")
    taps, poles, gaps, _ = _collapse([(stage, 1) for stage in _as_stages(ddc_filter)])
    try:
        target = 10.0 ** (target_db / 10.0)
    except OverflowError:  # beyond the float range, so beyond any gain
        target = math.inf

    def gain(x: float) -> tuple[float, float]:
        """The gain at bandwidth*period ``x``, and the relative miss it may
        stop at."""
        # make_lp's pole and tap for the bandwidth x / sample_period.
        a = math.exp(-(x / sample_period) * sample_period)
        pole = complex(a)
        lp_taps = np.convolve(taps, np.array([1.0 - a], dtype=np.complex128))
        value = _energy(lp_taps, poles + [pole], gaps + [1.0 - pole], 1)
        return value, max(1e-12, _ULP_OF_ONE / (1.0 - a))

    x = _lp_root(taps, poles, gaps, target)
    if x is not None:
        value, miss = gain(x)
        if abs(value - target) <= miss * target:
            return x / sample_period

    lo, _ = gain(_X_LO)
    hi, _ = gain(_X_HI)
    if not (lo < target < hi):
        raise DomainError(
            f"target {target_db:.4g} dB is outside the achievable range "
            f"({_db(lo):.4g} dB, {_db(hi):.4g} dB) for this filter"
        )
    # Brent's method over v = log(1 - a), the log of the low-pass tap: it is
    # log(bandwidth*period) to first order for a narrow low-pass, where the
    # gain is proportional to 1 - a, and the gain is affine in a = 1 - e^v
    # for a wide one, so the log gain is smooth and nearly linear in v at
    # both ends of the bracket.
    log_target = math.log(target)

    def residual(v: float) -> tuple[float, bool]:
        value, miss = gain(_lp_x(v))
        return math.log(value) - log_target, abs(value - target) <= miss * target

    v = _zeroin(
        residual,
        (math.log(-math.expm1(-_X_LO)), math.log(lo) - log_target),
        (math.log(-math.expm1(-_X_HI)), math.log(hi) - log_target),
    )
    return _lp_x(v) / sample_period


def _lp_root(
    taps: np.ndarray, poles: Sequence[complex], gaps: Sequence[complex], target: float
) -> float | None:
    """Bandwidth*period at which ``B(z) / prod_i (1 - p_i z^-1)`` over a
    first-order low-pass has impulse energy ``target``, from that energy's
    closed form; None where the form places no root inside the bracket.

    With the head ``g`` (the first ``L`` impulse-response samples), the
    states ``v`` beyond it and the Gramian ``W`` of :func:`_energy_terms`,
    and the low-pass pole ``a``, the energy is ``q P(a)``, where
    ``q = (1 - a)/(1 + a) = tanh(x/2)`` and

        P(a) = r_0 + 2 Re[sum_{l>=1} rho_l a^l + w_n(a) C(a) + a v^H W A w(a)]

    with ``rho_l = sum_k g_{k+l} conj(g_k)``, ``r_0 = rho_0 + v^H W v``,
    ``C(a) = sum_{k<L} conj(g_k) a^(L-k)`` and ``w(a) = (I - a A)^-1 v``: the
    head with itself, the head with the tail, and the tail with itself.  A
    pole-free cascade has no tail, and ``P`` is the polynomial in ``rho``.
    ``w`` comes by forward substitution, ``w_i (1 - a p_i) = v_i + a
    sum_{j<i} p_j w_j``, with ``1 - a p_i`` formed as ``(1 - a) + a gap_i``
    so that nothing cancels; its slope ``(I - a A)^-1 A w`` takes one more.

    Newton's method solves ``log q + log P(a) = log target`` over ``log q``.
    Its slope, ``1 + d log P / d log q``, is positive and stays near one at
    both ends, since ``P`` tends to ``r_0`` for a wide low-pass and to
    ``|H(1)|^2`` for a narrow one.  A step that leaves the bracket bisects it
    instead.  The caller confirms the root with one exact norm: where ``P``
    cancels, the form can miss it.
    """
    head, v, gram = _energy_terms(taps, poles, gaps, 1)
    rho = np.correlate(head, head, "full")[len(head) - 1 :]
    n = len(poles)
    states = [complex(vi[0]) for vi in v]
    # m = v^H W, so that v^H W u is sum_j m_j u_j.
    m = [
        sum(states[i].conjugate() * gram[i][j] for i in range(n)) for j in range(n)
    ]
    r0 = float(rho[0].real) + sum(mj * vj for mj, vj in zip(m, states)).real
    if not 0.0 < target < r0 < math.inf:
        return None
    # The polynomial's coefficients, highest power first, for Horner's rule.
    coefs = (2.0 * rho.real[:0:-1]).tolist() + [r0]
    conj_head = head.conj().tolist()
    log_target = math.log(target)
    lo, hi = math.log(math.tanh(0.5 * _X_LO)), 0.0
    # P(a) = r_0 is exact for the widest low-pass.
    w = max(lo, log_target - math.log(r0))
    for _ in range(100):
        q = math.exp(w)
        a = (1.0 - q) / (1.0 + q)
        p = dp = 0.0
        for c in coefs:
            dp = dp * a + p
            p = p * a + c
        if n:
            cross, dcross = _tail_terms(a, conj_head, states, m, poles, gaps)
            p += 2.0 * cross.real
            dp += 2.0 * dcross.real
        if not 0.0 < p < math.inf:
            return None
        f = w + math.log(p) - log_target
        if f == 0.0:
            break
        if f > 0.0:
            hi = w
        else:
            lo = w
        slope = 1.0 - (dp / p) * 2.0 * q / (1.0 + q) ** 2
        # A slope that rounding made non-positive gives a nan step: bisect.
        step = -f / slope if slope > 0.0 else math.nan
        if abs(step) <= 1e-9:
            # Newton's error after this step is of order step**2.
            w += step
            break
        w = w + step if lo < w + step < hi else 0.5 * (lo + hi)
    else:
        return None
    q = math.exp(w)
    if q >= 1.0:
        return None
    x = 2.0 * math.atanh(q)
    return x if _X_LO <= x <= _X_HI else None


def _tail_terms(
    a: float,
    conj_head: list[complex],
    states: list[complex],
    m: list[complex],
    poles: Sequence[complex],
    gaps: Sequence[complex],
) -> tuple[complex, complex]:
    """``w_n(a) C(a) + a v^H W A w(a)`` of :func:`_lp_root`'s ``P``, and its
    derivative in ``a``, with ``m = v^H W``."""
    c = dc = 0j
    for g in conj_head:
        c, dc = (c + g) * a, dc * a + (c + g)
    # u = A w and du = A w', with w' = (I - a A)^-1 A w, by forward
    # substitution; the sums are over the rows solved so far.
    u = du = wi = dwi = mu = dmu = 0j
    for vi, mi, p, gap in zip(states, m, poles, gaps):
        d = (1.0 - a) + a * gap
        wi = (vi + a * u) / d
        u += p * wi
        dwi = (u + a * du) / d
        du += p * dwi
        mu += mi * u
        dmu += mi * du
    # wi is now w_n, the last state.
    return wi * c + a * mu, dwi * c + wi * dc + mu + a * dmu


def _lp_x(v: float) -> float:
    """Bandwidth*period of the low-pass whose tap ``1 - a`` is ``e^v``."""
    return -math.log1p(-math.exp(v))


def _zeroin(func, start: tuple[float, float], end: tuple[float, float]) -> float:
    """Brent's root finder (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4) for ``f`` over a bracket whose ends
    ``(u, f(u))`` differ in sign.

    ``func(u)`` returns ``f(u)`` and whether ``u`` is close enough; the first
    such ``u`` is returned.  Each step is an inverse quadratic or secant step
    inside the bracket, or a bisection when those do not shrink it fast
    enough.  If the bracket closes on adjacent floats first, the search has
    failed: a :class:`DomainError`.
    """
    # b is the best point so far, [b, c] brackets the root and a is the
    # previous b.
    (a, fa), (b, fb) = start, end
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _ULP_OF_ONE * max(abs(b), 1.0)
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            raise DomainError("bandwidth search failed to converge")
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb, done = func(b)
        if done:
            return b


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
    sit on a response zero, nor beyond the Nyquist frequency:
    ``|omega*sample_period| <= pi``.  A stage sits on a zero where its
    response is at most 1e-9 of the sum of its tap magnitudes, so scaling a
    stage changes neither the answer nor whether there is one.  At zero
    frequency (``omega`` 0.0 or -0.0) the unwrapping path is nine points at
    zero frequency, so the phase is the angle of the response at one point,
    plus 0.0 as the unwrap adds it.
    """
    if not _is_number(omega, numbers.Real):
        raise UsageError("frequency must be a finite real number")
    if not _is_positive(sample_period):
        raise UsageError("sample period must be a positive finite real number")
    stages = _as_stages(obj)
    theta = omega * sample_period
    if abs(theta) > math.pi:
        # The unwrapping path grows with |theta|; past pi it only aliases.
        raise UsageError(
            f"frequency {omega!r} rad/s is beyond the Nyquist frequency "
            "pi/sample_period"
        )
    if theta == 0.0:
        phase = float(np.angle(_dc_response(stages)[0])) + 0.0
    else:
        steps = max(8, int(math.ceil(abs(theta) / 0.01)))
        # The path from zero frequency ends exactly at theta.
        path = np.linspace(0.0, theta, steps + 1)
        resp = _response(stages, np.exp(-1j * path))
        phase = float(np.unwrap(np.angle(resp))[-1])

    w = complex(math.cos(theta), -math.sin(theta))
    # 1 - w, without cancellation near zero frequency.
    one_minus_w = complex(2.0 * math.sin(0.5 * theta) ** 2, math.sin(theta))
    delay_samples = 0.0
    for stage in stages:
        m = np.arange(len(stage.taps))
        terms = stage.taps * w**m
        num = terms.sum()
        gain = abs(num)
        if stage.pole is not None:
            p = stage.pole
            den = (1.0 - p) + p * one_minus_w
            gain /= abs(den)
        scale = sum(map(abs, stage.taps.tolist()))
        # Below the normal range, numpy's complex division overflows.
        if gain <= _ZERO_SHARE * scale or abs(num) < _TINY:
            raise DomainError("phase is undefined at a response zero")
        delay_samples += (np.dot(m, terms) / num).real
        if stage.pole is not None:
            delay_samples += (p * w / den).real
    return PhaseMetrics(phase=phase, group_delay=delay_samples * sample_period)


def reduce_angle(theta: float) -> float:
    """Reduce an angle to the principal interval (-pi, pi]."""
    if not _is_number(theta, numbers.Real):
        raise UsageError(f"angle must be a finite real number, not {theta!r}")
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
    _check_type(carrier, CarrierConfig, "the carrier")
    step = carrier.phase_step
    return AliasImages(
        pos=reduce_angle((order - 1) * step),
        neg=reduce_angle((-order - 1) * step),
    )
