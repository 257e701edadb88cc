"""Independent references the benchmark checks ddckit's outputs against.

Nothing here calls ddckit.  Norms are evaluated with 50-digit mpmath from
the float taps and poles of the filters ddckit built (so a reference measures
the error of the norm routine, not the rounding of the filter's own
parameters); streams are filtered with ``np.convolve`` and an explicit
first-order recursion evaluated as a prefix scan.  mpmath is loaded on
first use, so importing this module costs only numpy.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.cache
def _context():
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = 50
    return ctx


def _mp(z):
    z = complex(z)
    return _context().mpc(z.real, z.imag)


def _conv(a: list, b: list) -> list:
    MP = _context()
    out = [MP.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def energy(taps, poles) -> float:
    """Exact impulse energy of ``B(z) / prod(1 - p_i z^-1)`` for distinct poles.

    The first ``len(taps)`` samples of the impulse response come from the
    recursion; beyond them the response is ``sum_i c_i p_i^k`` with the
    ``c_i`` fitted to the next ``len(poles)`` samples, so the tail energy is
    the double geometric sum ``sum_ij c_i c_j* (p_i p_j*)^L / (1 - p_i p_j*)``.
    """
    MP = _context()
    b = [_mp(t) for t in taps]
    p = [_mp(q) for q in poles]
    head_len, n = len(b), len(p)
    den = [MP.mpc(1)]
    for q in p:
        den = _conv(den, [MP.mpc(1), -q])
    g: list = []
    for k in range(head_len + n):
        v = b[k] if k < head_len else MP.mpc(0)
        for m in range(1, min(k, n) + 1):
            v -= den[m] * g[k - m]
        g.append(v)
    total = MP.fsum(abs(v) ** 2 for v in g[:head_len])
    if n:
        vander = MP.matrix([[q ** (head_len + t) for q in p] for t in range(n)])
        c = MP.lu_solve(vander, MP.matrix(g[head_len:]))
        total += MP.re(
            MP.fsum(
                c[i] * MP.conj(c[j]) * (p[i] * MP.conj(p[j])) ** head_len
                / (1 - p[i] * MP.conj(p[j]))
                for i in range(n)
                for j in range(n)
            )
        )
    return float(total)


def cascade_energy(stages) -> float:
    """Reference energy of a ddckit cascade (objects with ``taps``/``pole``)."""
    taps = np.ones(1, dtype=np.complex128)
    poles = []
    for s in stages:
        taps = np.convolve(taps, s.taps)
        if s.pole is not None:
            poles.append(s.pole)
    if len(poles) == 1:
        return one_pole_energy(taps, poles[0])
    return energy(taps, poles)


def one_pole_energy(taps, pole) -> float:
    """Closed form for ``B(z)/(1 - a z^-1)``:
    ``sum_mn b_m b_n* a^(M-m) a*^(M-n) / (1 - |a|^2)`` with ``M = max(m, n)``."""
    MP = _context()
    b = [_mp(t) for t in taps]
    a = _mp(pole)
    ac = MP.conj(a)
    total = MP.fsum(
        b[m] * MP.conj(b[n]) * a ** (max(m, n) - m) * ac ** (max(m, n) - n)
        for m in range(len(b))
        for n in range(len(b))
    )
    return float(MP.re(total) / (1 - abs(a) ** 2))


def multirate_energy(inner_stages, outer, factor: int) -> float:
    """Energy of an FIR ``inner(z)`` times ``outer(z^factor)`` with one outer
    pole: each residue class modulo ``factor`` is a one-pole filter at the low
    rate, and the classes do not mix."""
    taps = np.ones(1, dtype=np.complex128)
    for s in inner_stages:
        taps = np.convolve(taps, s.taps)
    up = np.zeros((len(outer.taps) - 1) * factor + 1, dtype=np.complex128)
    up[::factor] = outer.taps
    combined = np.convolve(taps, up)
    return sum(one_pole_energy(combined[r::factor], outer.pole) for r in range(factor))


def group_delay_samples(stages, theta: float) -> float:
    """Exact group delay of a cascade in samples:
    ``Re(sum m b_m w^m / sum b_m w^m) + Re(p w / (1 - p w))`` per stage, w = e^{-j theta}."""
    w = complex(math.cos(theta), -math.sin(theta))
    total = 0.0
    for s in stages:
        taps = np.asarray(s.taps)
        powers = w ** np.arange(len(taps))
        total += (np.sum(np.arange(len(taps)) * taps * powers) / np.sum(taps * powers)).real
        if s.pole is not None:
            total += (s.pole * w / (1.0 - s.pole * w)).real
    return total


def response(stages, thetas: np.ndarray) -> np.ndarray:
    """Cascade response by direct summation of ``b_m e^{-j m theta}``."""
    out = np.ones(len(thetas), dtype=np.complex128)
    for s in stages:
        m = np.arange(len(s.taps))
        kernel = np.exp(-1j * np.outer(thetas, m))
        h = kernel @ np.asarray(s.taps)
        if s.pole is not None:
            h = h / (1.0 - s.pole * np.exp(-1j * thetas))
        out *= h
    return out


def t_critical(dof: int, alpha: float) -> float:
    """Two-sided Student-t critical value: P(|T_dof| > c) = alpha."""
    MP = _context()

    def tail(c: float) -> float:
        return float(MP.betainc(dof / 2.0, 0.5, 0, dof / (dof + c * c), regularized=True))

    lo, hi = 0.0, 1.0
    while tail(hi) > alpha:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tail(mid) > alpha else (lo, mid)
    return hi


def recursion(v: np.ndarray, pole: complex) -> np.ndarray:
    """``y[k] = pole*y[k-1] + v[k]`` from rest, as a Hillis-Steele prefix scan."""
    y = np.array(v, dtype=np.complex128)
    shift, factor = 1, complex(pole)
    while shift < len(y):
        y[shift:] = y[shift:] + factor * y[:-shift]
        factor *= factor
        shift *= 2
    return y


def fir(x: np.ndarray, taps) -> np.ndarray:
    """Causal FIR from rest, truncated to the input length."""
    return np.convolve(x, np.asarray(taps, dtype=np.complex128))[: len(x)]
