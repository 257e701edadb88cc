"""The benchmark's three workloads, built on ddckit's public API only.

Each workload is a seeded sequence of cycles; a cycle is a fixed mix of ops,
so every run (and every seed) has the same op composition and the seed only
changes the values.  The runner calls ``op.call()`` inside its timed region
and ``op.check(result, index)`` outside it.  Check outcomes:

- ``ok``: the result matches its independent oracle within the precision
  ddckit states for it;
- ``precision``: the result is right to 1e-6 but misses the precision ddckit
  states for it (counted in ``error_rate``);
- ``wrong``: the op raised, or its result misses the oracle grossly
  (counted in ``failed``; the run is then not correct).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

OK, PRECISION, WRONG = "ok", "precision", "wrong"
EPS = np.finfo(float).eps
TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    kind: str
    samples: int  # ADC samples pushed through (0 when the op has no stream)
    call: Callable[[], object]
    check: Callable[[object, int], str]


def _grade(err: float, stated: float, gross: float) -> str:
    if err <= stated:
        return OK
    return PRECISION if err <= gross else WRONG


class NoiseStudy:
    """``noise_gain_study`` over the ten AC-7 chains, ``seeds`` seeds per call,
    plus the chain's ``analytic_noise_gain``, as the CLI's ``simulate`` gets
    both through ``run_experiment``.

    Streams of 2^19 samples (8 MiB as complex128, several times the per-core
    L2) make the op bound by per-sample work in synthesize, filter_stream and
    mix_down.  The oracle is a t-test of each chain's pooled Monte-Carlo gain
    against the analytic gain, with its critical value chosen so a correct
    program fails a run less than once in 1e4.
    """

    name = "noise_study"
    run_alpha = 1e-4

    def __init__(self, dk, seed: int, tiny: bool) -> None:
        self.dk = dk
        self.seed = seed
        self.count = 1 << (13 if tiny else 19)
        self.seeds = 2 if tiny else 4
        self.chains = _noise_chains(dk)
        self.begin_pass()

    def begin_pass(self) -> None:
        self.digest = hashlib.sha256()
        self.results: dict[str, list[tuple[int, float, float, float]]] = {}

    def cycle(self, c: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, c])
        ops = []
        for i, (name, chain) in enumerate(self.chains):
            re, im = rng.normal(size=2)
            spec = self.dk.SignalSpec(
                self.dk.ConstantEnvelope(complex(re, im)),
                noise_sigma=float(rng.uniform(0.5, 2.0)),
            )
            first = ((self.seed * 1000 + c) * len(self.chains) + i) * self.seeds
            seeds = list(range(first, first + self.seeds))

            def call(spec=spec, chain=chain, seeds=seeds):
                report = self.dk.noise_gain_study(spec, chain, self.count, seeds)
                return report, self.dk.analytic_noise_gain(chain)

            def check(result, index, name=name, digest=c == 0):
                return self._check(name, *result, index, digest)

            ops.append(Op(name, (self.seeds + 1) * self.count, call, check))
        return ops

    def _check(self, name: str, report, predicted: float, index: int, digest: bool) -> str:
        value, stderr = float(report.value), float(report.stderr)
        if not all(math.isfinite(v) for v in (value, stderr, predicted)) or stderr <= 0:
            return WRONG
        if digest:
            self.digest.update(np.array([value, stderr]).tobytes())
        self.results.setdefault(name, []).append((index, value, stderr, predicted))
        return OK

    def end_pass(self) -> tuple[dict[int, str], dict]:
        """Pool each chain's ops: the grand mean over k ops of ``seeds`` seeds
        has standard error sqrt(mean(stderr^2)/k) with k*(seeds-1) degrees of
        freedom.  The analytic gain is deterministic, so its ops must agree."""
        overrides: dict[int, str] = {}
        z_scores = {}
        alpha = self.run_alpha / len(self.chains)
        for name, _ in self.chains:
            rows = self.results.get(name, [])
            if len(rows) < 2:
                continue
            values = np.array([r[1] for r in rows])
            stderr = math.sqrt(np.mean(np.array([r[2] for r in rows]) ** 2) / len(rows))
            predicted = {r[3] for r in rows}
            z = (float(np.mean(values)) - rows[0][3]) / stderr
            bound = oracles.t_critical(len(rows) * (self.seeds - 1), alpha)
            z_scores[name] = {"z": round(z, 3), "bound": round(bound, 3), "ops": len(rows)}
            if abs(z) > bound or len(predicted) > 1:
                overrides.update({r[0]: WRONG for r in rows})
        return overrides, {"z_vs_analytic": z_scores}


def _noise_chains(dk):
    c733 = dk.CarrierConfig(7, 33, 1.0)
    c314 = dk.CarrierConfig(3, 14, 1.0)
    c14 = dk.CarrierConfig(1, 4, 1.0)
    lp = 0.01 * TWO_PI
    low = dk.ChainOrder.DECIMATE_THEN_FILTER
    return [
        ("ma11", dk.DdcChain(c733, dk.make_ma(11))),
        ("ma14", dk.DdcChain(c314, dk.make_ma(14))),
        ("2sr-7/33", dk.DdcChain(c733, dk.make_2sr(c733))),
        ("2sr-1/4", dk.DdcChain(c14, dk.make_2sr(c14))),
        ("2sr+dcr", dk.DdcChain(c733, dk.convolve(dk.make_2sr(c733), dk.make_dcr(c733)))),
        ("ma14+lp", dk.make_chain(c314, dk.make_ma(14), lp_bandwidth=lp, decimation=14)),
        (
            "ma14+lp-lowrate",
            dk.make_chain(c314, dk.make_ma(14), lp_bandwidth=lp, decimation=14, order=low),
        ),
        ("2sr+lp", dk.make_chain(c733, dk.make_2sr(c733), lp_bandwidth=lp, decimation=2)),
        (
            "2sr+lp-lowrate",
            dk.make_chain(c733, dk.make_2sr(c733), lp_bandwidth=lp, decimation=2, order=low),
        ),
        (
            "hp+2sr",
            dk.DdcChain(c733, dk.make_2sr(c733), pre_mixer=dk.make_dc_reject_passband(15 / 16)),
        ),
    ]


@dataclass(frozen=True)
class _Reference:
    """What the control check needs to filter a block without ddckit."""

    periods: int
    samples: int
    taps: np.ndarray
    decimation: int = 1
    lp_pole: float | None = None
    hp_pole: float | None = None

    @property
    def step(self) -> float:
        return TWO_PI * self.periods / self.samples

    def envelope_gain(self) -> complex:
        """The pre-mixer high-pass scales the carrier's envelope by its
        passband response at the carrier frequency."""
        if self.hp_pole is None:
            return 1.0
        w = complex(math.cos(self.step), -math.sin(self.step))
        return (1.0 - w) / (1.0 - self.hp_pole * w)

    def settled_output(self) -> int:
        """First output index past every stage's 1e-12 settling horizon."""
        settle = len(self.taps) - 1
        for pole in (self.hp_pole, self.lp_pole):
            if pole is not None:
                settle += 1 + math.ceil(math.log(1e-12) / math.log(abs(pole)))
        return math.ceil(settle / self.decimation)

    def filter(self, y: np.ndarray, start: int) -> np.ndarray:
        x = y.astype(np.complex128)
        if self.hp_pole is not None:
            x = oracles.recursion(oracles.fir(x, [1.0, -1.0]), self.hp_pole)
        k = (start + np.arange(len(y))) % self.samples
        z = oracles.fir(2.0 * x * np.exp(-1j * self.step * k), self.taps)
        if self.lp_pole is not None:
            z = oracles.recursion((1.0 - self.lp_pole) * z, self.lp_pole)
        return z[:: self.decimation]


def _two_sample_taps(periods: int, samples: int) -> np.ndarray:
    step = TWO_PI * periods / samples
    b0 = complex(math.cos(step), math.sin(step)) / (2j * math.sin(step))
    return np.array([b0, -complex(math.cos(2 * step), -math.sin(2 * step)) * b0])


class Control:
    """A closed-loop controller handing consecutive short blocks to ``run``.

    Blocks fit in cache, so each call's fixed cost dominates: validation,
    state construction, the mixer table, transient_length and
    group_delay_seconds.  Every block is checked against an np.convolve plus
    explicit-recursion reference, and its post-transient envelope against the
    known per-block trajectory.
    """

    name = "control"
    # One block of each length per cycle, in whole carrier periods and past
    # each chain's transient.  The spread of block costs keeps the median from
    # snapping between the machine's fast and slow periods.
    blocks = (
        ("ess", (140, 280, 420, 700, 980, 1400, 2100)),
        ("lcls2", (165, 330, 660, 1320)),
        ("lcls2+lp", (4290, 6270)),
        ("hp+lcls2", (462, 924, 1848)),
    )
    noise_sigma = 0.01
    stream_rtol = 1e-12
    envelope_atol = 1e-9

    def __init__(self, dk, seed: int, tiny: bool) -> None:
        self.dk = dk
        self.seed = seed
        ess, lcls2 = dk.get_preset("ess"), dk.get_preset("lcls2")
        ce, cl = ess.carrier, lcls2.carrier
        lp_bw = TWO_PI * lcls2.lp_bandwidth_hz
        envelope = dk.parse_filter_spec(ess.filter_spec, ce)[0]
        two_sr = dk.parse_filter_spec(lcls2.filter_spec, cl)[0]
        self.chains = {
            "ess": dk.make_chain(ce, envelope, decimation=ess.decimation),
            "lcls2": dk.make_chain(cl, two_sr),
            "lcls2+lp": dk.make_chain(cl, two_sr, lp_bandwidth=lp_bw),
            "hp+lcls2": dk.make_chain(cl, two_sr, pre_mixer=dk.make_dc_reject_passband(15 / 16)),
        }
        sr = _two_sample_taps(cl.periods, cl.samples)
        self.refs = {
            "ess": _Reference(ce.periods, ce.samples, np.full(14, 1 / 14), decimation=14),
            "lcls2": _Reference(cl.periods, cl.samples, sr),
            "lcls2+lp": _Reference(
                cl.periods, cl.samples, sr, lp_pole=math.exp(-lp_bw * cl.sample_period)
            ),
            "hp+lcls2": _Reference(cl.periods, cl.samples, sr, hp_pole=15 / 16),
        }
        self.fir_chains = {"ess", "lcls2"}
        self.begin_pass()

    def begin_pass(self) -> None:
        self.digest = hashlib.sha256()
        self.worst = {"stream_rel": 0.0, "envelope_abs": 0.0}

    def cycle(self, c: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, c])
        ops = []
        for name, lengths in self.blocks:
            ref = self.refs[name]
            start = c * sum(lengths)
            for length in lengths:
                envelope = complex(*rng.normal(size=2))
                k = start + np.arange(length)
                phasor = np.exp(1j * ref.step * (k % ref.samples))
                noise = self.noise_sigma * rng.standard_normal(length)
                y = (envelope * phasor).real + noise

                def call(name=name, y=y, start=start):
                    return self.dk.run(self.chains[name], self.dk.RealSeq(y, start=start))

                def check(out, index, name=name, y=y, noise=noise, start=start,
                          envelope=envelope, digest=c == 0):
                    return self._check(name, out, y, noise, start, envelope, digest)

                ops.append(Op(name, length, call, check))
                start += length
        return ops

    def _check(self, name, out, y, noise, start, envelope, digest) -> str:
        ref = self.refs[name]
        got = out.seq.values
        expected = ref.filter(y, start)
        if len(got) != len(expected):
            return WRONG
        if digest and name in self.fir_chains:
            self.digest.update(got.tobytes())
        scale = max(1.0, float(np.max(np.abs(expected))))
        stream_rel = float(np.max(np.abs(got - expected))) / scale
        j0 = ref.settled_output()
        signal = got[j0:] - ref.filter(noise, start)[j0:]
        envelope_abs = float(np.max(np.abs(signal - envelope * ref.envelope_gain())))
        self.worst["stream_rel"] = max(self.worst["stream_rel"], stream_rel)
        self.worst["envelope_abs"] = max(self.worst["envelope_abs"], envelope_abs)
        if stream_rel > self.stream_rtol or envelope_abs > self.envelope_atol:
            return WRONG
        return OK

    def end_pass(self) -> tuple[dict[int, str], dict]:
        return {}, {"worst": self.worst}


# Carriers the design queries draw from: (periods, samples, sample rate in Hz).
_CARRIERS = ((7, 33, 94.29e6), (3, 14, 117.40e6), (5, 21, 10e6), (1, 4, 1e6))


class Design:
    """The queries behind the CLI's norm, tune, compare-order and
    freq-response, issued through the public API on small arrays.

    Each query parses its filter spec and then runs one analysis call; the
    pair is one timed op.  Cycles repeat a pool of ``pool`` seeded mixes so
    that each distinct query's 50-digit reference is computed once.
    """

    name = "design"
    pool = 4
    # The two-pole norms stay at bandwidth x period 1e-4 and 1e-5, where the
    # impulse sum misses its reported tail bound.
    two_pole_decades = (1e-2, 1e-2, 1e-3, 1e-3, 1e-4, 1e-5)
    decades = (1e-2, 1e-3, 1e-4, 1e-5)
    grid_points = 4096

    def __init__(self, dk, seed: int, tiny: bool) -> None:
        self.dk = dk
        self.seed = seed
        self._cycles: dict[int, list[Op]] = {}
        self._refs: dict[tuple[int, int], float] = {}
        self.begin_pass()

    def begin_pass(self) -> None:
        self.misses: dict[str, int] = {}
        self.digest = None

    def end_pass(self) -> tuple[dict[int, str], dict]:
        return {}, {"precision_misses_by_kind": dict(sorted(self.misses.items()))}

    def cycle(self, c: int) -> list[Op]:
        key = c % self.pool
        if key not in self._cycles:
            self._cycles[key] = self._build(key)
        return self._cycles[key]

    def _build(self, key: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, key])
        ops: list[Op] = []

        def carrier():
            periods, samples, rate = _CARRIERS[rng.integers(len(_CARRIERS))]
            return self.dk.CarrierConfig(periods, samples, rate)

        def envelope_spec(car):
            return ("ma:%d" % car.samples, "2sr", "2sr+dcr")[rng.integers(3)]

        def lp(bw_period):
            # lp:X is the bandwidth over the sample rate.
            return "lp:%.6g" % (bw_period * rng.uniform(1.0, 2.0) / TWO_PI)

        def add(kind, spec, car, query, grade, label=None):
            # ``label`` names finer classes (the two-pole decades) for the
            # precision-miss count.
            ref_key = (key, len(ops))

            def call():
                stages = self.dk.parse_filter_spec(spec, car)
                return stages, query(stages)

            def check(result, index):
                stages, value = result
                status = grade(stages, value, ref_key)
                if status == PRECISION:
                    name = label or kind
                    self.misses[name] = self.misses.get(name, 0) + 1
                return status

            ops.append(Op(kind, 0, call, check))

        def norm(stages):
            # Looked up at call time, so that a traced run sees the wrapper.
            return self.dk.h2_norm_sq(stages)

        for _ in range(20):
            car = carrier()
            add("h2.fir", envelope_spec(car), car, norm, self._grade_norm)
        for decade in self.decades:
            for _ in range(4):
                car = carrier()
                spec = envelope_spec(car) + "+" + lp(decade)
                add("h2.one-pole", spec, car, norm, self._grade_norm)
        for i, decade in enumerate(self.two_pole_decades):
            car = carrier()
            if i % 2:
                spec = "hp:0.9375+%s+%s" % (envelope_spec(car), lp(decade))
            else:
                spec = "2sr+%s+%s" % (lp(decade), lp(2.5 * decade))
            label = "h2.two-pole.%.0e" % decade
            add("h2.two-pole", spec, car, norm, self._grade_norm, label)
        for rel in np.geomspace(1e-3, 1e-1, 16):
            car = carrier()
            rel *= rng.uniform(0.9, 1.1)
            factor = car.samples

            def multirate(stages, rel=rel, factor=factor):
                low = self.dk.make_lp(rel * TWO_PI * factor, 1.0)
                return low, factor, self.dk.multirate_norm_sq(stages, low, factor)

            add("multirate", "ma:%d" % factor, car, multirate, self._grade_multirate)
        for i in range(6):
            car = carrier()
            if i < 4:
                kind, spec = "tune.fir", envelope_spec(car)
            else:
                kind = "tune.two-pole"
                spec = ("hp:0.9375+2sr", "2sr+" + lp(1e-2))[i % 2]
            stages = self.dk.parse_filter_spec(spec, car)
            target_db = 10 * math.log10(_rough_energy(stages)) - rng.uniform(3, 15)

            def tune(stages, target_db=target_db, period=car.sample_period):
                return target_db, period, self.dk.tune_lp_bandwidth(stages, target_db, period)

            add(kind, spec, car, tune, self._grade_tune)
        for _ in range(16):
            car = carrier()
            spec = envelope_spec(car)
            if rng.random() < 0.5:
                # Low-pass bandwidths from the lcls2 preset's 50-200 kHz range.
                spec += "+lp:%.6g" % (rng.uniform(50e3, 200e3) / car.sample_rate)

            def phase(stages, period=car.sample_period):
                return period, self.dk.phase_metrics(stages, 0.0, period)

            add("phase_metrics", spec, car, phase, self._grade_phase)
        for _ in range(16):
            car = carrier()
            spec = envelope_spec(car)
            if rng.random() < 0.25:
                spec = "hp:0.9375+" + spec
            if rng.random() < 0.5:
                spec += "+" + lp(10 ** rng.uniform(-3, -1))

            def response(stages):
                grid = self.dk.FreqGrid.regular(self.grid_points)
                return grid, self.dk.freq_response(stages, grid)

            add("freq_response", spec, car, response, self._grade_response)
        return ops

    def _reference(self, ref_key, compute) -> float:
        if ref_key not in self._refs:
            self._refs[ref_key] = compute()
        return self._refs[ref_key]

    @staticmethod
    def _stated(report, ref: float) -> float:
        """Closed forms are exact up to float64 rounding (1e-12 relative);
        an impulse sum states its truncation bound."""
        if report.method == "impulse-sum":
            return report.tail_bound + 4 * EPS * ref
        return 1e-12 * ref

    def _grade_norm(self, stages, report, ref_key) -> str:
        ref = self._reference(ref_key, lambda: oracles.cascade_energy(stages))
        return _grade(abs(report.value - ref), self._stated(report, ref), 1e-6 * ref)

    def _grade_multirate(self, stages, result, ref_key) -> str:
        low, factor, report = result
        ref = self._reference(ref_key, lambda: oracles.multirate_energy(stages, low, factor))
        return _grade(abs(report.value - ref), self._stated(report, ref), 1e-6 * ref)

    def _grade_tune(self, stages, result, ref_key) -> str:
        target_db, period, bandwidth = result
        a = math.exp(-bandwidth * period)
        lowpass = _Stage(np.array([1.0 - a]), a)
        achieved = oracles.cascade_energy(list(stages) + [lowpass])
        err = abs(achieved / 10 ** (target_db / 10) - 1)
        return _grade(err, 1e-6, 1e-3)

    def _grade_phase(self, stages, result, ref_key) -> str:
        period, metrics = result
        delay = oracles.group_delay_samples(stages, 0.0) * period
        dc = complex(np.prod(oracles.response(stages, np.zeros(1))))
        delay_err = abs(metrics.group_delay - delay) / max(abs(delay), period)
        phase_err = abs(metrics.phase - math.atan2(dc.imag, dc.real))
        return OK if delay_err <= 1e-6 and phase_err <= 1e-12 else WRONG

    def _grade_response(self, stages, result, ref_key) -> str:
        grid, resp = result
        expected = oracles.response(stages, grid.thetas)
        scale = max(1.0, float(np.max(np.abs(expected))))
        return OK if float(np.max(np.abs(resp - expected))) <= 1e-12 * scale else WRONG


def _rough_energy(stages, length: int = 1 << 14) -> float:
    """Impulse energy of a cascade, truncated, in plain numpy: enough to pick
    an achievable tuning target without loading the 50-digit oracle code."""
    h = np.zeros(length, dtype=np.complex128)
    h[0] = 1.0
    for s in stages:
        h = oracles.fir(h, s.taps)
        if s.pole is not None:
            h = oracles.recursion(h, s.pole)
    return float(np.sum(np.abs(h) ** 2))


@dataclass(frozen=True)
class _Stage:
    taps: np.ndarray
    pole: float | None = None


WORKLOADS = {w.name: w for w in (NoiseStudy, Control, Design)}
