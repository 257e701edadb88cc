"""Command-line front end: frequency-response and norm tables as CSV,
low-pass tuning, filtering/decimation ordering sweeps, and simulation runs.

Exit codes: 0 on success, 1 on numeric/domain errors (e.g. an unachievable
tuning target), 2 on usage errors (bad flags, malformed specs).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from typing import Sequence

import numpy as np

from .analysis import (
    FreqGrid,
    freq_response,
    h2_norm_sq,
    multirate_norm_sq,
    tune_lp_bandwidth,
)
from .core import CarrierConfig, ComplexFilter, DdcError, UsageError
from .filters import convolve, make_dc_reject_passband, make_dcr, make_lp
from .pipeline import ChainOrder, DdcChain, make_chain, run
from .presets import (
    BUILTIN_PRESETS,
    Preset,
    get_preset,
    load_preset_file,
    parse_complex,
    parse_filter_spec,
    parse_ratio,
)
from .simulate import (
    ConstantEnvelope,
    PhaseRampEnvelope,
    SignalSpec,
    StepEnvelope,
    _check_experiment_length,
    analytic_noise_gain,
    noise_gain_study,
    run_experiment,
    synthesize,
)

_TWO_PI = 2.0 * math.pi


def _int_flag(text: str) -> int:
    """Integer flag value, allowing scientific notation like 1e6."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(value)


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_csv(path: str | None, header: Sequence[str], rows) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".10g") if isinstance(v, float) else v for v in row])


def _carrier_from(args) -> CarrierConfig | None:
    if getattr(args, "carrier", None) is None:
        if getattr(args, "fs", None) is not None:
            raise UsageError("--fs needs --carrier M/N")
        return None
    periods, samples = parse_ratio(args.carrier)
    return CarrierConfig(periods, samples, args.fs if args.fs else 1.0)


def _stages_from(args) -> tuple[list[ComplexFilter], CarrierConfig | None]:
    carrier = _carrier_from(args)
    return parse_filter_spec(args.filter, carrier), carrier


def _mag_db(resp: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(np.abs(resp), 1e-300))


def cmd_freq_response(args) -> int:
    stages, carrier = _stages_from(args)
    rate = carrier.sample_rate if carrier is not None and args.fs else None
    grid = FreqGrid.regular(args.points, rate)
    resp = freq_response(stages, grid)
    mag_db = _mag_db(resp)
    phase_deg = np.degrees(np.unwrap(np.angle(resp)))
    if rate is not None:
        header = ["theta_rad", "freq_hz", "mag_db", "phase_deg"]
        columns = [grid.thetas, grid.freq_hz, mag_db, phase_deg]
    else:
        header = ["theta_rad", "mag_db", "phase_deg"]
        columns = [grid.thetas, mag_db, phase_deg]
    _write_csv(args.out, header, (tuple(float(c[i]) for c in columns) for i in range(len(grid))))
    return 0


def cmd_norm(args) -> int:
    stages, carrier = _stages_from(args)
    period = carrier.sample_period if carrier is not None else 1.0
    if args.lp is not None and args.lp_after_decimation:
        lowrate = make_lp(args.lp * _TWO_PI / period, period * args.decimate)
        report = multirate_norm_sq(stages, lowrate, args.decimate)
    else:
        if args.lp is not None:
            stages = stages + [make_lp(args.lp * _TWO_PI / period, period)]
        report = h2_norm_sq(stages)
    print(f"{report.value:.6g} ({report.value_db:.2f} dB) [{report.method}]")
    return 0


def cmd_tune(args) -> int:
    stages, carrier = _stages_from(args)
    have_rate = carrier is not None and args.fs
    period = carrier.sample_period if have_rate else 1.0
    bandwidth = tune_lp_bandwidth(stages, args.target_db, period)
    achieved = h2_norm_sq(stages + [make_lp(bandwidth, period)])
    print(f"omega_lp_over_omega_s = {bandwidth * period / _TWO_PI:.6g}")
    if have_rate:
        print(f"omega_lp_rad_s = {bandwidth:.6g}")
        print(f"bandwidth_hz = {bandwidth / _TWO_PI:.6g}")
    print(f"achieved_db = {achieved.value_db:.4f}")
    return 0


def cmd_compare_order(args) -> int:
    stages, carrier = _stages_from(args)
    if carrier is None:
        raise UsageError("compare-order needs --carrier M/N")
    if any(stage.pole is not None for stage in stages):
        raise UsageError("compare-order sweeps the low-pass itself; "
                         "--filter must be the FIR envelope filter only")
    factor = args.decimate
    sweep = np.geomspace(args.sweep_min, args.sweep_max, args.sweep_points)

    def rows():
        for rel in sweep:
            full = make_lp(rel * _TWO_PI, 1.0)
            low = make_lp(rel * _TWO_PI * factor, 1.0)
            ref = h2_norm_sq([full]).value
            after = h2_norm_sq(stages + [full]).value / ref
            before = multirate_norm_sq(stages, low, factor).value / ref
            yield (
                float(rel),
                10.0 * math.log10(after),
                10.0 * math.log10(before),
            )

    _write_csv(
        args.out,
        ["omega_lp_over_omega_s", "rejection_after_db", "rejection_before_db"],
        rows(),
    )
    return 0


def _parse_envelope(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "const":
            return ConstantEnvelope(parse_complex(rest))
        if kind == "step":
            before, after, index = rest.split(":")
            return StepEnvelope(
                parse_complex(before), parse_complex(after), int(index)
            )
        if kind == "ramp":
            amplitude, rate = rest.split(":")
            return PhaseRampEnvelope(parse_complex(amplitude), float(rate))
    except (ValueError, UsageError):
        raise UsageError(f"bad envelope spec {text!r}") from None
    raise UsageError(
        f"unknown envelope {text!r}; expected const:B, step:B1:B2:K, or ramp:A:RATE"
    )


def _parse_harmonic(text: str) -> tuple[int, complex]:
    order, sep, amp = text.partition(":")
    if not sep:
        raise UsageError(f"bad harmonic {text!r}; expected ORDER:AMPLITUDE")
    try:
        return int(order), parse_complex(amp)
    except ValueError:
        raise UsageError(f"bad harmonic {text!r}") from None


def _simulation_setup(args) -> tuple[CarrierConfig, DdcChain]:
    if args.preset_file is not None:
        preset = load_preset_file(args.preset_file)
    elif args.preset is not None:
        preset = get_preset(args.preset)
    else:
        preset = None

    if preset is not None:
        carrier = preset.carrier
        filter_spec = args.filter or preset.filter_spec
        decimation = args.decimate if args.decimate is not None else preset.decimation
        order = preset.order
        default_lp_hz = preset.lp_bandwidth_hz
    else:
        carrier = _carrier_from(args)
        if carrier is None or args.filter is None:
            raise UsageError("simulate needs --preset/--preset-file or --carrier and --filter")
        filter_spec = args.filter
        decimation = args.decimate if args.decimate is not None else 1
        order = ChainOrder.FILTER_THEN_DECIMATE
        default_lp_hz = None
    if args.order is not None:
        order = ChainOrder(args.order)

    stages = parse_filter_spec(filter_spec, carrier)
    if args.dcr:
        stages = stages + [make_dcr(carrier)]
    if any(stage.pole is not None for stage in stages):
        raise UsageError(
            "simulate's DDC stage must be FIR; use --lp for extra low-pass "
            "filtering and --pre-mixer-hp for the passband DC reject"
        )
    ddc = stages[0]
    for stage in stages[1:]:
        ddc = convolve(ddc, stage)

    lp_bandwidth = None
    if args.lp is not None:
        if args.lp == "default":
            lp_hz = default_lp_hz
            if lp_hz is None:
                raise UsageError("--lp with no value needs a preset that has one")
        else:
            try:
                lp_hz = float(args.lp)
            except ValueError:
                raise UsageError(f"bad --lp value {args.lp!r}") from None
        lp_bandwidth = lp_hz * _TWO_PI

    pre = None
    if args.pre_mixer_hp is not None:
        pre = make_dc_reject_passband(args.pre_mixer_hp)
    chain = make_chain(
        carrier,
        ddc,
        lp_bandwidth=lp_bandwidth,
        pre_mixer=pre,
        decimation=decimation,
        order=order,
    )
    return carrier, chain


def cmd_simulate(args) -> int:
    carrier, chain = _simulation_setup(args)
    spec = SignalSpec(
        envelope=_parse_envelope(args.envelope),
        noise_sigma=args.noise,
        dc_offset=args.dc_offset,
        harmonics=tuple(_parse_harmonic(h) for h in args.harmonic),
        seed=args.seed,
    )

    if args.seeds > 1:
        _check_experiment_length(chain, args.samples)
        study = noise_gain_study(
            spec, chain, args.samples, [args.seed + i for i in range(args.seeds)]
        )
        analytic = analytic_noise_gain(chain)
        sigma_off = abs(study.value - analytic) / study.stderr if study.stderr else 0.0
        print(f"noise_gain_empirical = {study.value:.6g} +- {study.stderr:.2g}")
        print(f"noise_gain_analytic = {analytic:.6g}")
        print(f"difference_in_stderr = {sigma_off:.2f}")
        return 0

    report = run_experiment(spec, chain, args.samples)
    print(f"rms_envelope_error = {report.rms_envelope_error:.6g}")
    print(f"spur_level_db = {report.spur_level_db:.4g}")
    if report.noise_gain_empirical is not None:
        print(f"noise_gain_empirical = {report.noise_gain_empirical:.6g}")
        print(f"noise_gain_stderr = {report.noise_gain_stderr:.2g}")
    print(f"noise_gain_analytic = {report.noise_gain_analytic:.6g}")
    print(f"settling_samples = {report.settling_samples}")
    print(f"output_samples = {report.output_samples}")

    if args.out is not None:
        out = run(chain, synthesize(spec, carrier, args.samples))
        rows = (
            (j, float(v.real), float(v.imag), float(abs(v)))
            for j, v in enumerate(out.seq.values)
        )
        _write_csv(args.out, ["index", "real", "imag", "abs"], rows)
    return 0


def _preset_lines(preset: Preset) -> list[str]:
    carrier = preset.carrier
    return [
        f"name = {preset.name}",
        f"ratio = {carrier.periods}/{carrier.samples}",
        f"sample_rate_hz = {carrier.sample_rate:.10g}",
        f"carrier_freq_hz = {carrier.carrier_freq:.10g}",
        f"phase_step_rad = {carrier.phase_step:.10g}",
        f"filter = {preset.filter_spec}",
        f"lp_bandwidth_hz = "
        + ("none" if preset.lp_bandwidth_hz is None else f"{preset.lp_bandwidth_hz:.10g}"),
        f"decimation = {preset.decimation}",
        f"order = {preset.order.value}",
        f"note = {preset.note}",
    ]


def cmd_preset(args) -> int:
    if args.action == "list":
        for name in sorted(BUILTIN_PRESETS):
            print(f"{name}: {BUILTIN_PRESETS[name].note}")
        return 0
    preset = load_preset_file(args.file) if args.file else get_preset(args.name)
    for line in _preset_lines(preset):
        print(line)
    return 0


def _add_carrier_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--carrier", metavar="M/N", help="carrier ratio, e.g. 7/33")
    parser.add_argument("--fs", type=float, help="sample rate in Hz")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddckit",
        description="Low-latency digital downconversion analysis and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("freq-response", help="cascade frequency response as CSV")
    p.add_argument("--filter", required=True, help="filter spec, e.g. ma:11 or 2sr+dcr")
    _add_carrier_options(p)
    p.add_argument("--points", type=_int_flag, default=4096, help="grid size over (-pi, pi]")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_freq_response)

    p = sub.add_parser("norm", help="squared H2 norm of a filter cascade")
    p.add_argument("--filter", required=True)
    _add_carrier_options(p)
    p.add_argument("--lp", type=float, help="extra low-pass bandwidth as omega/omega_s")
    p.add_argument("--decimate", type=_int_flag, default=1)
    p.add_argument(
        "--lp-after-decimation",
        action="store_true",
        help="run the extra low-pass at the decimated rate (multirate norm)",
    )
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("tune", help="find the low-pass bandwidth for a noise target")
    p.add_argument("--filter", required=True)
    _add_carrier_options(p)
    p.add_argument("--target-db", type=float, required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "compare-order",
        help="noise rejection with decimation before vs after the low-pass",
    )
    p.add_argument("--filter", required=True)
    _add_carrier_options(p)
    p.add_argument("--decimate", type=_int_flag, required=True)
    p.add_argument("--sweep-points", type=_int_flag, default=25)
    p.add_argument("--sweep-min", type=float, default=1e-4)
    p.add_argument("--sweep-max", type=float, default=1e-1)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_compare_order)

    p = sub.add_parser("simulate", help="run a synthetic stream through a chain")
    p.add_argument("--preset", help="built-in preset name")
    p.add_argument("--preset-file", help="user preset file (key = value lines)")
    p.add_argument("--filter", help="override the preset's DDC filter spec")
    _add_carrier_options(p)
    p.add_argument("--envelope", default="const:1", help="const:B | step:B1:B2:K | ramp:A:RATE")
    p.add_argument("--noise", type=float, default=0.0, help="ADC noise sigma per sample")
    p.add_argument("--dc-offset", type=float, default=0.0)
    p.add_argument(
        "--harmonic",
        action="append",
        default=[],
        metavar="ORDER:AMPLITUDE",
        help="add a carrier harmonic (repeatable)",
    )
    p.add_argument("--dcr", action="store_true", help="cascade the DC-spur reject filter")
    p.add_argument(
        "--pre-mixer-hp",
        type=float,
        metavar="POLE",
        help="passband DC-reject high-pass before the mixer",
    )
    p.add_argument(
        "--lp",
        nargs="?",
        const="default",
        help="enable the extra low-pass (bandwidth in Hz; preset default if omitted)",
    )
    p.add_argument("--decimate", type=_int_flag, help="override preset decimation")
    p.add_argument(
        "--order",
        choices=[order.value for order in ChainOrder],
        help="low-pass/decimation ordering",
    )
    p.add_argument("--samples", type=_int_flag, default=100_000)
    p.add_argument("--seed", type=_int_flag, default=0)
    p.add_argument("--seeds", type=_int_flag, default=1, help="Monte-Carlo seeds for a noise study")
    p.add_argument("--out", help="write the output trace as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("preset", help="list or show machine presets")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="preset name for 'show'")
    p.add_argument("--file", help="show a preset loaded from a file")
    p.set_defaults(func=cmd_preset)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "preset" and args.action == "show" and not (args.name or args.file):
        print("error: preset show needs a name or --file", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
