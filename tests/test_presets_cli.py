"""Presets, the filter-spec grammar, and the command-line front end."""

import argparse
import csv
import importlib.util
import inspect
import io
import math
import pathlib
import re

import numpy as np
import pytest

import ddckit as dk
from ddckit.cli import build_parser, main
from ddckit.presets import parse_complex, parse_filter_spec, parse_ratio


# ----------------------------------------------------------------- presets

def test_builtin_presets_match_machine_parameters():
    lcls2 = dk.get_preset("lcls2")
    assert (lcls2.carrier.periods, lcls2.carrier.samples) == (7, 33)
    assert lcls2.carrier.sample_rate == pytest.approx(94.29e6)
    assert lcls2.carrier.carrier_freq == pytest.approx(20e6, rel=1e-4)
    assert lcls2.filter_spec == "2sr"
    assert 50e3 <= lcls2.lp_bandwidth_hz <= 200e3

    ess = dk.get_preset("ess")
    assert (ess.carrier.periods, ess.carrier.samples) == (3, 14)
    assert ess.carrier.sample_rate == pytest.approx(117.40e6)
    assert ess.carrier.carrier_freq == pytest.approx(25.16e6, rel=1e-3)
    assert ess.filter_spec == "ma:14"
    assert ess.decimation == 14


def test_unknown_preset():
    with pytest.raises(dk.UsageError, match="unknown preset"):
        dk.get_preset("slac")


def test_preset_file_roundtrip(tmp_path):
    path = tmp_path / "machine.cfg"
    path.write_text(
        "# my machine\n"
        "name = rig\n"
        "ratio = 5/21\n"
        "sample_rate = 10e6\n"
        "filter = ma:21\n"
        "lp_bandwidth_hz = 5e3\n"
        "decimation = 21\n"
        "order = decimate-then-filter\n"
    )
    preset = dk.load_preset_file(str(path))
    assert preset.name == "rig"
    assert (preset.carrier.periods, preset.carrier.samples) == (5, 21)
    assert preset.lp_bandwidth_hz == pytest.approx(5e3)
    assert preset.order is dk.ChainOrder.DECIMATE_THEN_FILTER


@pytest.mark.parametrize(
    "content,match",
    [
        ("ratio = 5/21\nfilter = ma:21\n", "sample_rate"),
        ("ratio = x\nsample_rate = 1e6\nfilter = ma:4\n", "ratio"),
        ("ratio = 1/4\nsample_rate = 1e6\nfilter = ma:4\nspin = 1\n", "unknown"),
        ("ratio = 1/4\nsample_rate = 1e6\nfilter = nope\n", "nope"),
        ("ratio 1/4\n", "key = value"),
    ],
)
def test_preset_file_errors(tmp_path, content, match):
    path = tmp_path / "bad.cfg"
    path.write_text(content)
    with pytest.raises(dk.UsageError, match=match):
        dk.load_preset_file(str(path))


@pytest.mark.parametrize(
    "line",
    [
        "decimation = 0",
        "decimation = -3",
        "decimation = x",
        "lp_bandwidth_hz = nan",
        "lp_bandwidth_hz = inf",
        "lp_bandwidth_hz = -5",
        "lp_bandwidth_hz = 0",
        "lp_bandwidth_hz = x",
        "sample_rate = nan",
        "sample_rate = -1e6",
        "ratio = x",
        "ratio = 2/4",
        "ratio = 0/4",
        "order = sideways",
    ],
)
def test_preset_file_refuses_a_bad_decimation_or_low_pass_naming_the_file(
    tmp_path, capsys, line
):
    path = tmp_path / "bad.cfg"
    path.write_text(f"ratio = 1/4\nsample_rate = 1e6\nfilter = ma:4\n{line}\n")
    key = line.split(" = ")[0]
    with pytest.raises(dk.UsageError, match=f"^{re.escape(str(path))}: bad {key} "):
        dk.load_preset_file(str(path))
    assert main(["preset", "show", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{path}: bad {key}" in captured.err


@pytest.mark.parametrize("content", [None, b"ratio = 1/4\xff\n"], ids=["missing", "not-utf8"])
def test_an_unreadable_preset_file_is_refused_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "unreadable.cfg"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(dk.UsageError, match="cannot read preset file"):
        dk.load_preset_file(str(path))
    assert main(["simulate", "--preset-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"cannot read preset file {str(path)!r}" in captured.err


# ----------------------------------------------------------- spec grammar

def test_parse_ratio_and_complex():
    assert parse_ratio("7/33") == (7, 33)
    with pytest.raises(dk.UsageError):
        parse_ratio("7:33")
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("0.5") == 0.5
    with pytest.raises(dk.UsageError):
        parse_complex("one")


def test_parse_filter_spec_tokens():
    carrier = dk.CarrierConfig(7, 33)
    stages = parse_filter_spec("2sr+dcr", carrier)
    assert len(stages) == 2 and len(stages[0].taps) == 2 and len(stages[1].taps) == 3
    (ma,) = parse_filter_spec("ma:11", None)
    assert len(ma.taps) == 11
    (lp,) = parse_filter_spec("lp:0.01", carrier)
    assert lp.pole == pytest.approx(math.exp(-0.01 * 2 * math.pi))
    (hp,) = parse_filter_spec("hp:0.9375", carrier)
    assert hp.domain is dk.Domain.BASEBAND
    assert abs(hp.response(-carrier.phase_step)) < 1e-13


def test_parse_filter_spec_errors_name_the_token():
    with pytest.raises(dk.UsageError, match="2sr"):
        parse_filter_spec("2sr", None)  # needs a carrier
    with pytest.raises(dk.UsageError, match="widget"):
        parse_filter_spec("ma:4+widget", dk.CarrierConfig(7, 33))
    with pytest.raises(dk.UsageError, match="ma:x"):
        parse_filter_spec("ma:x", None)


# ------------------------------------------------------------------ CLI

def _csv_rows(text):
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    return rows[0], rows[1:]


def test_cli_freq_response_rows(capsys):
    assert main(["freq-response", "--filter", "ma:11", "--points", "8"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == ["theta_rad", "mag_db", "phase_deg"]
    assert len(rows) == 8
    by_theta = {float(r[0]): r for r in rows}
    assert 0.0 in by_theta
    assert float(by_theta[0.0][1]) == pytest.approx(0.0, abs=1e-9)


def test_cli_freq_response_notch_on_matching_grid(capsys):
    # 3400 points puts a grid node exactly on the double-frequency notch.
    code = main(
        ["freq-response", "--filter", "2sr", "--carrier", "2/17",
         "--points", "3400"]
    )
    assert code == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert min(float(r[1]) for r in rows) < -200


def test_cli_freq_response_includes_hz_with_rate(capsys):
    assert (
        main(["freq-response", "--filter", "2sr", "--carrier", "7/33",
              "--fs", "94.29e6", "--points", "16"])
        == 0
    )
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header[1] == "freq_hz"
    assert float(rows[-1][1]) == pytest.approx(94.29e6 / 2, rel=1e-9)


def test_cli_freq_response_bad_token_exits_2(capsys):
    assert main(["freq-response", "--filter", "magic:3"]) == 2
    assert "magic:3" in capsys.readouterr().err


def test_cli_norm_moving_average(capsys):
    assert main(["norm", "--filter", "ma:11"]) == 0
    out = capsys.readouterr().out
    assert "0.0909091" in out
    assert "-10.41 dB" in out
    assert "closed-form" in out


def test_cli_norm_quarter_rate_reconstruction(capsys):
    assert main(["norm", "--filter", "2sr", "--carrier", "1/4"]) == 0
    assert capsys.readouterr().out.startswith("0.5 ")


def test_cli_norm_degenerate_lowpass_is_usage_error(capsys):
    assert main(["norm", "--filter", "ma:4", "--lp", "0"]) == 2
    assert "bandwidth" in capsys.readouterr().err


def test_cli_norm_multirate_matches_library(capsys):
    assert (
        main(["norm", "--filter", "ma:14", "--carrier", "3/14", "--lp", "0.01",
              "--decimate", "14", "--lp-after-decimation"])
        == 0
    )
    value = float(capsys.readouterr().out.split()[0])
    lowrate = dk.make_lp(0.01 * 2 * math.pi * 94.29e6, (1 / 94.29e6) * 14)
    expected = dk.multirate_norm_sq(dk.make_ma(14), lowrate, 14).value
    assert value == pytest.approx(expected, rel=1e-5)


def test_cli_norm_lp_after_decimation_needs_lp(capsys):
    args = ["norm", "--filter", "ma:14", "--carrier", "3/14", "--decimate", "14"]
    assert main(args + ["--lp-after-decimation"]) == 2
    assert "--lp" in capsys.readouterr().err
    # Decimating after the filters leaves the per-sample noise gain as it is.
    assert main(args) == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--decimate", "-4"],
        ["--decimate", "0"],
        ["--decimate", "0", "--lp", "0.01", "--lp-after-decimation"],
    ],
)
def test_cli_norm_refuses_a_decimation_below_one(capsys, flags):
    assert main(["norm", "--filter", "ma:14", "--carrier", "3/14"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--decimate" in captured.err


def test_cli_tune_middle_group(capsys):
    assert (
        main(["tune", "--filter", "2sr", "--carrier", "7/33",
              "--target-db", "-15.2"])
        == 0
    )
    out = capsys.readouterr().out
    rel = float(out.splitlines()[0].split("=")[1])
    assert rel == pytest.approx(0.01, rel=0.3)
    achieved = float(out.splitlines()[-1].split("=")[1])
    assert achieved == pytest.approx(-15.2, abs=1e-4)


def test_cli_tune_unachievable_exits_1(capsys):
    assert main(["tune", "--filter", "ma:11", "--target-db", "-5"]) == 1
    assert "achievable" in capsys.readouterr().err


def test_cli_compare_order_sweep(capsys):
    assert (
        main(["compare-order", "--filter", "ma:14", "--carrier", "3/14",
              "--decimate", "14", "--sweep-points", "7"])
        == 0
    )
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == [
        "omega_lp_over_omega_s",
        "rejection_after_db",
        "rejection_before_db",
    ]
    assert len(rows) == 7
    first = rows[0]
    assert float(first[0]) == pytest.approx(1e-4)
    # Orders agree at small bandwidths.
    assert abs(float(first[1]) - float(first[2])) < 0.5


@pytest.mark.parametrize(
    "flags",
    [
        ["--sweep-points", "-1"],
        ["--sweep-points", "0"],
        ["--sweep-min", "0"],
        ["--sweep-min", "nan"],
        ["--sweep-min", "5e-18"],  # rounds the full-rate low-pass pole to 1
        ["--sweep-max", "inf"],
        ["--sweep-max", "-0.01"],
        ["--decimate", "0"],
        # Poles that realize 1.77, 1.06 and 1.007 times the named bandwidth.
        ["--sweep-min", "1e-17"],
        ["--sweep-min", "1e-16"],
        ["--sweep-min", "1e-15"],
        ["--sweep-min", "3e-9"],  # misses it by 2.6e-9, beyond the 1e-9 tolerance
        ["--filter", "ma:14+lp:0.01"],
    ],
)
def test_cli_compare_order_refuses_bad_sweeps_before_writing(capsys, flags):
    args = ["compare-order", "--filter", "ma:14", "--carrier", "3/14", "--decimate", "14"]
    assert main(args + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flags[0] in captured.err


def test_cli_compare_order_accepts_a_bandwidth_its_low_pass_realizes(capsys):
    # 1e-8 misses by 6.8e-10, inside the 1e-9 tolerance.
    args = ["compare-order", "--filter", "ma:14", "--carrier", "3/14", "--decimate", "14",
            "--sweep-min", "1e-8", "--sweep-points", "2"]
    assert main(args) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert [float(row[0]) for row in rows] == pytest.approx([1e-8, 1e-1])


def _csv_text(header, rows):
    """The bytes, as text, that the CLI writes for this table."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".10g") if isinstance(v, float) else v for v in row])
    return text.getvalue()


@pytest.mark.parametrize(
    "spec,ratio,factor",
    [("ma:14", "3/14", 14), ("2sr+dcr", "7/33", 1), ("2sr+dcr", "7/33", 3), ("ma:33", "7/33", 33)],
)
def test_cli_compare_order_values_are_the_two_orders_norms(capsys, spec, ratio, factor):
    # The oracle: the filter-then-decimate cascade's norm and the multirate
    # norm with the low-pass at the decimated rate, each over the full-rate
    # low-pass's norm, in dB.
    argv = ["compare-order", "--filter", spec, "--carrier", ratio, "--decimate", str(factor)]
    assert main(argv) == 0
    stages = parse_filter_spec(spec, dk.CarrierConfig(*parse_ratio(ratio), 1.0))
    two_pi = 2.0 * math.pi
    rows = []
    for rel in np.geomspace(1e-4, 1e-1, 25):
        full = dk.make_lp(rel * two_pi, 1.0)
        low = dk.make_lp(rel * two_pi * factor, 1.0)
        ref = dk.h2_norm_sq([full]).value
        after = dk.h2_norm_sq(stages + [full]).value / ref
        before = dk.multirate_norm_sq(stages, low, factor).value / ref
        rows.append((float(rel), 10.0 * math.log10(after), 10.0 * math.log10(before)))
    header = ["omega_lp_over_omega_s", "rejection_after_db", "rejection_before_db"]
    assert capsys.readouterr().out == _csv_text(header, rows)


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_cli_simulate_refuses_a_seed_count_below_one(monkeypatch, capsys, seeds):
    def no_experiment(*args, **kwargs):
        raise AssertionError("ran an experiment with a bad seed count")

    monkeypatch.setattr("ddckit.cli._experiment", no_experiment)
    assert main(["simulate", "--preset", "ess", "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--seeds" in captured.err


def test_cli_simulate_preset_noise_free(capsys):
    assert (
        main(["simulate", "--preset", "lcls2", "--envelope", "const:1+2i",
              "--noise", "0", "--samples", "1000"])
        == 0
    )
    out = capsys.readouterr().out
    rms = float(out.splitlines()[0].split("=")[1])
    assert rms < 1e-12


def test_cli_simulate_offset_with_spur_reject(capsys):
    assert (
        main(["simulate", "--preset", "lcls2", "--dc-offset", "0.012",
              "--dcr", "--samples", "2000"])
        == 0
    )
    out = capsys.readouterr().out
    spur = float([l for l in out.splitlines() if l.startswith("spur")][0].split("=")[1])
    assert spur < -200


def test_cli_simulate_noise_study(capsys):
    assert (
        main(["simulate", "--preset", "ess", "--noise", "1", "--seeds", "5",
              "--samples", "50000"])
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    emp = float(lines[0].split("=")[1].split("+-")[0])
    ana = float(lines[1].split("=")[1])
    assert ana == pytest.approx(1 / 14, rel=1e-5)
    assert emp == pytest.approx(1 / 14, rel=0.05)


def test_cli_simulate_noise_study_needs_no_single_experiment(monkeypatch, capsys):
    def no_experiment(*args, **kwargs):
        raise AssertionError("the noise study ran a single experiment")

    monkeypatch.setattr("ddckit.cli._experiment", no_experiment)
    assert (
        main(["simulate", "--preset", "ess", "--noise", "1", "--seeds", "2",
              "--samples", "2000"])
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[1].split("=")[1]) == pytest.approx(1 / 14, rel=1e-5)


def test_cli_simulate_noise_study_rejects_short_runs_up_front(monkeypatch, capsys):
    def no_study(*args, **kwargs):
        raise AssertionError("started a noise study on a too-short run")

    monkeypatch.setattr("ddckit.cli.noise_gain_study", no_study)
    assert (
        main(["simulate", "--preset", "ess", "--noise", "1", "--seeds", "3",
              "--samples", "100"])
        == 2
    )
    assert "100 samples is too short" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["1", "3"])
def test_cli_simulate_needs_a_carrier_block_after_the_transient(capsys, seeds):
    # ess: a transient of 13 samples, then one decimated carrier block of
    # 14 * 14 = 196; 196 samples in all leave 13 clean outputs, not 14.
    args = ["simulate", "--preset", "ess", "--noise", "0.1", "--seeds", seeds, "--samples"]
    assert main(args + ["196"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "196 samples is too short" in captured.err
    assert main(args + ["209"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert all(math.isfinite(float(line.split("=")[1].split("+-")[0])) for line in out.splitlines())


def test_cli_simulate_rejects_a_negative_seed(capsys):
    assert (
        main(["simulate", "--preset", "ess", "--noise", "1", "--seed", "-1",
              "--samples", "2000"])
        == 2
    )
    assert "seed" in capsys.readouterr().err


def test_cli_simulate_trace_out(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert (
        main(["simulate", "--carrier", "7/33", "--filter", "2sr",
              "--samples", "200", "--out", str(trace)])
        == 0
    )
    capsys.readouterr()
    header, rows = _csv_rows(trace.read_text())
    assert header == ["index", "real", "imag", "abs"]
    assert len(rows) == 200
    assert float(rows[50][3]) == pytest.approx(1.0, abs=1e-9)


_ESS = dk.get_preset("ess")
_C733 = dk.CarrierConfig(7, 33, 1.0)


@pytest.mark.parametrize(
    "flags,chain",
    [
        (["--preset", "ess"],
         dk.make_chain(_ESS.carrier, dk.make_ma(14), decimation=14, order=_ESS.order)),
        (["--carrier", "7/33", "--filter", "2sr", "--lp", "0.01", "--decimate", "3",
          "--order", "decimate-then-filter"],
         dk.make_chain(_C733, dk.make_2sr(_C733), 0.01 * (2.0 * math.pi), decimation=3,
                       order=dk.ChainOrder.DECIMATE_THEN_FILTER)),
    ],
    ids=["ess", "2sr-lp-after-decimation"],
)
def test_cli_simulate_trace_is_the_experiments_own_pass(
    monkeypatch, tmp_path, capsys, flags, chain
):
    # The trace is the chain's output for the stream the experiment
    # synthesized, and the command synthesizes it once.
    streams = []
    real_stream = dk.simulate._adc_stream

    def counted_stream(*args):
        streams.append(args)
        return real_stream(*args)

    monkeypatch.setattr("ddckit.simulate._adc_stream", counted_stream)
    trace = tmp_path / "trace.csv"
    argv = ["simulate"] + flags + ["--noise", "0.5", "--seed", "3", "--samples", "9000"]
    assert main(argv + ["--out", str(trace)]) == 0
    assert len(streams) == 1
    report = capsys.readouterr().out
    spec = dk.SignalSpec(noise_sigma=0.5, seed=3)
    out = dk.run(chain, dk.synthesize(spec, chain.carrier, 9000))
    rows = [(j, float(v.real), float(v.imag), float(abs(v))) for j, v in enumerate(out.seq.values)]
    assert trace.read_bytes() == _csv_text(["index", "real", "imag", "abs"], rows).encode()
    # The report is the one printed without a trace.
    assert main(argv) == 0
    assert capsys.readouterr().out == report


@pytest.mark.parametrize(
    "argv",
    [
        ["freq-response", "--filter", "2sr", "--carrier", "7/33", "--points", "16"],
        ["compare-order", "--filter", "ma:14", "--carrier", "3/14", "--decimate", "14",
         "--sweep-points", "3"],
    ],
    ids=["freq-response", "compare-order"],
)
def test_cli_tables_write_dash_to_stdout(capsys, argv):
    assert main(argv) == 0
    table = capsys.readouterr().out
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out == table


def test_cli_simulate_refuses_a_trace_of_a_noise_study(monkeypatch, tmp_path, capsys):
    def no_study(*args, **kwargs):
        raise AssertionError("started a noise study whose trace would be dropped")

    monkeypatch.setattr("ddckit.cli.noise_gain_study", no_study)
    trace = tmp_path / "trace.csv"
    args = ["simulate", "--preset", "ess", "--seeds", "2", "--samples", "2000"]
    assert main(args + ["--out", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--out" in captured.err
    assert not trace.exists()


def test_cli_simulate_needs_a_chain(capsys):
    assert main(["simulate", "--noise", "1"]) == 2
    assert "preset" in capsys.readouterr().err


def _exit_code(argv):
    """``main``'s exit code, argparse's own refusals (``SystemExit``) too."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv,named",
    [
        (["simulate", "--preset", "ess", "--envelope", "step:1"], "--envelope"),
        (["simulate", "--preset", "ess", "--envelope", "sine:1"], "--envelope"),
        (["simulate", "--preset", "ess", "--envelope", "const:inf"], "--envelope"),
        (["simulate", "--preset", "ess", "--harmonic", "3"], "--harmonic"),
        (["simulate", "--preset", "ess", "--harmonic", "x:1"], "--harmonic"),
        (["simulate", "--carrier", "7/33", "--filter", "2sr+lp:0.01"], "--filter"),
        (["simulate", "--preset", "ess", "--lp"], "--lp"),
        (["simulate", "--preset", "lcls2", "--lp", "abc"], "--lp"),
        (["simulate", "--preset", "ess", "--samples", "1.5"], "--samples"),
        (["freq-response", "--filter", "ma:4", "--fs", "1e6"], "--fs"),
        (["compare-order", "--filter", "ma:14", "--decimate", "14"], "--carrier"),
        # lp:X is bandwidth over sample rate, so bandwidth*period is 2*pi*X.
        (["norm", "--filter", "ma:3+lp:1e-18"], "bandwidth*period 6.28e-18"),
        # The report goes to stdout, so a trace there could not be parsed.
        (["simulate", "--preset", "ess", "--samples", "2000", "--out", "-"], "--out"),
    ],
)
def test_cli_refuses_a_bad_value_naming_its_flag(monkeypatch, capsys, argv, named):
    def nothing(*args, **kwargs):
        raise AssertionError("ran on a refused value")

    monkeypatch.setattr("ddckit.cli._experiment", nothing)
    monkeypatch.setattr("ddckit.cli.noise_gain_study", nothing)
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


def test_cli_simulate_ramp_envelope_is_the_library_experiment(capsys):
    assert main(["simulate", "--preset", "lcls2", "--envelope", "ramp:1+0.5i:0.001",
                 "--samples", "3000"]) == 0
    out = capsys.readouterr().out
    carrier = dk.get_preset("lcls2").carrier
    spec = dk.SignalSpec(envelope=dk.PhaseRampEnvelope(1 + 0.5j, 0.001))
    report = dk.run_experiment(spec, dk.make_chain(carrier, dk.make_2sr(carrier)), 3000)
    assert out.splitlines()[0] == f"rms_envelope_error = {report.rms_envelope_error:.6g}"
    assert report.rms_envelope_error > 1e-6  # the ramp moves within the filter's delay


def test_cli_preset_show(capsys):
    assert main(["preset", "show", "lcls2"]) == 0
    out = capsys.readouterr().out
    assert "ratio = 7/33" in out
    assert "sample_rate_hz = 94290000" in out
    assert "filter = 2sr" in out


def test_cli_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    assert "lcls2" in out and "ess" in out


def test_cli_preset_show_needs_name(capsys):
    assert main(["preset", "show"]) == 2
    assert capsys.readouterr().err == "error: preset show needs a name or --file\n"


def test_cli_output_is_deterministic(capsys):
    args = ["simulate", "--preset", "ess", "--noise", "0.5", "--samples", "20000"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cli_integer_flags_accept_scientific_notation(capsys):
    assert (
        main(["simulate", "--preset", "ess", "--samples", "1e4"]) == 0
    )
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--preset", "ess", "--samples", "1.5e0"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_cli_csv_uses_dot_decimal_separator(capsys):
    assert main(["freq-response", "--filter", "ma:4", "--points", "4"]) == 0
    out = capsys.readouterr().out
    assert "," in out and ";" not in out
    for token in out.splitlines()[1].split(","):
        float(token)  # parses under the C locale


def test_cli_simulate_noise_beyond_float_range_is_a_usage_error(capsys):
    args = ["simulate", "--preset", "ess", "--noise", "1e200", "--seeds", "2",
            "--samples", "2000"]
    assert main(args) == 2
    assert "noise_sigma" in capsys.readouterr().err


# ------------------------------------------- one path from flags to a chain

_RIG = (
    "name = rig\nratio = 5/21\nsample_rate = 10e6\nfilter = ma:21\n"
    "lp_bandwidth_hz = 5e5\ndecimation = 21\norder = decimate-then-filter\n"
)


def _rig(tmp_path):
    path = tmp_path / "rig.cfg"
    path.write_text(_RIG)
    return str(path)


_RATE_COMMANDS = {
    "freq-response": ["--filter", "2sr", "--carrier", "7/33", "--points", "16", "--out", "{out}"],
    "norm": ["--filter", "2sr", "--carrier", "7/33", "--lp", "0.01"],
    "tune": ["--filter", "2sr", "--carrier", "7/33", "--target-db", "-15.2"],
    "compare-order": ["--filter", "ma:14", "--carrier", "3/14", "--decimate", "14", "--out", "{out}"],
    "simulate": ["--carrier", "7/33", "--filter", "2sr", "--samples", "200", "--out", "{out}"],
}


@pytest.mark.parametrize("fs", ["0", "-1"])
@pytest.mark.parametrize("command", sorted(_RATE_COMMANDS))
def test_cli_refuses_a_sample_rate_that_is_not_positive(tmp_path, capsys, command, fs):
    out = tmp_path / "out.csv"
    flags = [str(out) if f == "{out}" else f for f in _RATE_COMMANDS[command]]
    assert main([command] + flags + ["--fs", fs]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "sample_rate" in captured.err
    assert not out.exists()


# Commands that take their bandwidths in units of the sample rate, with a
# valid argv each: they declare --fs only to refuse it.
_RATE_FREE_COMMANDS = {
    "norm": ["--filter", "ma:14", "--carrier", "3/14", "--lp", "0.01"],
    "compare-order": ["--filter", "ma:14", "--carrier", "3/14", "--decimate", "14",
                      "--out", "{out}"],
}


@pytest.mark.parametrize("fs", ["0", "-1", "117.4e6", "5"])
@pytest.mark.parametrize("command", sorted(_RATE_FREE_COMMANDS))
def test_cli_refuses_a_sample_rate_where_bandwidths_are_in_its_units(
    tmp_path, capsys, command, fs
):
    out = tmp_path / "out.csv"
    flags = [str(out) if f == "{out}" else f for f in _RATE_FREE_COMMANDS[command]]
    assert main([command] + flags) == 0
    out.unlink(missing_ok=True)
    capsys.readouterr()
    assert main([command] + flags + ["--fs", fs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "units of the sample rate" in captured.err and "--fs" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--preset", "ess", "--carrier", "7/33"], "--carrier"),
        (["--preset", "ess", "--fs", "1e6"], "--fs"),
        (["--preset", "ess", "--preset-file", "{rig}"], "--preset-file"),
        (["--preset-file", "{rig}", "--carrier", "5/21", "--fs", "10e6"], "--carrier"),
        (["--preset", "ess", "--carrier", "7/33", "--seeds", "2"], "--carrier"),
    ],
)
def test_cli_simulate_takes_its_chain_from_exactly_one_source(
    monkeypatch, tmp_path, capsys, flags, named
):
    def no_experiment(*args, **kwargs):
        raise AssertionError("ran an experiment on one of two chain sources")

    monkeypatch.setattr("ddckit.cli._experiment", no_experiment)
    monkeypatch.setattr("ddckit.cli.noise_gain_study", no_experiment)
    rig = _rig(tmp_path)
    argv = ["simulate"] + [rig if f == "{rig}" else f for f in flags]
    assert main(argv + ["--noise", "1", "--samples", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


@pytest.mark.parametrize(
    "by_preset,by_flags",
    [
        (
            ["--preset", "ess"],
            ["--carrier", "3/14", "--fs", "117.40e6", "--filter", "ma:14", "--decimate", "14"],
        ),
        (
            ["--preset", "lcls2", "--lp"],
            ["--carrier", "7/33", "--fs", "94.29e6", "--filter", "2sr", "--lp", "100e3"],
        ),
        (
            ["--preset-file", "{rig}", "--lp"],
            ["--carrier", "5/21", "--fs", "10e6", "--filter", "ma:21", "--lp", "5e5",
             "--decimate", "21", "--order", "decimate-then-filter"],
        ),
    ],
)
def test_cli_simulate_prints_the_same_bytes_for_a_preset_and_its_flags(
    tmp_path, capsys, by_preset, by_flags
):
    rig = _rig(tmp_path)
    common = ["--noise", "0.5", "--dc-offset", "0.01", "--samples", "45000"]
    assert main(["simulate"] + [rig if f == "{rig}" else f for f in by_preset] + common) == 0
    first = capsys.readouterr().out
    assert main(["simulate"] + by_flags + common) == 0
    assert capsys.readouterr().out == first


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self, **values):
        super().__init__(**values)
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# Valid argvs that, per subcommand, together set every flag it declares.
_EVERY_FLAG = {
    "freq-response": [
        ["--filter", "2sr", "--carrier", "7/33", "--fs", "94.29e6", "--points", "16",
         "--out", "{out}"],
    ],
    "norm": [
        ["--filter", "ma:14", "--carrier", "3/14", "--lp", "0.01", "--decimate", "14",
         "--lp-after-decimation"],
        ["--filter", "ma:14", "--carrier", "3/14", "--decimate", "14"],
    ],
    "tune": [
        ["--filter", "2sr", "--carrier", "7/33", "--fs", "94.29e6", "--target-db", "-15.2"],
    ],
    "compare-order": [
        ["--filter", "ma:14", "--carrier", "3/14", "--decimate", "14", "--sweep-points", "3",
         "--sweep-min", "1e-3", "--sweep-max", "1e-2", "--out", "{out}"],
    ],
    "simulate": [
        ["--carrier", "7/33", "--fs", "94.29e6", "--filter", "2sr", "--envelope",
         "step:1:2:500", "--noise", "0.01", "--dc-offset", "0.001", "--harmonic",
         "2:0.01", "--dcr", "--pre-mixer-hp", "0.9375", "--lp", "2e6", "--decimate",
         "3", "--order", "decimate-then-filter", "--samples", "7000", "--seed", "4",
         "--out", "{out}"],
        ["--preset", "ess", "--noise", "1", "--seeds", "2", "--samples", "2000"],
        ["--preset-file", "{rig}", "--lp", "--samples", "3000"],
    ],
    "preset": [["list"], ["show", "lcls2"], ["show", "--file", "{rig}"]],
}


def _subparsers():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _declared(command):
    return [a for a in _subparsers()[command]._actions if a.dest != "help"]


def _set_by(command, argv, args):
    """The destinations that ``argv`` sets: an option named in it, or a
    positional parsed to a value."""
    named = {token.split("=", 1)[0] for token in argv}
    return {
        action.dest
        for action in _declared(command)
        if (named & set(action.option_strings))
        or (not action.option_strings and getattr(args, action.dest) is not None)
    }


def test_the_argvs_of_the_flag_guard_set_every_declared_flag():
    # A declared flag is either set by one of these valid argvs, so the guard
    # below sees whether it is read, or refused whatever its value.
    assert set(_EVERY_FLAG) == set(_subparsers())
    for command, argvs in _EVERY_FLAG.items():
        parser = build_parser()
        covered = {"fs"} if command in _RATE_FREE_COMMANDS else set()
        for argv in argvs:
            covered |= _set_by(command, argv, parser.parse_args([command] + argv))
        assert covered == {action.dest for action in _declared(command)}, command


@pytest.mark.parametrize(
    "command,argv",
    [(command, argv) for command, argvs in _EVERY_FLAG.items() for argv in argvs],
)
def test_every_flag_set_on_the_command_line_is_read(tmp_path, capsys, command, argv):
    subs = {"{out}": str(tmp_path / "out.csv"), "{rig}": _rig(tmp_path)}
    argv = [subs.get(token, token) for token in argv]
    parsed = build_parser().parse_args([command] + argv)
    args = _ReadRecorder(**vars(parsed))
    assert parsed.func(args) == 0
    capsys.readouterr()
    unread = _set_by(command, argv, parsed) - args._reads
    assert not unread, f"{command} drops {sorted(unread)}"


# ------------------------------------------------------ benchmark trace names

def test_every_name_the_benchmark_traces_resolves():
    # ddcbench/spans.py wraps ddckit's functions and class methods by name
    # (getattr over TARGETS, the class __dict__ over CLASS_TARGETS), and its
    # work counters read filter_stream's and decimate's first argument by
    # position or by name; a refactor that moves one of them breaks the
    # traced benchmark run. The module is loaded from its file, not changed.
    path = pathlib.Path(__file__).resolve().parents[1] / "ddcbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("ddcbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS and spans.CLASS_TARGETS
    for module_name, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), attr
    for module_name, cls_name, attr, _ in spans.CLASS_TARGETS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(cls.__dict__[attr]), (cls_name, attr)
    assert next(iter(inspect.signature(dk.filter_stream).parameters)) == "filt"
    assert next(iter(inspect.signature(dk.decimate).parameters)) == "x"
