"""Presets, the filter-spec grammar, and the command-line front end."""

import csv
import io
import math

import pytest

import ddckit as dk
from ddckit.cli import main
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

    monkeypatch.setattr("ddckit.cli.run_experiment", no_experiment)
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


def test_cli_simulate_needs_a_chain(capsys):
    assert main(["simulate", "--noise", "1"]) == 2
    assert "preset" in capsys.readouterr().err


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
