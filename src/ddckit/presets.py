"""Machine presets and the tiny filter-spec grammar shared with the CLI.

Filter specs are ``+``-joined tokens: ``ma:N`` (N-sample moving average),
``2sr`` (two-sample reconstruction), ``dcr`` (DC-spur rejection), ``iq``
(quarter-rate filter), ``lp:X`` (first-order low-pass with bandwidth X in
units of the sample rate, i.e. omega/omega_s), and ``hp:P`` (passband
DC-reject with pole P, analyzed in its baseband form).  Tokens that need the
carrier ratio fail with a usage error when none is given.

Preset files are plain ``key = value`` lines (``#`` comments allowed) with
keys ``name``, ``ratio`` (M/N), ``sample_rate`` (Hz), ``filter`` (spec as
above), and optionally ``lp_bandwidth_hz``, ``decimation``, ``order``
(``filter-then-decimate`` or ``decimate-then-filter``).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

from .core import CarrierConfig, ComplexFilter, UsageError, _check_type, _is_number, _is_positive
from .filters import (
    make_2sr,
    make_dc_reject_passband,
    make_dcr,
    make_iq,
    make_lp,
    make_ma,
    to_baseband,
)
from .pipeline import ChainOrder


@dataclass(frozen=True)
class Preset:
    """A named machine configuration: carrier plus default chain description.

    ``lp_bandwidth_hz`` is the default extra low-pass bandwidth; commands keep
    that stage optional because the envelope filter alone is often the whole
    story for latency studies.
    """

    name: str
    carrier: CarrierConfig
    filter_spec: str
    lp_bandwidth_hz: float | None = None
    decimation: int = 1
    order: ChainOrder = ChainOrder.FILTER_THEN_DECIMATE
    note: str = ""


BUILTIN_PRESETS = {
    "lcls2": Preset(
        name="lcls2",
        carrier=CarrierConfig(7, 33, 94.29e6),
        filter_spec="2sr",
        lp_bandwidth_hz=100e3,
        decimation=1,
        note="LCLS-II field control: ratio 7/33, two-sample reconstruction, "
        "extra low-pass between 50 and 200 kHz (default 100 kHz)",
    ),
    "ess": Preset(
        name="ess",
        carrier=CarrierConfig(3, 14, 117.40e6),
        filter_spec="ma:14",
        lp_bandwidth_hz=None,
        decimation=14,
        note="ESS field control: ratio 3/14, block moving average with "
        "decimation by the block length",
    ),
}


def get_preset(name: str) -> Preset:
    _check_type(name, str, "the preset name")
    try:
        return BUILTIN_PRESETS[name]
    except KeyError:
        raise UsageError(
            f"unknown preset {name!r}; built-ins: {', '.join(sorted(BUILTIN_PRESETS))}"
        ) from None


def parse_ratio(text: str) -> tuple[int, int]:
    parts = text.split("/")
    try:
        if len(parts) != 2:
            raise ValueError
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"bad carrier ratio {text!r}; expected M/N") from None


def parse_complex(text: str) -> complex:
    try:
        value = complex(text.strip().replace("i", "j"))
    except ValueError:
        raise UsageError(f"bad complex number {text!r}") from None
    if not _is_number(value, numbers.Complex):
        raise UsageError(f"complex number {text!r} must be finite")
    return value


def parse_filter_spec(spec: str, carrier: CarrierConfig | None) -> list[ComplexFilter]:
    """Parse a ``+``-joined filter spec into a baseband cascade."""
    _check_type(spec, str, "the filter spec")
    _check_type(carrier, (CarrierConfig, type(None)), "the carrier")
    sample_period = carrier.sample_period if carrier is not None else 1.0

    def need_carrier(token: str) -> CarrierConfig:
        if carrier is None:
            raise UsageError(f"filter token {token!r} needs --carrier M/N")
        return carrier

    stages: list[ComplexFilter] = []
    for token in spec.split("+"):
        token = token.strip()
        name, _, arg = token.partition(":")
        try:
            if name == "ma":
                stages.append(make_ma(int(arg)))
            elif name == "2sr" and not arg:
                stages.append(make_2sr(need_carrier(token)))
            elif name == "dcr" and not arg:
                stages.append(make_dcr(need_carrier(token)))
            elif name == "iq" and not arg:
                stages.append(make_iq(need_carrier(token)))
            elif name == "lp":
                # arg is bandwidth over sample rate: omega_lp / omega_s.
                rel = float(arg)
                stages.append(
                    make_lp(rel * 2.0 * math.pi / sample_period, sample_period)
                )
            elif name == "hp":
                hp = make_dc_reject_passband(float(arg))
                stages.append(to_baseband(hp, need_carrier(token)))
            else:
                raise UsageError(f"unknown filter token {token!r}")
        except ValueError:
            raise UsageError(f"bad filter token {token!r}") from None
    return stages


_ORDER_NAMES = {order.value: order for order in ChainOrder}


def _positive(path: str, key: str, text: str, kind: type):
    """A preset file's value ``text`` for ``key`` as a positive finite
    ``kind`` (``float`` or ``int``), or a :class:`UsageError` that names the
    file."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if not _is_positive(value):
        noun = "integer" if kind is int else "finite number"
        raise UsageError(f"{path}: bad {key} {text!r}; expected a positive {noun}")
    return value


def load_preset_file(path: str) -> Preset:
    """Load a user preset from a ``key = value`` text file."""
    _check_type(path, (str, os.PathLike), "the preset file path")
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read preset file {path!r}: {exc}") from None

    known = {
        "name",
        "ratio",
        "sample_rate",
        "filter",
        "lp_bandwidth_hz",
        "decimation",
        "order",
    }
    unknown = sorted(set(values) - known)
    if unknown:
        raise UsageError(f"{path}: unknown preset keys: {', '.join(unknown)}")
    for required in ("ratio", "sample_rate", "filter"):
        if required not in values:
            raise UsageError(f"{path}: missing required key {required!r}")

    rate = _positive(path, "sample_rate", values["sample_rate"], float)
    try:
        carrier = CarrierConfig(*parse_ratio(values["ratio"]), rate)
    except UsageError:
        ratio = values["ratio"]
        raise UsageError(f"{path}: bad ratio {ratio!r}; expected M/N with 0 < 2*M < N") from None

    lp_hz: float | None = None
    if values.get("lp_bandwidth_hz", "none").lower() not in ("", "none"):
        lp_hz = _positive(path, "lp_bandwidth_hz", values["lp_bandwidth_hz"], float)
    decimation = _positive(path, "decimation", values.get("decimation", "1"), int)
    order_text = values.get("order", ChainOrder.FILTER_THEN_DECIMATE.value)
    if order_text not in _ORDER_NAMES:
        raise UsageError(
            f"{path}: bad order {order_text!r}; expected one of "
            f"{', '.join(_ORDER_NAMES)}"
        )

    preset = Preset(
        name=values.get("name", path),
        carrier=carrier,
        filter_spec=values["filter"],
        lp_bandwidth_hz=lp_hz,
        decimation=decimation,
        order=_ORDER_NAMES[order_text],
        note=f"loaded from {path}",
    )
    # Validate the filter spec eagerly so errors point at the file.
    parse_filter_spec(preset.filter_spec, carrier)
    return preset
