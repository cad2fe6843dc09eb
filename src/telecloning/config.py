"""Strict flat key-value configuration files for the command line tools.

Example::

    [squeezer_i]
    squeezing_db = 7.66
    antisqueezing_db = 7.66

    [input]
    alpha_re = 5.0
    alpha_im = 3.0

Unknown sections or keys, and non-finite numbers (nan, inf), are
rejected; missing keys take the defaults below, so a minimal file only
pins what the experiment varies.
"""

from __future__ import annotations

import configparser
import io
import math

from .opo import OPOParams
from .protocol import ProtocolConfig
from .resource import SqueezerSpec


class ConfigError(ValueError):
    """Unreadable, malformed, or out-of-contract configuration."""


# section -> key -> (parser, default)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "squeezer_i": {"squeezing_db": (float, 0.0), "antisqueezing_db": (float, 0.0)},
    "squeezer_ii": {"squeezing_db": (float, 0.0), "antisqueezing_db": (float, 0.0)},
    "input": {"alpha_re": (float, 0.0), "alpha_im": (float, 0.0)},
    "gains": {"gx1": (float, 1.0), "gp1": (float, 1.0),
              "gx2": (float, 1.0), "gp2": (float, 1.0)},
    "loss": {"eta_homodyne": (float, 1.0), "eta_resource_a": (float, 1.0),
             "eta_resource_b": (float, 1.0), "eta_resource_c": (float, 1.0),
             "coupler_t": (float, 1.0)},
    "run": {"shots": (int, 10_000), "seed": (int, 0)},
    "opo": {"p_threshold_mw": (float, 100.0), "eta_det": (float, 1.0),
            "omega": (float, 0.0)},
}


def _line_of(text: str, token: str) -> str:
    for number, line in enumerate(text.splitlines(), start=1):
        if token in line:
            return f" (line {number})"
    return ""


def parse_config(text: str) -> dict:
    """Parse config text into a flat {'section.key': value} dict."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    cfg = {f"{section}.{key}": default
           for section, keys in _SCHEMA.items()
           for key, (_, default) in keys.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]{_line_of(text, f'[{section}]')}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key '{section}.{key}'{_line_of(text, key)}")
            caster, _ = _SCHEMA[section][key]
            try:
                value = caster(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"invalid value for '{section}.{key}': "
                    f"{raw!r}{_line_of(text, key)}") from exc
            if not math.isfinite(value):
                raise ConfigError(
                    f"non-finite value for '{section}.{key}': "
                    f"{raw!r}{_line_of(text, key)}")
            cfg[f"{section}.{key}"] = value
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def serialize_config(cfg: dict) -> str:
    """Render a parsed config back to text; parse(serialize(c)) == c."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    for section, keys in _SCHEMA.items():
        parser.add_section(section)
        for key in keys:
            parser.set(section, key, repr(cfg[f"{section}.{key}"]))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def protocol_config_from(cfg: dict) -> ProtocolConfig:
    try:
        return ProtocolConfig(
            spec_i=SqueezerSpec(cfg["squeezer_i.squeezing_db"],
                                cfg["squeezer_i.antisqueezing_db"]),
            spec_ii=SqueezerSpec(cfg["squeezer_ii.squeezing_db"],
                                 cfg["squeezer_ii.antisqueezing_db"]),
            input_alpha=complex(cfg["input.alpha_re"], cfg["input.alpha_im"]),
            gains=(cfg["gains.gx1"], cfg["gains.gp1"],
                   cfg["gains.gx2"], cfg["gains.gp2"]),
            eta_homodyne=cfg["loss.eta_homodyne"],
            eta_resource=(cfg["loss.eta_resource_a"], cfg["loss.eta_resource_b"],
                          cfg["loss.eta_resource_c"]),
            coupler_t=cfg["loss.coupler_t"],
            shots=cfg["run.shots"],
            seed=cfg["run.seed"],
        )
    except ValueError as exc:
        if exc.__class__ is ValueError:
            raise ConfigError(str(exc)) from exc
        raise  # physicality violations keep their own type


def opo_params_from(cfg: dict) -> OPOParams:
    try:
        return OPOParams(cfg["opo.p_threshold_mw"], cfg["opo.eta_det"],
                         cfg["opo.omega"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
