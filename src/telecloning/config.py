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

The grammar is that of the standard library's
``ConfigParser(interpolation=None, default_section="")``, with the same
accepted texts, values and messages; ``_read`` implements it directly,
and the tests check the two against each other:

- lines end after each ``\\n`` only;
- a line whose first non-blank character is ``#`` or ``;`` is a comment;
  there are no inline comments, so ``omega = 1 # c`` has the value ``1 # c``;
- a line ``[name]`` opens a section; the name is non-empty and runs to
  the last ``]`` of the line, so ``[opo] note`` opens ``opo`` and
  ``[a]b]`` opens ``a]b``;
- any other line inside a section sets an option: its name is the text
  before the first ``=`` or ``:``, right-stripped and lower-cased
  (``SEED: 5`` sets ``seed``), its value the stripped rest of the line;
- a line indented deeper than its option line continues that value, and
  a blank line adds an empty line to it; the lines are joined with
  newlines and the trailing whitespace is dropped;
- a line before the first section, a repeated section and an option
  repeated within its section are errors at their line; lines without a
  delimiter or with an empty name are collected and reported together.
"""

from __future__ import annotations

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
_DEFAULTS = {f"{section}.{key}": default
             for section, keys in _SCHEMA.items()
             for key, (_, default) in keys.items()}
# (section, key) -> ('section.key', parser)
_FIELDS = {(section, key): (f"{section}.{key}", caster)
           for section, keys in _SCHEMA.items()
           for key, (caster, _) in keys.items()}
_SOURCE = "'<string>'"  # how configparser's messages name a text source


def _read(text: str) -> dict[str, tuple[int, dict[str, tuple[str, int]]]]:
    """Split config text into ``{section: (line, {key: (value, line)})}``,
    in file order, by the grammar of the module docstring."""
    sections: dict[str, tuple[int, dict[str, list]]] = {}
    options = None  # the open section's {key: [line, value lines]}
    key = None      # the open option: its value takes continuation lines
    level = 0       # indent of the last section or option line
    errors = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        value = line.strip()
        if not value:
            if key:
                options[key][1].append("")
            continue
        if value[0] in "#;":
            continue
        indent = len(line) - len(line.lstrip())
        if key and indent > level:
            options[key][1].append(value)
            continue
        level = indent
        close = value.rfind("]")
        if value[0] == "[" and close > 1:
            section = value[1:close]
            if section in sections:
                raise ConfigError(
                    f"config parse error: While reading from {_SOURCE} "
                    f"[line {lineno:2d}]: section {section!r} already exists")
            options, key = {}, None
            sections[section] = (lineno, options)
            continue
        if options is None:
            raise ConfigError(
                f"config parse error: File contains no section headers.\n"
                f"file: {_SOURCE}, line: {lineno}\n{line!r}")
        eq, colon = value.find("="), value.find(":")
        cut = eq if colon < 0 or 0 <= eq < colon else colon  # the first delimiter
        if cut < 0:
            errors.append((lineno, line))
            continue
        key = value[:cut].rstrip().lower()
        if not key:
            errors.append((lineno, line))
        if key in options:
            raise ConfigError(
                f"config parse error: While reading from {_SOURCE} "
                f"[line {lineno:2d}]: option {key!r} in section "
                f"{section!r} already exists")
        options[key] = [lineno, [value[cut + 1:].strip()]]
    if errors:
        raise ConfigError(
            f"config parse error: Source contains parsing errors: {_SOURCE}"
            + "".join(f"\n\t[line {n:2d}]: {line!r}" for n, line in errors))
    return {section: (line, {key: ("\n".join(lines).rstrip(), n)
                             for key, (n, lines) in options.items()})
            for section, (line, options) in sections.items()}


def parse_config(text: str) -> dict:
    """Parse config text into a flat {'section.key': value} dict."""
    cfg = _DEFAULTS.copy()
    for section, (header_line, options) in _read(text).items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] (line {header_line})")
        for key, (raw, line) in options.items():
            field = _FIELDS.get((section, key))
            if field is None:
                raise ConfigError(f"unknown key '{section}.{key}' (line {line})")
            name, caster = field
            try:
                value = caster(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"invalid value for '{name}': {raw!r} (line {line})") from exc
            if not math.isfinite(value):
                raise ConfigError(
                    f"non-finite value for '{name}': {raw!r} (line {line})")
            cfg[name] = value
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
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]\n")
        lines += [f"{key} = {cfg[f'{section}.{key}']!r}\n" for key in keys]
        lines.append("\n")
    return "".join(lines)


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
