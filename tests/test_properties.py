"""Property tests of the config reader, and of the command line over every
config ``parse_config`` accepts."""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_parse_config
from telecloning.cli import main
from telecloning.config import _SCHEMA, ConfigError, parse_config

# Hypothesis caches constants it mines from the source; keep that cache
# out of the working tree (examples are not stored: database=None)
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      str(Path(tempfile.gettempdir()) / "telecloning-hypothesis"))

_ANY = st.floats(allow_nan=False, allow_infinity=False)


def _typical_or_any(low: float, high: float):
    return st.one_of(st.floats(low, high), _ANY)


@st.composite
def config_texts(draw) -> str:
    """Valid configs out to the edges of their domains (any finite gain and
    amplitude, squeezing up to where the variances overflow, transmissivities
    down to the smallest float); half of them then get one key set to any
    value of its type, in or out of its range."""
    values = {}
    for squeezer in ("squeezer_i", "squeezer_ii"):
        squeezing = draw(st.one_of(st.floats(0.0, 15.0), st.floats(0.0, 4000.0)))
        values[f"{squeezer}.squeezing_db"] = squeezing
        values[f"{squeezer}.antisqueezing_db"] = squeezing + draw(st.floats(0.0, 30.0))
    for key in ("input.alpha_re", "input.alpha_im"):
        values[key] = draw(_typical_or_any(-10.0, 10.0))
    for key in ("gains.gx1", "gains.gp1", "gains.gx2", "gains.gp2"):
        values[key] = draw(_typical_or_any(-2.0, 2.0))
    for key in ("loss.eta_resource_a", "loss.eta_resource_b", "loss.eta_resource_c"):
        values[key] = draw(st.floats(0.0, 1.0))
    for key in ("loss.eta_homodyne", "loss.coupler_t"):
        values[key] = draw(st.floats(0.0, 1.0, exclude_min=True))
    values["run.shots"] = draw(st.integers(1, 10**6))
    values["run.seed"] = draw(st.integers(-2**70, 2**70))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(values)))
        values[key] = draw(st.integers() if key.startswith("run.") else _ANY)
    lines = []
    for section in dict.fromkeys(key.split(".")[0] for key in values):
        lines.append(f"[{section}]")
        lines += [f"{key.split('.')[1]} = {value!r}" for key, value in values.items()
                  if key.startswith(section + ".")]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "drawn.cfg"


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(text=config_texts())
def test_every_accepted_config_exits_0_1_or_2(config_path, text):
    config_path.write_text(text)
    for argv in (["run", str(config_path)],
                 ["sample", str(config_path), "--shots", "50"],
                 ["sample", str(config_path), "--shots", "50", "--sampled"],
                 ["criteria", str(config_path)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, text)
        if code:
            assert out.getvalue() == "", (argv, text)
        else:
            json.loads(out.getvalue())


# Pieces of config lines: names the schema knows (listed twice, to draw them
# more often) and does not know, in any case and with blanks; values that
# cast, fail to cast or are not finite; and the whitespace str.strip()
# removes, line breaks other than \n included.
_SECTIONS = st.sampled_from(["squeezer_i", "gains", "opo", "run", "squeezer_i",
                             "gains", "opo", "Run", "mystery", "a]b", " run ", "[x"])
_KEYS = st.sampled_from(["squeezing_db", "gx1", "gp2", "omega", "seed", "SEED",
                         "Shots", "unknown", " ", ""])
_VALUES = st.sampled_from(["1", "2.5", "-3", "1e3", " 7 ", "0.5", "nan", "inf", "",
                           "x", "1 # c", "1 ; c", "1_0", "0x1", "\r", "\x0c1", "1\r"])
_BLANKS = st.sampled_from(["", "", "", " ", "\t", "\x0c", "\r", "\x0b", "\x1c",
                           "\x85", "\xa0", "\u2028"])
_TAILS = st.sampled_from(["", "", "", " trailing", "]", " ; c", " = 1"])
_STRAYS = st.sampled_from(["[", "[]", "[]]", "]", "[[x]", "# c", "; c", "  # c",
                           "x", "=", "= 1", ": 1", "1 = seed", "=="])


@st.composite
def config_lines(draw) -> str:
    kind = draw(st.integers(0, 9))
    pad = draw(_BLANKS)
    if kind == 0:  # a header, with trailing text or a nested bracket
        return f"{pad}[{draw(_SECTIONS)}]{draw(_TAILS)}"
    if kind <= 5:  # an option, blanks around its '=' or ':'
        return (f"{pad}{draw(_KEYS)}{draw(_BLANKS)}{draw(st.sampled_from('=:'))}"
                f"{draw(_BLANKS)}{draw(_VALUES)}")
    if kind == 6:  # indented: continues the value above, if there is one
        return f"{pad}  {draw(_VALUES)}"
    if kind == 7:
        return pad  # blank
    # comments, empty names, lines without a delimiter, stray brackets
    return pad + draw(_STRAYS)


@st.composite
def config_like_texts(draw) -> str:
    """A text that is mostly a config: most start at a header, half with a
    section whose keys the schema knows, each once."""
    lines = []
    if draw(st.booleans()):
        section = draw(st.sampled_from(sorted(_SCHEMA)))
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(sorted(_SCHEMA[section])),
                                 unique=True, max_size=3)):
            lines.append(f"{key} = {draw(_VALUES)}")
    elif draw(st.integers(0, 7)):
        lines.append(f"[{draw(_SECTIONS)}]")
    lines += draw(st.lists(config_lines(), max_size=6))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))


_ENTRY_ERROR = re.compile(r"(unknown section \[(?P<section>.*)\]|"
                          r"(unknown key|invalid value for|non-finite value for) "
                          r"'[a-z_]+\.(?P<key>[^']*)'.*) \(line (?P<line>\d+)\)",
                          flags=re.DOTALL)


def _entry_text(line: str, section: str | None) -> str:
    """What a schema error names on its line: the header's section, or the
    option's name as the reader forms it."""
    line = line.strip()
    if section is not None:
        return line[1:line.rfind("]")]
    cut = min(i for i in (line.find("="), line.find(":"), len(line)) if i >= 0)
    return line[:cut].rstrip().lower()


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(text=config_like_texts())
def test_reader_accepts_and_rejects_as_configparser(text):
    try:
        got = parse_config(text)
    except ConfigError as exc:
        got = str(exc)
        found = _ENTRY_ERROR.fullmatch(got)
        if found:  # the line named is the entry's own; configparser names none
            line = text.split("\n")[int(found["line"]) - 1]
            name = found["section"] if found["section"] is not None else found["key"]
            assert _entry_text(line, found["section"]) == name, (text, got)
            got = got[:found.start("line") - len(" (line ")]
    try:
        want = reference_parse_config(text)
    except ConfigError as exc:
        want = str(exc)
    assert got == want, text
