"""Property test of the command line over every config ``parse_config`` accepts."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from telecloning.cli import main

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
