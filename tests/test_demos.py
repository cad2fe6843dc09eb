import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name, expected", (
    ("01_states_and_optics.py", "marginal of the measured port"),  # condition_on
    ("02_entanglement_criteria.py", "impure squeezers"),  # lossless resources
    ("03_telecloning_run.py", "sender diagnostics at the optimum"),  # alice_trace_levels
    ("04_monte_carlo.py", "re-run with same seed identical: True"),
))
def test_demo_runs(name, expected):
    assert expected in run_demo(name)


def test_pump_power_demo_runs():
    assert "fit round trip" in run_demo("05_pump_power.py")
