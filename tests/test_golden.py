"""Byte-for-byte CLI outputs on the bundled configs.

The files in ``tests/data/golden/`` hold the exit code, stdout, stderr and
(for ``sample --csv``) the CSV file of every case below, as printed by
``python -m telecloning``. Rewrite them with

    PYTHONPATH=src python tests/test_golden.py

only when an output is meant to change.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from telecloning.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
CONFIG_NAMES = ("paper", "optimal", "classical")
CSV = "{csv}"  # replaced by a fresh file path in each run
CASES = {
    "run": ["run"],
    "criteria": ["criteria"],
    "sample": ["sample", "--shots", "64", "--csv", CSV],
    "sample-sampled": ["sample", "--shots", "64", "--sampled"],
    "sweep-squeezing": ["sweep", "--param", "squeezing_db",
                        "--from", "0", "--to", "12", "--steps", "25"],
    "sweep-pump": ["sweep", "--param", "pump_mw",
                   "--from", "0", "--to", "90", "--steps", "25"],
}
NAMES = [f"{config}-{case}" for config in CONFIG_NAMES for case in CASES]


def _argv(name: str, csv_path: Path) -> list[str]:
    config, case = name.split("-", 1)
    rest = [str(csv_path) if arg == CSV else arg for arg in CASES[case]]
    return [rest[0], str(ROOT / "configs" / f"{config}.cfg"), *rest[1:]]


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", NAMES)
def test_cli_output_matches_golden(name, capsys, tmp_path):
    csv_path = tmp_path / "shots.csv"
    code = main(_argv(name, csv_path))
    captured = capsys.readouterr()
    assert code == json.loads(_read(GOLDEN / "exit_codes.json"))[name]
    assert captured.out == _read(GOLDEN / f"{name}.stdout")
    assert captured.err == _read(GOLDEN / f"{name}.stderr")
    expected_csv = GOLDEN / f"{name}.csv"
    assert csv_path.exists() == expected_csv.exists()
    if expected_csv.exists():
        assert _read(csv_path) == _read(expected_csv)


def test_paper_csv_at_1e5_shots_keeps_its_sha256(capsys, tmp_path):
    # 13 Monte Carlo chunks of 8192 shots and 25 CSV blocks of 4096 rows
    csv_path = tmp_path / "shots.csv"
    code = main(["sample", str(ROOT / "configs" / "paper.cfg"), "--shots", "100000",
                 "--seed", "42", "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "7374ad1a79e76dbc781c58ef2ac7438729a47c77c61077e28c2400a0777145d5")


def write_golden() -> None:
    """Run every case as its own ``python -m telecloning`` process and
    record what it printed."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in NAMES:
            csv_path = Path(scratch) / "shots.csv"
            done = subprocess.run([sys.executable, "-m", "telecloning",
                                   *_argv(name, csv_path)], capture_output=True)
            codes[name] = done.returncode
            (GOLDEN / f"{name}.stdout").write_bytes(done.stdout)
            (GOLDEN / f"{name}.stderr").write_bytes(done.stderr)
            if csv_path.exists():
                (GOLDEN / f"{name}.csv").write_bytes(csv_path.read_bytes())
                csv_path.unlink()
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    write_golden()
