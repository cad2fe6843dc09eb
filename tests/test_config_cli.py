import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    random_config,
    reference_clones,
    reference_fidelity,
    reference_serialize_config,
    reference_spectra,
)
from telecloning.cli import main
from telecloning.config import (
    ConfigError,
    load_config,
    opo_params_from,
    parse_config,
    protocol_config_from,
    serialize_config,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_fills_defaults():
    cfg = parse_config("[squeezer_i]\nsqueezing_db = 3\n")
    assert cfg["squeezer_i.squeezing_db"] == 3.0
    assert cfg["squeezer_i.antisqueezing_db"] == 0.0
    assert cfg["gains.gx1"] == 1.0
    assert cfg["run.shots"] == 10_000


def test_parse_serialize_round_trip():
    text = (CONFIGS / "paper.cfg").read_text()
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="squeezer_i.unknown_thing"):
        parse_config("[squeezer_i]\nunknown_thing = 1\n")


def test_unknown_section_is_named():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config("[mystery]\nx = 1\n")


def test_invalid_value_is_reported():
    with pytest.raises(ConfigError, match="squeezing_db"):
        parse_config("[squeezer_i]\nsqueezing_db = not_a_number\n")


@pytest.mark.parametrize("text, message", (
    # the token of the error also appears on an earlier line
    ("[squeezer_i]\nsqueezing_db = 1\n[squeezer_ii]\nsqueezing_db = bad\n",
     "invalid value for 'squeezer_ii.squeezing_db': 'bad' (line 4)"),
    ("[gains]\ngp1 = 1\ngp = 2\n", "unknown key 'gains.gp' (line 3)"),
    ("[squeezer_i]\nantisqueezing_db = 1\nsqueezing_db = nan\n",
     "non-finite value for 'squeezer_i.squeezing_db': 'nan' (line 3)"),
    ("# note\n[run]\nseed = 1\n\n[Mystery]\n", "unknown section [Mystery] (line 5)"),
))
def test_config_errors_name_the_line_of_the_entry(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_serialize_matches_configparser_rendering():
    rng = np.random.default_rng(5)
    for _ in range(60):
        cfg = parse_config("")
        for name in cfg:
            if name.startswith("run."):
                cfg[name] = int(rng.integers(-2**62, 2**62))
            else:
                cfg[name] = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
        text = serialize_config(cfg)
        assert text == reference_serialize_config(cfg)
        assert parse_config(text) == cfg


def test_out_of_range_value_becomes_config_error():
    cfg = parse_config("[loss]\neta_homodyne = 1.5\n")
    with pytest.raises(ConfigError):
        protocol_config_from(cfg)


def test_run_optimal_config(capsys):
    code, out, err = run_cli(capsys, "run", str(CONFIGS / "optimal.cfg"))
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"]["f_clone1"] == pytest.approx(2 / 3, abs=1e-9)
    assert doc["fidelity"]["f_clone2"] == pytest.approx(2 / 3, abs=1e-9)
    assert doc["criteria"]["a_b"] == pytest.approx(0.5, abs=1e-9)
    assert doc["gains"]["g_x1"] == pytest.approx(1.0, abs=1e-12)
    assert "fidelities" in err


def test_run_classical_config(capsys):
    code, out, _ = run_cli(capsys, "run", str(CONFIGS / "classical.cfg"))
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"]["f_clone1"] == pytest.approx(0.5, abs=1e-9)
    assert doc["criteria"]["a_b"] == pytest.approx(1.0, abs=1e-9)


def test_run_paper_config(capsys):
    code, out, _ = run_cli(capsys, "run", str(CONFIGS / "paper.cfg"))
    assert code == 0
    doc = json.loads(out)
    for key in ("f_clone1", "f_clone2"):
        assert 0.57 <= doc["fidelity"][key] <= 0.59


def test_run_output_prints_full_precision(capsys):
    from telecloning import (SqueezerSpec, build_telecloning_resource,
                             clone_pair_criterion_lhs)
    _, out, _ = run_cli(capsys, "run", str(CONFIGS / "optimal.cfg"))
    doc = json.loads(out)
    # the printed document round-trips bit exactly
    cfg = load_config(str(CONFIGS / "optimal.cfg"))
    spec = SqueezerSpec(cfg["squeezer_i.squeezing_db"],
                        cfg["squeezer_i.antisqueezing_db"])
    expected = clone_pair_criterion_lhs(
        build_telecloning_resource(spec, spec, eta=(1.0, 1.0, 1.0)))
    assert doc["criteria"]["b_c"] == expected
    assert doc["clone_moments"]["clone1"]["var_x"] == pytest.approx(0.5, abs=1e-12)


def test_run_malformed_key_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[gains]\ngx9 = 1\n")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert out == ""
    assert "gains.gx9" in err


def test_run_unreadable_config_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", str(tmp_path / "absent.cfg"))
    assert code == 1
    assert "absent.cfg" in err


def test_run_unphysical_squeezer_exits_2(capsys, tmp_path):
    bad = tmp_path / "phys.cfg"
    bad.write_text("[squeezer_i]\nsqueezing_db = 10\nantisqueezing_db = 5\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "physicality" in err


def test_sample_writes_deterministic_csv(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, out, _ = run_cli(capsys, "sample", str(CONFIGS / "optimal.cfg"),
                               "--shots", "400", "--seed", "2024", "--csv", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"]["shots"] == 400
        assert doc["clone_moments"]["clone1"]["se_var_x"] > 0
    assert a.read_bytes() == b.read_bytes()
    rows = list(csv.reader(io.StringIO(a.read_text())))
    assert rows[0] == ["shot", "x_u", "p_v", "x1", "p1", "x2", "p2"]
    assert len(rows) == 401
    assert a.read_text().endswith("\n")
    assert "\r" not in a.read_text()


def test_sample_unwritable_csv_exits_1_without_output(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "sample", str(CONFIGS / "optimal.cfg"),
                             "--shots", "10", "--csv", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: cannot write {path}")
    assert not path.parent.exists()


def test_commands_print_the_same_bytes_when_repeated_in_one_process(capsys, tmp_path):
    with pytest.raises(SystemExit):  # a rejected command line comes first
        main(["no-such-command"])
    capsys.readouterr()
    cfg = str(CONFIGS / "paper.cfg")
    csv_path = tmp_path / "shots.csv"
    commands = (
        ["run", cfg],
        ["criteria", cfg],
        ["sample", cfg, "--shots", "300", "--seed", "5", "--csv", str(csv_path)],
        ["sample", cfg, "--shots", "300", "--seed", "5", "--sampled"],
        ["sweep", cfg, "--param", "pump_mw", "--from", "0", "--to", "90", "--steps", "31"],
        ["sweep", cfg, "--param", "squeezing_db", "--from", "0", "--to", "12",
         "--steps", "31"],
    )
    csv_path.write_bytes(b"")
    for argv in commands:
        first = run_cli(capsys, *argv), csv_path.read_bytes()
        second = run_cli(capsys, *argv), csv_path.read_bytes()
        assert first[0][0] == 0, argv
        assert first == second, argv


def test_sample_single_shot(capsys, tmp_path):
    path = tmp_path / "one.csv"
    code, out, _ = run_cli(capsys, "sample", str(CONFIGS / "optimal.cfg"),
                           "--shots", "1", "--seed", "5", "--csv", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["clone_moments"]["clone1"]["se_mean_x"] is None
    assert len(path.read_text().splitlines()) == 2


def test_sample_estimates_fidelity(capsys):
    code, out, _ = run_cli(capsys, "sample", str(CONFIGS / "optimal.cfg"),
                           "--shots", "100000", "--seed", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"]["f_clone1"] == pytest.approx(2 / 3, abs=0.01)
    assert doc["fidelity"]["f_clone2"] == pytest.approx(2 / 3, abs=0.01)


def test_sweep_two_point_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", str(CONFIGS / "optimal.cfg"),
                           "--param", "squeezing_db",
                           "--from", "0", "--to", "12", "--steps", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["param_value", "squeezing_db", "antisqueezing_db",
                       "var_x_clone", "var_p_clone", "fidelity"]
    assert len(rows) == 3
    assert float(rows[1][5]) == pytest.approx(0.5, abs=1e-9)


def test_sweep_locates_optimum(capsys):
    code, out, _ = run_cli(capsys, "sweep", str(CONFIGS / "classical.cfg"),
                           "--param", "squeezing_db",
                           "--from", "0", "--to", "12", "--steps", "1201")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    fid = [float(r[5]) for r in rows]
    best = max(range(len(fid)), key=fid.__getitem__)
    assert float(rows[best][0]) == pytest.approx(7.6555137, abs=0.05)
    assert fid[best] == pytest.approx(2 / 3, abs=1e-6)


def test_sweep_pump_param(capsys, tmp_path):
    cfg = tmp_path / "pump.cfg"
    cfg.write_text("[opo]\np_threshold_mw = 100.0\neta_det = 0.95\n")
    code, out, _ = run_cli(capsys, "sweep", str(cfg), "--param", "pump_mw",
                           "--from", "0", "--to", "90", "--steps", "10")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert float(rows[0][5]) == pytest.approx(0.5, abs=1e-12)
    assert all(float(r[5]) <= 2 / 3 + 1e-9 for r in rows)


def test_sweep_pump_without_detected_squeezing(capsys, tmp_path):
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("[opo]\np_threshold_mw = 100.0\neta_det = 0\n")
    code, out, err = run_cli(capsys, "sweep", str(cfg), "--param", "pump_mw",
                             "--from", "0", "--to", "99.99", "--steps", "401")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 401
    assert all(r[1:3] == ["0", "0"] and float(r[5]) == 0.5 for r in rows)


def test_sweep_invalid_range_exits_1(capsys):
    code, _, err = run_cli(capsys, "sweep", str(CONFIGS / "optimal.cfg"),
                           "--param", "squeezing_db",
                           "--from", "5", "--to", "1", "--steps", "4")
    assert code == 1
    assert "--from" in err


def test_criteria_command(capsys):
    code, out, _ = run_cli(capsys, "criteria", str(CONFIGS / "optimal.cfg"))
    assert code == 0
    doc = json.loads(out)
    assert doc["criteria"]["a_b"] == pytest.approx(0.5, abs=1e-9)
    assert doc["criteria"]["a_b"] == pytest.approx(doc["criteria"]["a_c"], abs=1e-12)
    assert doc["optimal_squeezing"]["db"] == pytest.approx(7.656, abs=1e-3)


def test_load_config_applies_run_overrides():
    cfg = load_config(str(CONFIGS / "optimal.cfg"))
    config = protocol_config_from(cfg)
    assert config.shots == 100_000
    assert config.seed == 42
    assert config.input_alpha == 5 + 3j


@pytest.mark.parametrize("section, key, value", (
    ("input", "alpha_re", "nan"),
    ("squeezer_i", "squeezing_db", "inf"),
    ("gains", "gx1", "-infinity"),
))
def test_non_finite_value_is_config_error(section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        parse_config(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("text", (
    "[input]\nalpha_re = nan\n",
    "[squeezer_i]\nsqueezing_db = inf\n",
))
def test_sample_non_finite_config_exits_1(capsys, tmp_path, text):
    bad = tmp_path / "nonfinite.cfg"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "sample", str(bad), "--shots", "10")
    assert code == 1
    assert out == ""
    assert "non-finite" in err


def test_sample_csv_matches_csv_writer_rendering(capsys, tmp_path):
    from telecloning import run_monte_carlo
    path = tmp_path / "shots.csv"
    code, out, _ = run_cli(capsys, "sample", str(CONFIGS / "paper.cfg"),
                           "--shots", "300", "--seed", "77", "--csv", str(path))
    assert code == 0
    assert json.loads(out)["provenance"]["rng"] == "philox4x64-10/ndtri52/v2"
    cfg = load_config(str(CONFIGS / "paper.cfg"))
    cfg["run.shots"], cfg["run.seed"] = 300, 77
    _, records = run_monte_carlo(protocol_config_from(cfg))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["shot", "x_u", "p_v", "x1", "p1", "x2", "p2"])
    for j, r in enumerate(records):
        writer.writerow([j] + ["%.12g" % v for v in
                               (r.x_u, r.p_v, r.x1, r.p1, r.x2, r.p2)])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@pytest.mark.parametrize("param, start, stop", (
    ("squeezing_db", "-1", "3"),     # negative squeezing magnitude
    ("pump_mw", "0", "150"),         # pump grid reaches the 100 mW threshold
    ("pump_mw", "-1", "50"),         # negative pump
    ("squeezing_db", "0", "nan"),
    ("squeezing_db", "0", "inf"),
    ("pump_mw", "-inf", "50"),
))
def test_sweep_bad_grid_exits_1_without_output(capsys, param, start, stop):
    code, out, err = run_cli(capsys, "sweep", str(CONFIGS / "optimal.cfg"),
                             "--param", param, f"--from={start}", f"--to={stop}",
                             "--steps", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("config error:")


def test_sweep_overflow_exits_2_without_output(capsys):
    code, out, err = run_cli(capsys, "sweep", str(CONFIGS / "optimal.cfg"),
                             "--param", "squeezing_db", "--from", "0",
                             "--to", "1e308", "--steps", "5")
    assert code == 2
    assert out == ""
    assert "numeric error" in err


@pytest.mark.parametrize("command, text", (
    (("sample", "--shots", "50"), "[gains]\ngp2 = 1e160\n"),
    (("sample", "--shots", "50"), "[gains]\ngp1 = 1e101\n[input]\nalpha_im = 1e253\n"),
    (("run",), "[gains]\ngx1 = 1e178\n"
               "[loss]\neta_homodyne = 1e-300\neta_resource_a = 0.0\n"),
    # raw samples near 2.6e16 are spaced 4 apart, so their spread rounds to 0
    (("sample", "--shots", "50", "--sampled"),
     "[input]\nalpha_re = 2.55226156524495e16\n[gains]\ngx1 = 0.0\ngp1 = 0.0\ngp2 = 0.0\n"
     "[loss]\neta_resource_a = 0.0\neta_resource_b = 0.0\neta_resource_c = 0.0\n"),
))
def test_unrepresentable_result_exits_2_without_output(capsys, tmp_path, command, text):
    path = tmp_path / "numeric.cfg"
    path.write_text(text)
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("numeric error:")


@pytest.mark.parametrize("argv", (
    ("run",),
    ("sweep", "--param", "squeezing_db", "--from", "0", "--to", "3", "--steps", "5"),
))
def test_analytic_overflow_names_its_stage(capsys, tmp_path, argv):
    path = tmp_path / "overflow.cfg"
    path.write_text("[gains]\ngp2 = 1e160\n")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("numeric error: analytic clone variances overflow")


@pytest.mark.parametrize("command, text", (
    (("run",), "[gains]\ngx1 = 1e178\n"
               "[loss]\neta_homodyne = 1e-300\neta_resource_a = 0.0\n"),
    (("sample", "--shots", "10"), "[gains]\ngp2 = 1e160\n"),
))
def test_numeric_error_is_the_only_line_on_stderr(capsys, tmp_path, command, text):
    path = tmp_path / "numeric.cfg"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == 1 and err.startswith("numeric error:")


def test_run_and_sweep_leave_scipy_and_configparser_unimported():
    script = (
        "import contextlib, io, sys\n"
        "import telecloning.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "sweep = ['sweep', sys.argv[1], '--param', 'squeezing_db',\n"
        "         '--from', '0', '--to', '3', '--steps', '5']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [telecloning.cli.main(['run', sys.argv[1]]), telecloning.cli.main(sweep)]\n"
        "assert 'configparser' not in sys.modules\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, str(CONFIGS / "paper.cfg")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0] []\n"


def _reference_sweep_rows(cfg: dict, param: str, grid) -> list[tuple]:
    """The sweep as first written: one spec and one analytic run per point."""
    config = protocol_config_from(cfg)
    rows = []
    for value in grid:
        if param == "squeezing_db":
            spec = (float(value), float(value))
        else:
            spec = reference_spectra(opo_params_from(cfg), float(value))
        mean_x, mean_p, var_x, var_p = reference_clones(config, spec, spec)[0]
        fid = reference_fidelity((mean_x, mean_p), np.diag([var_x, var_p]),
                                 config.input_alpha)
        rows.append((value, *spec, var_x, var_p, fid))
    return rows


def _render(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["param_value", "squeezing_db", "antisqueezing_db",
                     "var_x_clone", "var_p_clone", "fidelity"])
    for row in rows:
        writer.writerow(["%.12g" % v for v in row])
    return out.getvalue()


@pytest.mark.parametrize("name", ("optimal", "classical", "paper"))
@pytest.mark.parametrize("param, stop, steps", (
    ("squeezing_db", 12.0, 1201),
    ("pump_mw", 95.0, 241),
))
def test_sweep_matches_per_point_rendering(capsys, name, param, stop, steps):
    path = CONFIGS / f"{name}.cfg"
    code, out, _ = run_cli(capsys, "sweep", str(path), "--param", param,
                           "--from", "0", "--to", repr(stop), "--steps", str(steps))
    assert code == 0
    grid = np.linspace(0.0, stop, steps)
    expected = _render(_reference_sweep_rows(load_config(str(path)), param, grid))
    # name the first differing row; pytest's diff of the whole CSV takes minutes
    got, want = out.splitlines(), expected.splitlines()
    first = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None, (first, got[first], want[first])
    assert out == expected


@pytest.mark.parametrize("seed", range(6))
def test_sweep_values_match_per_point_on_random_configs(seed):
    from telecloning.cli import _sweep_block

    rng = np.random.default_rng(900 + seed)
    config = random_config(rng)
    cfg = parse_config(f"[opo]\np_threshold_mw = {rng.uniform(50.0, 300.0)!r}\n"
                       f"eta_det = {rng.uniform(0.5, 1.0)!r}\n"
                       f"omega = {rng.uniform(0.0, 1.0)!r}\n")
    cfg.update({
        "input.alpha_re": config.input_alpha.real,
        "input.alpha_im": config.input_alpha.imag,
        "gains.gx1": config.gains[0], "gains.gp1": config.gains[1],
        "gains.gx2": config.gains[2], "gains.gp2": config.gains[3],
        "loss.eta_homodyne": config.eta_homodyne,
        "loss.eta_resource_a": config.eta_resource[0],
        "loss.eta_resource_b": config.eta_resource[1],
        "loss.eta_resource_c": config.eta_resource[2],
        "loss.coupler_t": config.coupler_t,
    })
    assert all(g != 1.0 for g in config.gains) and config.input_alpha != 0
    params = opo_params_from(cfg)
    for param, grid in (("squeezing_db", np.linspace(0.0, 15.0, 151)),
                        ("pump_mw", np.linspace(0.0, 0.98 * params.p_threshold_mw, 151))):
        columns = _sweep_block(protocol_config_from(cfg),
                               params if param == "pump_mw" else None, grid)
        reference = np.array(_reference_sweep_rows(cfg, param, grid)).T
        np.testing.assert_allclose(columns, reference[1:], rtol=1e-12, atol=0.0)


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _sweep_peak_bytes(steps: int) -> int:
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            code = main(["sweep", str(CONFIGS / "paper.cfg"), "--param", "squeezing_db",
                         "--from", "0", "--to", "12", "--steps", str(steps)])
        assert code == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_grows_only_by_the_grid():
    small, large = 20_001, 200_001
    # the grid and its five computed columns, as float64
    grid_bytes = 6 * 8 * (large - small)
    growth = _sweep_peak_bytes(large) - _sweep_peak_bytes(small)
    assert growth <= grid_bytes + (1 << 20)
