import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    acceptance_pool,
    assert_passes_below_avx512,
    collect_records,
    config_dict,
    random_config,
    reference_clones,
    reference_fidelity,
    reference_serialize_config,
    reference_spectra,
)
from telecloning.cli import _CSV_BLOCK_ROWS, _emit, main
from telecloning.config import (
    ConfigError,
    load_config,
    opo_params_from,
    parse_config,
    protocol_config_from,
    serialize_config,
)
from telecloning.csvtext import _round12, csv_rows
from telecloning.opo import fidelity_vs_pump, pump_spectra
from telecloning.protocol import _LIBC, clone_curve

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


@pytest.mark.parametrize("mode", (("--shots", "1"), ("--shots", "1", "--sampled"),
                                  ("--shots", "1000")))
def test_sample_negative_conditioned_variance_exits_2(capsys, tmp_path, mode):
    # rounding at 300 dB of antisqueezing leaves the conditioned receiver
    # covariance with diagonal (0.25, -8192, 0.25, -8.8e12), whose symplectic
    # eigenvalues pass; one shot ended in a traceback and 1000 shots exited 0.
    # Both negative variances lie within the check's rounding bound (4.4e14)
    # of 0: lost precision, a numeric error
    path = tmp_path / "negative.cfg"
    path.write_text("[squeezer_ii]\nantisqueezing_db = 300.0\n"
                    "[input]\nalpha_re = 40.0\nalpha_im = 80.0\n[gains]\ngx2 = 300.0\n"
                    "[loss]\neta_resource_a = 0.999\neta_resource_b = 1e-09\n")
    code, out, err = run_cli(capsys, "sample", str(path), *mode)
    assert (code, out) == (2, "")
    assert err == ("numeric error: conditioned receiver modes lost precision: variance "
                   "-8.79609302221e+12 is within the rounding bound 4.44103253184e+14 of 0\n")


@pytest.mark.parametrize("argv", (("run",), ("sample", "--shots", "16"),
                                  ("sample", "--shots", "16", "--sampled"), ("criteria",)))
def test_physicality_checks_make_no_general_eigvals_call(capsys, monkeypatch, argv):
    # the states are bona fide by construction, so no op solves an
    # eigenproblem to check them: the tests hold them to assert_physical.
    # eigvalsh cost ~10% of a run op; the non-Hermitian eigvals of i Omega V
    # cost twice that and rejected valid states above ~80 dB
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} was called")
        return call

    for name in ("eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse(name))
    code, out, err = run_cli(capsys, argv[0], str(CONFIGS / "paper.cfg"), *argv[1:])
    assert code == 0, err
    assert json.loads(out)


def test_run_and_sample_accept_the_same_configs(capsys, tmp_path):
    # both commands read one checked measurement plan: run exits 0 exactly
    # where both sample modes exit 0, since its own path gate is relative to
    # the moments' scale and rejects no config of the pool that sample takes;
    # otherwise all three print the same error line
    path, decided = tmp_path / "pool.cfg", {}
    for name, config in acceptance_pool().items():
        path.write_text(serialize_config(config_dict(config)))
        code, _, err = run_cli(capsys, "run", str(path))
        sampled = [run_cli(capsys, "sample", str(path), "--shots", "16", *mode)
                   for mode in ((), ("--sampled",))]
        if code == 0:
            assert [c for c, _, _ in sampled] == [0, 0], (name, err, sampled)
        else:
            assert [(c, e) for c, _, e in sampled] == [(code, err)] * 2, (name, err, sampled)
        decided[name] = code == 0, err
    assert sum(ok for ok, _ in decided.values()) >= 100
    # its conditioned variance rounds to -8, within the bound 888 of 0
    assert decided["pure 180 dB"] == (False, "numeric error: conditioned receiver modes lost "
                                             "precision: variance -8 is within the rounding "
                                             "bound 888.178419701 of 0\n")


@pytest.mark.parametrize("field, shift, code", (("mean_x", 1e-4, 0), ("var_x", 1e-6, 2)))
def test_path_gate_holds_each_moment_to_its_own_scale(capsys, monkeypatch, tmp_path,
                                                      field, shift, code):
    # at alpha = 1e6 a mean may round by 1e-4 (1e-10 of itself), but the
    # variances near 0.75 stay held to 1e-9: the means' scale loosens no variance
    import telecloning.cli

    real = telecloning.cli.run_circuit_analytic

    def shifted(config):
        moments = real(config)
        clone1 = dataclasses.replace(moments.clone1,
                                     **{field: getattr(moments.clone1, field) + shift})
        return dataclasses.replace(moments, clone1=clone1)

    monkeypatch.setattr(telecloning.cli, "run_circuit_analytic", shifted)
    path = tmp_path / "bright.cfg"
    path.write_text("[input]\nalpha_re = 1e6\n")
    got, out, err = run_cli(capsys, "run", str(path))
    assert got == code, err
    if code:
        assert (out, err) == ("", f"error: analytic paths disagree by {shift:.3e}\n")


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


@pytest.mark.parametrize("mode", ((), ("--sampled",)))
def test_sample_with_an_overflowing_measurement_plan_exits_2(capsys, tmp_path, mode):
    # the plan's spread overflows to inf: plain sample exited 0 with both
    # fidelities 0, and --sampled ended in a traceback from fidelity_general
    path = tmp_path / "plan.cfg"
    path.write_text("[squeezer_i]\nsqueezing_db = 6.426134295745629\n"
                    "antisqueezing_db = 6.426134295745629\n"
                    "[squeezer_ii]\nsqueezing_db = 300.418\nantisqueezing_db = 300.418\n"
                    "[input]\nalpha_im = -3.9266619413165473e+40\n"
                    "[gains]\ngx1 = 0\ngp1 = 9.62304617935657e+152\ngx2 = 0\ngp2 = 0\n"
                    "[loss]\neta_homodyne = 0.9492080464234985\n"
                    "eta_resource_a = 0.11140087526732123\neta_resource_b = 0\n"
                    "eta_resource_c = 1e-9\ncoupler_t = 0.999\n[run]\nseed = 1010359718\n")
    code, out, err = run_cli(capsys, "sample", str(path), "--shots", "50", *mode)
    assert (code, out) == (2, "")
    assert err == "numeric error: measurement plan overflows: a value is not finite\n"


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


def test_sweep_writes_levels_just_below_1e_minus_11(capsys):
    # 9.99999999999e-12 once printed as 1e-11: scaled by the 1e-11 row's
    # 1e22, it rounded up into the 12-digit range
    code, out, _ = run_cli(capsys, "sweep", str(CONFIGS / "paper.cfg"),
                           "--param", "squeezing_db",
                           "--from", "0", "--to", "9.99999999999e-12", "--steps", "2")
    assert code == 0
    assert out.splitlines()[2].split(",")[:3] == ["9.99999999999e-12"] * 3


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


@pytest.mark.parametrize("key", ("shots", "seed"))
def test_integer_beyond_float_range_exits_1(capsys, tmp_path, key):
    # math.isfinite raises OverflowError on such an int instead of answering
    path = tmp_path / "huge.cfg"
    path.write_text(f"[run]\n{key} = {'9' * 400}\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: out-of-range value for 'run.{key}': ")
    assert err.rstrip().endswith("(line 2)")


def test_sample_csv_matches_csv_writer_rendering(capsys, tmp_path):
    path = tmp_path / "shots.csv"
    shots = 2 * _CSV_BLOCK_ROWS + 7  # two block seams and a partial block
    code, out, _ = run_cli(capsys, "sample", str(CONFIGS / "paper.cfg"),
                           "--shots", str(shots), "--seed", "77", "--csv", str(path))
    assert code == 0
    assert json.loads(out)["provenance"]["rng"] == "philox4x64-10/ctr2j/ndtri52/v4"
    cfg = load_config(str(CONFIGS / "paper.cfg"))
    cfg["run.shots"], cfg["run.seed"] = shots, 77
    _, records = collect_records(protocol_config_from(cfg))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["shot", "x_u", "p_v", "x1", "p1", "x2", "p2"])
    for j, r in enumerate(records.T):
        writer.writerow([j] + ["%.12g" % v for v in r.tolist()])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def _percent_rows(values, index=None) -> bytes:
    """The CSV rows as the ``%`` operator writes them, one value at a time."""
    lead = [[] for _ in values] if index is None else [["%d" % j] for j in index.tolist()]
    return "".join(",".join(head + ["%.12g" % v for v in row]) + "\n"
                   for head, row in zip(lead, values.tolist())).encode("ascii")


def _decimal_near_ties() -> list:
    """Decimal ties that binary cannot hold: the nearest double lies just
    off the tie, and a scaled value may round onto it."""
    return [float(f"{digits}5e{x}") for digits in ("1.23456789012", "3.14159265358",
                                                   "7.00000000000", "9.99999999999")
            for x in range(-12, 35)]


def _float_edges() -> np.ndarray:
    tens = np.array([float(f"1e{k}") for k in range(-330, 309)])
    ties = [1e12 + 0.5, 999999999999.5, 123456789012.5, 1e15 + 5e3, 1e15 + 15e3,
            109951162777.5]
    round_up = [9.9999999999995, 99999999999.95, 0.99999999999995, 9.9999999999995e-5,
                9.9999999999995e20, 9.99999999999949, 9.99999999999951]
    trailing_zeros = [10.0, 100.0, 1e5, 1e11, 120.0, 1200000.0, 0.1, 0.5, 2.5, 1e-4]
    switch = [1e-5, 9.99999999999e-5, 9.999999999995e-5, 0.0001, 999999999999.4, 1e12,
              99999999999.9, 123456789012.0, 1234567890123.0, 1e-11, 9.99e33, 1e34,
              9.99999999995e-12, 9.99999999999e-12, 9.999999999994e-12]  # just below 1e-11
    special = [0.0, math.inf, math.nan, 5e-324, 1e-310, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate((tens, np.nextafter(tens, np.inf), np.nextafter(tens, -np.inf),
                             ties, round_up, trailing_zeros, switch, _decimal_near_ties(), special))
    return np.concatenate((values, -values))


def test_csv_rows_write_the_bytes_of_percent_on_edge_values():
    values = _float_edges()
    rows = np.resize(values, (-(-values.size // 7), 7))
    # a shot index at every digit-count boundary up to 2**63 - 1
    index = np.resize([0, 2**63 - 1] + [10**k + d for k in range(1, 19) for d in (-1, 0)],
                      len(rows)).astype(np.int64)
    assert csv_rows(rows, index) == _percent_rows(rows, index)
    assert csv_rows(rows) == _percent_rows(rows)


_FLOAT64 = (st.floats(width=64)
            | st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
            | st.floats(-1e3, 1e3))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(rows=st.integers(1, 7).flatmap(
           lambda width: st.lists(st.lists(_FLOAT64, min_size=width, max_size=width),
                                  min_size=1, max_size=12)),
       with_index=st.booleans(), data=st.data())
def test_csv_rows_write_the_bytes_of_percent(rows, with_index, data):
    values = np.array(rows, dtype=np.float64)
    index = None
    if with_index:
        index = np.array(data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(rows),
                                            max_size=len(rows))), dtype=np.int64)
    assert csv_rows(values, index) == _percent_rows(values, index)


def test_few_monte_carlo_values_take_the_python_route():
    # the vectorised writer's speed rests on this share: the values it
    # leaves to Python are the scaled values exactly at a half (41 here)
    cfg = load_config(str(CONFIGS / "paper.cfg"))
    cfg["run.shots"], cfg["run.seed"] = 100_000, 1401
    _, records = collect_records(protocol_config_from(cfg))
    slow = _round12(records.ravel())[2]
    assert np.count_nonzero(slow) < 82  # twice the count, 1.4e-4 of the 6e5 values


def _scaled(values: np.ndarray) -> np.ndarray:
    """|v| * 10**(11 - e) with one correctly rounded multiply or divide."""
    exponent = [int(("%.11e" % v).split("e")[1]) for v in values.tolist()]
    up = np.array([float(10 ** max(11 - e, 0)) for e in exponent])
    return np.abs(values) * up / np.array([float(10 ** max(e - 11, 0)) for e in exponent])


def test_round12_leaves_exact_halves_to_python():
    # each scaled value is exactly n + 1/2: e = 11, 12 (a divide), 10, 9
    halves = np.array([123456789012.5, 1234567890125.0, 12345678901.25, 1234567890.125])
    halves = np.concatenate((halves, -halves))
    assert np.all(np.modf(_scaled(halves))[0] == 0.5)
    assert _round12(halves)[2].all()
    assert csv_rows(halves[:, None]) == _percent_rows(halves[:, None])


def test_round12_decides_every_decimal_near_tie_off_a_half():
    # one correctly rounded scaling is monotone and half-integers below 2**52
    # are doubles, so a scaled value off every half rounds as the exact
    # product does: only those that land on a half go to Python
    # (the 9.99999999999 ties round up to a power of ten, and exponents
    # outside -11..33 have no table: both go to Python for other reasons)
    values = np.array([v for v in _decimal_near_ties() if -11 <= math.floor(math.log10(v)) <= 33
                       and not ("%.11e" % v).startswith("1.00000000000")])
    values = np.concatenate((values, -values))
    key, digits, slow = _round12(values)
    on_half = np.modf(_scaled(values))[0] == 0.5
    assert np.array_equal(slow, on_half)
    assert 0 < np.count_nonzero(on_half) < values.size
    expected = [int(("%.11e" % v).split("e")[0].replace(".", "").lstrip("-")) for v in values]
    assert np.array_equal(digits[~slow], np.array(expected)[~slow])


def test_writer_bytes_are_the_same_without_avx512():
    # numpy picks its SIMD loops by CPU at import; rerun the CSV byte-equality
    # tests in a process held to the loops below AVX-512
    assert_passes_below_avx512(__file__, "-k", "csv or percent or python_route or round12")


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


def test_sweep_pump_with_overflowing_omega_exits_1(capsys, tmp_path):
    cfg = tmp_path / "omega.cfg"
    cfg.write_text("[opo]\nomega = 1e200\n")
    code, out, err = run_cli(capsys, "sweep", str(cfg), "--param", "pump_mw",
                             "--from", "0", "--to", "90", "--steps", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("config error: analysis frequency")


@pytest.mark.parametrize("command", (
    ("run",), ("criteria",), ("sample", "--shots", "64"),
    ("sample", "--shots", "64", "--sampled"),
))
def test_each_command_builds_one_resource(capsys, monkeypatch, command):
    import telecloning.protocol

    built = []
    real = telecloning.protocol.build_telecloning_resource

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(telecloning.protocol, "build_telecloning_resource", counting)
    code, _, _ = run_cli(capsys, command[0], str(CONFIGS / "paper.cfg"), *command[1:])
    assert code == 0
    assert len(built) == 1


def test_run_builds_one_gaussian_state(capsys, monkeypatch):
    # the resource: the pipeline after it, the measurement plan and the
    # clone output included, runs on plain arrays
    from telecloning.gaussian import GaussianState

    built = []
    real = GaussianState.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(GaussianState, "__post_init__", counting)
    code, _, _ = run_cli(capsys, "run", str(CONFIGS / "paper.cfg"))
    assert code == 0
    assert [state.n_modes for state in built] == [3]


# Documents of the result's shape: dicts of str keys, nested three deep,
# empty ones included; floats at the edges of repr, ints beyond 64 bits, and
# strings with non-ASCII, control and surrogate characters.
_JSON_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", "\x00\x1f\"\\/\x7f", "\u00e9\u2028\u2029", "\U0001f600\ud800", "\t\r\n"])
_JSON_LEAVES = (
    st.floats(allow_nan=False, allow_infinity=False) | st.integers() | _JSON_TEXT
    | st.none() | st.booleans()
    | st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308, 2**64, -2**100]))


def _json_dicts(values):
    return st.dictionaries(_JSON_TEXT, values, max_size=4)


@example({"": {}, "\u00e9\x00\u2028": {"a": {"b": -0.0, "c": {}}}, "yes": True, "no": False,
          "none": None, "tiny": 5e-324, "e16": 1e16, "big": 2**70, "neg": -2**100,
          "text": "\x1f\"\\\U0001f600\ud800", "int": 0, "float": 0.1})
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(document=_json_dicts(_JSON_LEAVES | _json_dicts(_JSON_LEAVES | _json_dicts(_JSON_LEAVES))))
def test_emitter_writes_the_bytes_of_json_dumps(document):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(document)
    assert out.getvalue() == json.dumps(document, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("value, shown", ((math.inf, "inf"), (-math.inf, "-inf"),
                                          (math.nan, "nan")))
def test_non_finite_result_is_a_numeric_error(capsys, monkeypatch, value, shown):
    import telecloning.cli

    monkeypatch.setattr(telecloning.cli, "optimal_squeezing", lambda: (1.0, value, 2.0))
    code, out, err = run_cli(capsys, "criteria", str(CONFIGS / "paper.cfg"))
    assert (code, out) == (2, "")
    assert err == ("numeric error: result is not finite: "
                   f"Out of range float values are not JSON compliant: {shown}\n")
    with pytest.raises(ValueError) as expected:  # json's own wording
        json.dumps({"db": value}, indent=2, allow_nan=False)
    assert err == f"numeric error: result is not finite: {expected.value}\n"


# the ids are those the two sweep cases had beside the three sample cases
# that a streamed sample made valid, so a run's test names stay comparable
@pytest.mark.parametrize("command, text", (
    pytest.param(("sweep", "--param", "squeezing_db", "--from", "0", "--to", "3",
                  "--steps", str(10**14)), "", id="command1-"),
    # a size numpy itself refuses, with a ValueError, before any allocation
    pytest.param(("sweep", "--param", "squeezing_db", "--from", "0", "--to", "3",
                  "--steps", str(2 * 10**18)), "", id="command4-"),
))
def test_unallocatable_size_exits_1_without_output(capsys, tmp_path, command, text):
    # a 728 TiB grid exceeds the 2**47 bytes a process can map by default, so
    # the allocation fails before any page is touched, whatever the
    # overcommit setting
    path = tmp_path / "huge.cfg"
    path.write_text(text)
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error: out of memory")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, text", (
    ((), f"[run]\nshots = {10**20}\n"),
    (("--shots", str(2**64 + 1), "--sampled"), ""),
))
def test_sample_beyond_the_shot_indices_exits_1_without_output(capsys, tmp_path, argv, text):
    # the RNG contract indexes shots 0 .. 2**64 - 1; a streamed run holds no
    # per-shot memory, so that is the only bound on the shot count
    path, csv_path = tmp_path / "huge.cfg", tmp_path / "shots.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "sample", str(path), *argv, "--csv", str(csv_path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: shots must be at most 2**64 = {2**64}, ")
    assert not csv_path.exists()


@pytest.mark.parametrize("command", (
    ("run",), ("criteria",),
    ("sweep", "--param", "squeezing_db", "--from", "0", "--to", "3", "--steps", "2"),
), ids=("run", "criteria", "sweep"))
def test_commands_that_draw_no_shot_keep_the_shot_limit(capsys, tmp_path, command):
    # one acceptance rule per config: ProtocolConfig bounds the shots for
    # every command, so 2**64 goes through and 2**64 + 1 is the config error
    # that sample gives, though these commands draw no shot
    path = tmp_path / "shots.cfg"
    path.write_text(f"[run]\nshots = {2**64 + 1}\n")
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (1, "")
    assert err.startswith(f"config error: shots must be at most 2**64 = {2**64}, "
                          "the shot indices of RNG contract ")
    path.write_text(f"[run]\nshots = {2**64}\n")
    assert run_cli(capsys, command[0], str(path), *command[1:])[0] == 0


def test_sample_accepts_2_to_the_64_shots(capsys, monkeypatch):
    import telecloning.cli

    def stop(config, sampled, sink=None):
        raise MemoryError(f"stopped before drawing {config.shots} shots")

    monkeypatch.setattr(telecloning.cli, "run_monte_carlo", stop)
    code, out, err = run_cli(capsys, "sample", str(CONFIGS / "paper.cfg"), "--shots", str(2**64))
    assert (code, out) == (1, "")
    assert err == f"config error: out of memory: stopped before drawing {2**64} shots\n"


@pytest.mark.parametrize("mode", ((), ("--sampled",)))
@pytest.mark.parametrize("existing", ("fresh", "replaced", "linked"))
def test_sample_csv_is_removed_when_a_draw_fails_a_check(capsys, tmp_path, mode, existing):
    # the rows go out as they are drawn and the moments are checked after
    # the last chunk: a failing run leaves no CSV, nor the file it replaced,
    # and through a symbolic link it removes the file the link named
    text = (CONFIGS / "paper.cfg").read_text().replace("alpha_re = 5.0", "alpha_re = 1e16")
    path, csv_path, target = tmp_path / "large.cfg", tmp_path / "shots.csv", tmp_path / "t.csv"
    path.write_text(text)
    if existing == "replaced":
        csv_path.write_bytes(b"shot,x_u\n0,1\n")
    if existing == "linked":
        target.write_bytes(b"shot,x_u\n0,1\n")
        csv_path.symlink_to(target)
    code, out, err = run_cli(capsys, "sample", str(path), "--shots", "20000",
                             "--csv", str(csv_path), *mode)
    assert (code, out) == (2, "")
    assert err.startswith("numeric error: Monte Carlo samples are too coarse")
    assert not csv_path.exists() and not target.exists()


def test_sample_csv_is_removed_when_a_write_fails(capsys, tmp_path, monkeypatch):
    import telecloning.cli

    blocks = []

    def fill_the_disk(values, index):
        blocks.append(index[0])
        if len(blocks) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return csv_rows(values, index)

    monkeypatch.setattr(telecloning.cli, "csv_rows", fill_the_disk)
    csv_path = tmp_path / "shots.csv"
    code, out, err = run_cli(capsys, "sample", str(CONFIGS / "paper.cfg"), "--shots", "20000",
                             "--csv", str(csv_path))
    assert (code, out) == (1, "")
    assert err == f"config error: cannot write {csv_path}: {os.strerror(errno.ENOSPC)}\n"
    assert blocks == [0, 4096, 8192]  # two chunks started
    assert not csv_path.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_sample_csv_keeps_a_pipe_when_a_draw_fails_a_check(capsys, tmp_path):
    # rows sent down a pipe cannot be taken back, and the pipe is not the
    # run's to remove (nor would a device such as /dev/null be)
    text = (CONFIGS / "paper.cfg").read_text().replace("alpha_re = 5.0", "alpha_re = 1e16")
    path, pipe = tmp_path / "large.cfg", tmp_path / "rows"
    path.write_text(text)
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    code, out, err = run_cli(capsys, "sample", str(path), "--shots", "20000", "--csv", str(pipe))
    reader.join(timeout=60)
    assert (code, out) == (2, "")
    assert err.startswith("numeric error: Monte Carlo samples are too coarse")
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert received[0].count(b"\n") == 20001


@pytest.mark.parametrize("mode", ((), ("--sampled",)))
def test_sample_csv_keeps_an_existing_file_when_the_run_fails_before_drawing(
        capsys, tmp_path, mode):
    # the conditioned variance that the 300 dB config below loses to rounding
    # fails the check made before the first chunk, so the file is never opened
    path, csv_path = tmp_path / "negative.cfg", tmp_path / "shots.csv"
    path.write_text("[squeezer_ii]\nantisqueezing_db = 300.0\n"
                    "[input]\nalpha_re = 40.0\nalpha_im = 80.0\n[gains]\ngx2 = 300.0\n"
                    "[loss]\neta_resource_a = 0.999\neta_resource_b = 1e-09\n")
    csv_path.write_bytes(b"shot,x_u\n0,1\n")
    code, out, err = run_cli(capsys, "sample", str(path), "--shots", "1000",
                             "--csv", str(csv_path), *mode)
    assert (code, out) == (2, "")
    assert err.startswith("numeric error: conditioned receiver modes lost precision")
    assert csv_path.read_bytes() == b"shot,x_u\n0,1\n"


@pytest.mark.parametrize("command, text", (
    (("sample", "--shots", "50"), "[gains]\ngp2 = 1e160\n"),
    (("sample", "--shots", "50"), "[gains]\ngp1 = 1e101\n[input]\nalpha_im = 1e253\n"),
    (("run",), "[gains]\ngx1 = 1e178\n"
               "[loss]\neta_homodyne = 1e-300\neta_resource_a = 0.0\n"),
    # raw samples near 2.6e16 are spaced 4 apart, so their spread rounds to 0
    (("sample", "--shots", "50", "--sampled"),
     "[input]\nalpha_re = 2.55226156524495e16\n[gains]\ngx1 = 0.0\ngp1 = 0.0\ngp2 = 0.0\n"
     "[loss]\neta_resource_a = 0.0\neta_resource_b = 0.0\neta_resource_c = 0.0\n"),
    # the gain squared is finite, the analytic clone variance overflows to inf
    (("sweep", "--param", "squeezing_db", "--from", "0", "--to", "12", "--steps", "9"),
     "[gains]\ngp1 = 1e154\n[loss]\neta_resource_a = 0.0\neta_homodyne = 0.5\n"),
))
def test_unrepresentable_result_exits_2_without_output(capsys, tmp_path, command, text):
    path = tmp_path / "numeric.cfg"
    path.write_text(text)
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("numeric error:")


@pytest.mark.parametrize("mode", ((), ("--sampled",)))
@pytest.mark.parametrize("alpha_re", ("1e16", "1e12"))
def test_sample_rejects_samples_too_coarse_for_their_spread(capsys, tmp_path, mode, alpha_re):
    # ulp(1e16) = 2 quantises each clone x sample more coarsely than its spread
    # (var_x 0.61): the moments read 0.41 plain and 0.38 sampled, while at
    # 1e12 the spacing is 1.2e-4 and the moments match the analytic route
    text = (CONFIGS / "paper.cfg").read_text().replace("alpha_re = 5.0", f"alpha_re = {alpha_re}")
    path = tmp_path / "large.cfg"
    path.write_text(text)
    code, out, err = run_cli(capsys, "sample", str(path), "--shots", "20000", *mode)
    if alpha_re == "1e16":
        assert (code, out) == (2, "")
        assert err.startswith("numeric error: Monte Carlo samples are too coarse")
        return
    assert code == 0
    estimate = json.loads(out)["clone_moments"]["clone1"]
    from telecloning import run_analytic
    exact = run_analytic(protocol_config_from(load_config(str(path)))).clone1
    assert abs(estimate["var_x"] - exact.var_x) < 5 * estimate["se_var_x"]


@pytest.mark.parametrize("mode", ((), ("--sampled",)))
@pytest.mark.parametrize("gain, alpha_re", (("1e-13", "5"), ("0.01", "1e14")))
def test_sample_accepts_rounding_small_against_the_reported_variance(capsys, tmp_path, mode,
                                                                    gain, alpha_re):
    # no resource reaches the receivers: the shots vary by gain**2 / 2 and
    # the plain variance adds the conditional 0.25, which rounding at
    # ulp(1.4e12) = 2.4e-4 moves by less than 1e-3 of itself
    path = tmp_path / "small_gain.cfg"
    path.write_text(f"[input]\nalpha_re = {alpha_re}\nalpha_im = 3\n"
                    f"[gains]\ngx1 = {gain}\ngp1 = {gain}\ngx2 = {gain}\ngp2 = {gain}\n"
                    "[loss]\neta_resource_b = 0\neta_resource_c = 0\n")
    code, out, _ = run_cli(capsys, "sample", str(path), "--shots", "20000", *mode)
    assert code == 0
    estimate = json.loads(out)["clone_moments"]["clone1"]
    from telecloning import run_analytic
    exact = run_analytic(protocol_config_from(load_config(str(path)))).clone1
    assert abs(estimate["var_x"] - exact.var_x) < 5 * estimate["se_var_x"] + 1e-3 * exact.var_x


@pytest.mark.parametrize("mode", ((), ("--sampled",)))
def test_sample_without_shot_to_shot_spread_exits_0(capsys, tmp_path, mode):
    # no resource reaches the receivers and no gain acts: every clone mean is
    # exactly 0, a true spread of 0, and each clone is vacuum, F = exp(-|alpha|^2)
    path = tmp_path / "vacuum.cfg"
    path.write_text("[input]\nalpha_re = 1\nalpha_im = 1\n"
                    "[gains]\ngx1 = 0\ngp1 = 0\ngx2 = 0\ngp2 = 0\n"
                    "[loss]\neta_resource_b = 0\neta_resource_c = 0\n")
    code, out, _ = run_cli(capsys, "sample", str(path), "--shots", "16", *mode)
    assert code == 0
    if not mode:
        assert json.loads(out)["fidelity"]["f_clone1"] == pytest.approx(math.exp(-2))


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
    # `run` checks the measurement plan first, as `sample` does; `sweep` has
    # only the analytic route
    stage = "measurement plan" if argv[0] == "run" else "analytic clone variances"
    assert err.startswith(f"numeric error: {stage} overflow")


def test_analytic_inf_is_a_numeric_error_not_a_path_disagreement(capsys, tmp_path):
    # the direct expansion's var_p1 overflows to inf; the circuit route stays finite
    path = tmp_path / "overflow.cfg"
    path.write_text("[gains]\ngx1 = 0\ngp1 = 7.741001517595157e+153\ngx2 = 0\ngp2 = 0\n"
                    "[loss]\neta_resource_a = 0\neta_resource_b = 0\neta_resource_c = 0\n"
                    "eta_homodyne = 0.5\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert err == "numeric error: analytic clone variances overflows: a value is not finite\n"
    code, out, err = run_cli(capsys, "sweep", str(path), "--param", "squeezing_db",
                             "--from", "0", "--to", "10", "--steps", "3")
    assert (code, out) == (2, "")
    assert err == "numeric error: analytic clone variances overflows: a value is not finite\n"


def test_run_fails_at_the_stage_sample_names(capsys, tmp_path):
    # `run` builds the checked measurement plan before the direct expansion,
    # whose gx1 ** 2 also overflows, so all three commands name the plan; the
    # plan also checks the clone output, whose mean gx1 * alpha_re overflows
    # where the plan is finite, so `sample` names that stage too rather than
    # finding its samples too coarse
    path = tmp_path / "overflow.cfg"
    for text, stage in (
            ("[gains]\ngx1 = 1e200\n", "measurement plan"),
            ("[gains]\ngx1 = 1e153\n[input]\nalpha_re = 1e156\nalpha_im = 1\n",
             "clone output")):
        path.write_text(text)
        results = [run_cli(capsys, *argv) for argv in (
            ("run", str(path)), ("sample", str(path), "--shots", "16"),
            ("sample", str(path), "--shots", "16", "--sampled"))]
        assert results == [
            (2, "", f"numeric error: {stage} overflows: a value is not finite\n")] * 3


@pytest.mark.parametrize("param, top", (("squeezing_db", "3"), ("pump_mw", "90")))
def test_sweep_nan_clone_variance_is_a_numeric_error(capsys, tmp_path, param, top):
    # gp1 ** 2 overflows the Python-float ancilla term to inf, and its
    # eta_homodyne term is inf * 0 = NaN: a numeric error, as in `run`, not a
    # config error from the fidelity's positive-definite test
    path = tmp_path / "nan.cfg"
    path.write_text("[gains]\ngp1 = 1e178\n[loss]\neta_resource_a = 0\n")
    code, out, err = run_cli(capsys, "sweep", str(path), "--param", param,
                             "--from", "0", "--to", top, "--steps", "3")
    assert (code, out) == (2, "")
    assert err == "numeric error: analytic clone variances overflows: a value is not finite\n"


@pytest.mark.parametrize("command, text", (
    (("run",), "[gains]\ngx1 = 1e178\n"
               "[loss]\neta_homodyne = 1e-300\neta_resource_a = 0.0\n"),
    (("sample", "--shots", "10"), "[gains]\ngp2 = 1e160\n"),
    # ulp(1e17) = 16: every shot's clone x mean rounds to one double, so the
    # spread reads 0 where the shots vary
    (("sample", "--shots", "16"), "[input]\nalpha_re = 1e17\nalpha_im = 3\n"),
    (("sample", "--shots", "16", "--sampled"), "[input]\nalpha_re = 1e17\nalpha_im = 3\n"),
    # the clone mean is finite, but its squared distance from the input overflows
    (("sweep", "--param", "squeezing_db", "--from", "0", "--to", "10", "--steps", "3"),
     "[gains]\ngx1 = 2\n[input]\nalpha_re = 1e160\n"),
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


_SQUEEZER_3100 = "[squeezer_i]\nsqueezing_db = 3100\nantisqueezing_db = 3100\n"
_SQUEEZING_SWEEP = ("sweep", "--param", "squeezing_db", "--steps", "5")


@pytest.mark.parametrize("text, command, message", (
    *((_SQUEEZER_3100, command,
       "squeezer variance overflows: antisqueezing 3100.0 dB is out of the float range")
      for command in (("run",), ("criteria",), ("sample", "--shots", "16"),
                      ("sample", "--shots", "16", "--sampled"))),
    ("", (*_SQUEEZING_SWEEP, "--from", "3000", "--to", "4000"),
     "squeezer variance overflows: antisqueezing 3250.0 dB is out of the float range"),
    # a gain squared times an antisqueezed variance: run_analytic's stage
    ("[gains]\ngx1 = 1e150\n", (*_SQUEEZING_SWEEP, "--from", "100", "--to", "110"),
     "analytic clone variances overflows: a value is not finite"),
    # finite clone variances whose fidelity's s_x s_p overflows
    ("", (*_SQUEEZING_SWEEP, "--from", "2900", "--to", "3000"),
     "clone fidelity overflows: an intermediate value is out of the float range"),
), ids=("run", "criteria", "sample", "sample-sampled", "sweep-levels", "sweep-gain",
        "sweep-fidelity"))
def test_every_overflow_names_its_stage(capsys, tmp_path, text, command, message):
    # numpy's own text ("overflow encountered in ...") names no stage
    path = tmp_path / "overflow.cfg"
    path.write_text(text)
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (code, out, err) == (2, "", f"numeric error: {message}\n")
    assert "encountered in" not in err


def test_clone_curve_names_an_overflow_without_a_warning():
    config = protocol_config_from(parse_config("[gains]\ngx1 = 1e150\n"))
    levels = np.linspace(100.0, 110.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match="^analytic clone variances overflows: a value is not finite$"):
            clone_curve(config, levels, levels)


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


def test_sample_leaves_scipy_unimported(tmp_path):
    script = (
        "import contextlib, io, sys\n"
        "import telecloning.cli\n"
        "sample = ['sample', sys.argv[1], '--shots', '300']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [telecloning.cli.main(sample + extra)\n"
        "             for extra in ([], ['--csv', sys.argv[2]], ['--sampled'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, str(CONFIGS / "paper.cfg"),
                             str(tmp_path / "shots.csv")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0] []\n"
    assert (tmp_path / "shots.csv").exists()


def test_fits_leave_scipy_unimported():
    script = (
        "import contextlib, io, runpy, sys\n"
        "import telecloning\n"
        "telecloning.fit_params([(10.0, 1.0, 1.5), (20.0, 2.0, 3.0), (30.0, 3.0, 4.5)])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    runpy.run_path(sys.argv[1], run_name='__main__')\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, str(ROOT / "demos" / "05_pump_power.py")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _fresh_interpreter(script: str, *argv: str) -> str:
    """stdout of ``script`` run in a new interpreter on the package source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_and_fits_leave_numpy_ma_and_random_unimported():
    script = (
        "import contextlib, io, runpy, sys\n"
        "import telecloning, telecloning.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[:2] in\n"
        "                  (['numpy', 'ma'], ['numpy', 'random']))\n"
        "cfg = sys.argv[1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [telecloning.cli.main(argv) for argv in (\n"
        "        ['run', cfg], ['criteria', cfg],\n"
        "        ['sweep', cfg, '--param', 'pump_mw', '--from', '0', '--to', '90', '--steps', '241'],\n"
        "        ['sweep', cfg, '--param', 'squeezing_db', '--from', '0', '--to', '12', '--steps', '241'])]\n"
        "print(codes, loaded())\n"
        "telecloning.fit_params([(10.0, 1.0, 1.5), (20.0, 2.0, 3.0), (30.0, 3.0, 4.5)])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    runpy.run_path(sys.argv[2], run_name='__main__')\n"
        "print([m for m in loaded() if m.startswith('numpy.ma')])\n"
    )
    out = _fresh_interpreter(script, str(CONFIGS / "paper.cfg"),
                             str(ROOT / "demos" / "05_pump_power.py"))
    assert out == "[0, 0, 0, 0] []\n[]\n"


@pytest.mark.skipif(_LIBC is None, reason="no C library to call by name")
def test_fits_and_large_sweeps_stay_on_the_heap():
    # the import-time freed block raises glibc's mmap and trim thresholds
    # once per process, so repeated fits and sweeps fault no pages back in
    script = (
        "import contextlib, math, os, resource, sys\n"
        "import telecloning, telecloning.cli\n"
        "truth = telecloning.OPOParams(120.0, 0.8)\n"
        "data = []\n"
        "for k in range(12):\n"
        "    spec = telecloning.squeezing_spectra(truth, 8.0 * (k + 1))\n"
        "    data.append((8.0 * (k + 1), spec.squeezing_db + 0.05 * math.sin(k),\n"
        "                 spec.antisqueezing_db + 0.05 * math.cos(k)))\n"
        "sweep = ['sweep', sys.argv[1], '--param', 'pump_mw', '--from', '0', '--to', '90',\n"
        "         '--steps', '100001']\n"
        "def faults_per_call(call, repeats):\n"
        "    call()\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    for _ in range(repeats):\n"
        "        call()\n"
        "    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / repeats\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    fits = faults_per_call(lambda: telecloning.fit_params(data), 20)\n"
        "    sweeps = faults_per_call(lambda: telecloning.cli.main(sweep), 3)\n"
        "print(fits, sweeps)\n"
    )
    fits, sweeps = map(float, _fresh_interpreter(script, str(CONFIGS / "paper.cfg")).split())
    assert fits < 10 and sweeps < 10, (fits, sweeps)


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
    ("squeezing_db", 12.0, 2 * _CSV_BLOCK_ROWS + 7),  # two block seams
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
        levels = (grid, grid) if param == "squeezing_db" else pump_spectra(params, grid)
        columns = np.stack((*levels, *clone_curve(protocol_config_from(cfg), *levels)))
        reference = np.array(_reference_sweep_rows(cfg, param, grid)).T
        np.testing.assert_allclose(columns, reference[1:], rtol=1e-12, atol=0.0)


def test_unit_gain_pump_sweep_prints_fidelity_vs_pump(capsys, tmp_path):
    # one curve behind both: the sweep's fidelity column at unit gain and
    # alpha = 0 is fidelity_vs_pump, across two block seams
    path = tmp_path / "unit.cfg"
    path.write_text("[opo]\np_threshold_mw = 120.0\neta_det = 0.8\nomega = 0.3\n")
    steps = 2 * _CSV_BLOCK_ROWS + 7
    code, out, _ = run_cli(capsys, "sweep", str(path), "--param", "pump_mw",
                           "--from", "0", "--to", "119", "--steps", str(steps))
    assert code == 0
    grid = np.linspace(0.0, 119.0, steps)
    params = opo_params_from(load_config(str(path)))
    expected = ["%.12g" % f for f in fidelity_vs_pump(params, grid)[:, 1]]
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == expected

    # the whole grid in one call holds the bits of one-point calls; a point
    # is a one-element array, since numpy's scalar power may round otherwise
    config = protocol_config_from(load_config(str(path)))
    levels = pump_spectra(params, grid)
    whole = np.stack(clone_curve(config, *levels))
    single = np.hstack([np.stack(clone_curve(config, sq[None], anti[None]))
                        for sq, anti in zip(*levels)])
    assert whole.tobytes() == single.tobytes()


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
