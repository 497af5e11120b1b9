"""CLI front end: argument parsing, config files, exit codes, CSV output."""

from dataclasses import fields

import numpy as np
import pytest

from dftwz.cli import (
    config_from_argv,
    load_config_file,
    main,
    parse_ceqnr_grid,
    parse_code,
    parse_pair,
)
from dftwz.harness import CSV_COLUMNS, SweepConfig, read_csv, sweep, write_csv


def test_parse_pair():
    assert parse_pair("-4,4") == (-4.0, 4.0)
    assert parse_pair("0.25, 1.5") == (0.25, 1.5)
    for bad in ("1", "1,2,3", "a,b"):
        with pytest.raises(ValueError):
            parse_pair(bad)


def test_parse_code():
    assert parse_code("15,9") == (15, 9)
    with pytest.raises(ValueError):
        parse_code("15")
    with pytest.raises(ValueError):
        parse_code("x,y")


def test_parse_ceqnr_grid_colon_form():
    grid = parse_ceqnr_grid("-10:5:40")
    assert grid == tuple(float(v) for v in range(-10, 45, 5))
    assert len(grid) == 11
    # inclusive upper end despite floating-point steps
    assert parse_ceqnr_grid("0:2.5:10") == (0.0, 2.5, 5.0, 7.5, 10.0)


def test_parse_ceqnr_grid_list_form():
    assert parse_ceqnr_grid("3,1,-inf") == (3.0, 1.0, float("-inf"))
    assert parse_ceqnr_grid("12") == (12.0,)


def test_parse_ceqnr_grid_rejects_malformed():
    for bad in ("1:5", "1:5:10:20", "0:-5:40", "0:0:40", "a:b:c", "1,zz",
                "-inf:5:40", "0:5:inf", "0:inf:40", "0:nan:40", "nan:5:40"):
        with pytest.raises(ValueError):
            parse_ceqnr_grid(bad)


def test_main_non_finite_grid_bound_exits_2(capsys, tmp_path):
    code, err = run_main(
        capsys, "--ceqnr", "-inf:5:40", "--frames", "10", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2 and "finite" in err


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sweep setup\n"
        "code = 7,5\n"
        "\n"
        "errors-per-frame = 1  # trailing comment\n"
        "frames=50\n"
    )
    entries = load_config_file(str(path))
    assert entries == {"code": "7,5", "errors_per_frame": "1", "frames": "50"}


def test_load_config_file_rejects_bare_words(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("frames\n")
    with pytest.raises(ValueError):
        load_config_file(str(path))


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.err


def test_main_tiny_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "tiny.csv"
    code, err = run_main(
        capsys,
        "--code", "7,5", "--ceqnr", "0,30", "--frames", "60",
        "--seed", "4", "--out", str(out),
    )
    assert code == 0 and err == ""
    result = read_csv(str(out))
    assert len(result.points) == 2
    assert [p.ceqnr_db for p in result.points] == [0.0, 30.0]
    assert all(p.frames == 60 for p in result.points)


def test_main_dash_values_accepted(tmp_path, capsys):
    # Values that begin with '-' must survive argparse in both spellings.
    out = tmp_path / "dash.csv"
    code, err = run_main(
        capsys,
        "--range", "-4,4", "--ceqnr", "-inf,0", "--frames", "40",
        "--out", str(out),
    )
    assert code == 0 and err == ""
    result = read_csv(str(out))
    assert [p.ceqnr_db for p in result.points] == [float("-inf"), 0.0]


def test_main_matches_library_sweep(tmp_path, capsys):
    out_cli = tmp_path / "cli.csv"
    code, err = run_main(
        capsys,
        "--frames", "64", "--ceqnr", "5,25", "--seed", "2",
        "--out", str(out_cli),
    )
    assert code == 0
    out_lib = tmp_path / "lib.csv"
    write_csv(sweep(SweepConfig(frames=64, ceqnr_db=(5.0, 25.0), seed=2)), str(out_lib))
    assert out_cli.read_bytes() == out_lib.read_bytes()


def test_main_single_approach_flag(tmp_path, capsys):
    out = tmp_path / "par.csv"
    code, _ = run_main(
        capsys,
        "--approach", "parity", "--ceqnr", "20", "--frames", "40",
        "--out", str(out),
    )
    assert code == 0
    point = read_csv(str(out)).points[0]
    assert np.isnan(point.mse_syndrome)
    assert np.isfinite(point.mse_parity)


def test_main_invalid_code_exits_2(capsys, tmp_path):
    code, err = run_main(
        capsys, "--code", "8,5", "--frames", "10", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert err.startswith("dftwz: ")
    assert err.count("\n") == 1


def test_main_unwritable_output_exits_2(capsys, tmp_path):
    code, err = run_main(
        capsys,
        "--frames", "10", "--ceqnr", "0", "--out", str(tmp_path / "no" / "dir.csv"),
    )
    assert code == 2
    assert "dftwz:" in err


def test_main_errors_exceeding_capacity_exit_2(capsys, tmp_path):
    code, err = run_main(
        capsys,
        "--code", "7,5", "--errors-per-frame", "2", "--frames", "10",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and "dftwz:" in err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "cfg.csv"
    cfg.write_text("frames = 48\nceqnr = 0:10:30\nseed = 7\nrho = 0.5\n")
    code, err = run_main(capsys, "--config", str(cfg), "--out", str(out))
    assert code == 0 and err == ""
    result = read_csv(str(out))
    assert [p.ceqnr_db for p in result.points] == [0.0, 10.0, 20.0, 30.0]
    assert all(p.frames == 48 for p in result.points)


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "over.csv"
    cfg.write_text("frames = 48\nceqnr = 0\n")
    code, _ = run_main(
        capsys, "--config", str(cfg), "--frames", "32", "--out", str(out)
    )
    assert code == 0
    result = read_csv(str(out))
    assert [p.frames for p in result.points] == [32]
    assert result.points[0].ceqnr_db == 0.0  # file entry still honored


def test_config_file_keys_set_every_sweep_config_field(tmp_path):
    # One key per knob, each away from its default: a SweepConfig field
    # that no key sets would keep its default and fail here.
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "code = 15,9\napproach = parity\nbits = 7\nrange = -3,3\n"
        "syndrome-range = -2,2\nparity-range = -5,5\nceqnr = 0,10\nframes = 64\n"
        "errors-per-frame = 2\nseed = 3\nrho = 0.5\nworkers = 2\nout = mine.csv\n"
    )
    config, out = config_from_argv(["--config", str(cfg)])
    default = SweepConfig()
    assert out == "mine.csv"
    assert [f.name for f in fields(SweepConfig)
            if getattr(config, f.name) == getattr(default, f.name)] == []


def test_rho_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frames = 64\nceqnr = 20\nrho = 0.5\n")
    out = tmp_path / "rho.csv"
    code, err = run_main(capsys, "--config", str(cfg), "--rho", "0.3", "--out", str(out))
    assert code == 0 and err == ""
    lib, default = tmp_path / "lib.csv", tmp_path / "default.csv"
    write_csv(sweep(SweepConfig(frames=64, ceqnr_db=(20.0,), rho=0.3)), str(lib))
    write_csv(sweep(SweepConfig(frames=64, ceqnr_db=(20.0,))), str(default))
    assert out.read_bytes() == lib.read_bytes() != default.read_bytes()


@pytest.mark.parametrize("flag", ["--approach"])
def test_main_unknown_choice_exits_2(capsys, tmp_path, flag):
    code, err = run_main(capsys, flag, "foo", "--frames", "10", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err.startswith("dftwz: ") and err.count("\n") == 1


def test_config_file_removed_reconstruction_key_exits_2(capsys, tmp_path):
    # The syndrome decoder has one reconstruction; a file that still picks
    # one names a key the sweep no longer has.
    cfg = tmp_path / "old.cfg"
    cfg.write_text("reconstruction = projection\nframes = 10\n")
    code, err = run_main(capsys, "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err == f"dftwz: unknown configuration key 'reconstruction' in {cfg}\n"


def test_main_reversed_range_names_its_knob(capsys, tmp_path):
    code, err = run_main(
        capsys, "--parity-range", "1,-1", "--frames", "8", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert err.startswith("dftwz: parity_range = (1.0, -1.0): ") and err.count("\n") == 1


@pytest.mark.parametrize("bits", ["600", "1100"])
def test_main_bits_without_a_float_sigma_q_exit_2(capsys, tmp_path, bits):
    code, err = run_main(
        capsys, "--bits", bits, "--frames", "16", "--ceqnr", "20,40",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and err.startswith("dftwz: ") and "sigma_q^2" in err


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fames = 10\n")
    code, err = run_main(capsys, "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "fames" in err


def test_config_file_missing_exits_2(tmp_path, capsys):
    code, err = run_main(
        capsys, "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "x.csv")
    )
    assert code == 2 and err.startswith("dftwz:")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--ceqnr" in capsys.readouterr().out


def test_csv_columns_documented_in_order():
    assert CSV_COLUMNS == (
        "ceqnr_db",
        "mse_syndrome",
        "mse_parity",
        "sigma_q_sq",
        "loc_freq_syndrome",
        "loc_freq_parity",
        "zero_error_frac",
        "overload_rate",
        "frames",
    )
