"""Batch CLI: config validation, artifacts, reproducibility, exit codes."""
import csv
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from schreg import cli, propagation as PR

FREE_SPECTRUM = {"b0": 0.0, "gaps": []}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def martin_config(zs=((-1.0, 0.0), (-4.0, 0.0), (0.5, 1.0), (2.0, 2.0))):
    return {"command": "martin", "spectrum": dict(FREE_SPECTRUM),
            "params": {"z_grid": [list(z) for z in zs]}}


def solve_config():
    return {
        "command": "solve",
        "potential": {"variant": "piecewise_constant",
                      "values": [1.0, -0.5, 0.0], "breakpoints": [0.5, 1.25]},
        "params": {"z_grid": [[-1.0, 0.0], [2.0, 1.0]],
                   "x_grid": [0.5, 1.0, 2.0], "step": 0.001},
    }


# ---------------------------------------------------------------------------
# artifacts


def test_martin_free_set_csv_matches_closed_form(tmp_path):
    rng = np.random.default_rng(7)
    zs = [(-float(r), float(i)) for r, i in
          zip(rng.uniform(0.5, 9.0, 20), rng.uniform(0.0, 3.0, 20))]
    assert cli.run(martin_config(zs), out_dir=str(tmp_path)) == 0
    header, rows = read_csv(tmp_path / "martin.csv")
    assert header == ["z_re", "z_im", "m", "theta_real"]
    for (zr, zi), row in zip(zs, rows):
        z = complex(zr, zi)
        assert abs(float(row[2]) - np.sqrt(-z).real) <= 1e-8
    summary = read_json(tmp_path / "critical_points.json")
    assert summary["critical_points"] == []
    assert summary["a_constant"] == 0.0


def test_bands_first_edge_matches_lowest_eigenvalue(tmp_path):
    config = {
        "command": "bands",
        "potential": {"variant": "periodic_square", "delta": 0.5},
        "params": {"period": 1.0, "lambda_window": [-2.0, 40.0],
                   "resolution": 1024},
    }
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    doc = read_json(tmp_path / "bands.json")
    assert doc["lowest_eigenvalue"] is not None
    assert abs(doc["bands"][0][0] - doc["lowest_eigenvalue"]) <= 1e-8
    header, rows = read_csv(tmp_path / "bands.csv")
    assert header == ["lambda", "delta"]
    assert len(rows) == 1024


def test_regularity_verdict_from_config(tmp_path):
    config = {
        "command": "regularity",
        "potential": {"variant": "decaying", "amplitude": 1.0, "rate": 2.0},
        "spectrum": dict(FREE_SPECTRUM),
        "params": {"x_max": 500.0, "dos_x": 200.0, "dos_points": 100,
                   "cesaro_points": 64},
    }
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    report = read_json(tmp_path / "report.json")
    assert report["verdict"] == "consistent-with-regular"
    for name in ("report.json", "cesaro.csv", "growth.csv", "dos.csv"):
        assert (tmp_path / name).exists()


def test_dos_artifacts(tmp_path):
    config = {
        "command": "dos",
        "potential": {"variant": "constant", "value": 0.0},
        "spectrum": dict(FREE_SPECTRUM),
        "params": {"x": 300.0, "lambda_window": [0.0, 25.0],
                   "grid_points": 100},
    }
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    doc = read_json(tmp_path / "dos.json")
    assert doc["distance"] <= 0.02
    header, rows = read_csv(tmp_path / "dos.csv")
    assert header == ["lambda", "rho_x", "rho_e"]
    assert len(rows) == 100


def test_solve_csv_round_trips_solver_values(tmp_path):
    config = solve_config()
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    header, rows = read_csv(tmp_path / "solve.csv")
    assert header[:4] == ["z_re", "z_im", "x", "u_re"]
    assert len(rows) == 6     # 2 z-points x 3 x-points
    from schreg import potentials
    p = potentials.from_json(config["potential"])
    zs = [complex(*z) for z in config["params"]["z_grid"]]
    xs = config["params"]["x_grid"]
    s = PR.dirichlet_profile(p, xs, zs, step=1e-3)
    h = s.log_growth(np.array(xs))
    for k, row in enumerate(rows):
        i, j = divmod(k, len(xs))
        assert complex(float(row[0]), float(row[1])) == zs[i]
        assert float(row[2]) == xs[j]
        # 17-significant-digit text must reproduce the doubles exactly
        assert float(row[3]) == s.u[i, j].real
        assert float(row[5]) == s.du[i, j].real
        assert float(row[7]) == s.log_scale[i, j]
        assert float(row[8]) == h[i, j]


def test_solve_sorts_x_grid_and_keeps_repeats(tmp_path):
    config = solve_config()
    config["params"]["x_grid"] = [2.0, 0.5, 2.0]
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    _, rows = read_csv(tmp_path / "solve.csv")
    assert [float(row[2]) for row in rows] == [0.5, 2.0, 2.0] * 2
    assert rows[1] == rows[2] and rows[4] == rows[5]


# ---------------------------------------------------------------------------
# reproducibility and the manifest


def test_rerun_is_byte_identical(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b")]
    for d in dirs:
        assert cli.run(martin_config(), out_dir=str(d)) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == ["config.json", "critical_points.json", "manifest.json",
                     "martin.csv"]
    for name in names:
        assert (dirs[1] / name).read_bytes() == (dirs[0] / name).read_bytes()


def test_manifest_hashes_every_artifact(tmp_path):
    assert cli.run(solve_config(), out_dir=str(tmp_path)) == 0
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["status"] == "ok"
    assert manifest["command"] == "solve"
    listed = {rec["name"] for rec in manifest["files"]}
    on_disk = {p.name for p in tmp_path.iterdir()}
    assert listed == on_disk - {"manifest.json"}
    for rec in manifest["files"]:
        data = (tmp_path / rec["name"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == rec["sha256"]
        assert len(data) == rec["bytes"]
    names = [rec["name"] for rec in manifest["files"]]
    assert names == sorted(names)


def test_config_copied_into_output(tmp_path):
    config = martin_config()
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    assert read_json(tmp_path / "config.json") == config


# ---------------------------------------------------------------------------
# validation and exit codes


def test_unknown_top_level_field_rejected(tmp_path):
    config = martin_config()
    config["extra"] = 1
    assert cli.run(config, out_dir=str(tmp_path)) == 2


def test_unknown_params_field_rejected(tmp_path):
    config = martin_config()
    config["params"]["typo_field"] = True
    assert cli.run(config, out_dir=str(tmp_path)) == 2


def test_missing_potential_rejected(tmp_path):
    config = {"command": "solve",
              "params": {"z_grid": [[-1.0, 0.0]], "x_grid": [1.0]}}
    assert cli.run(config, out_dir=str(tmp_path)) == 2


def test_missing_spectrum_rejected(tmp_path):
    config = {"command": "martin", "params": {"z_grid": [[-1.0, 0.0]]}}
    assert cli.run(config, out_dir=str(tmp_path)) == 2


def test_bad_potential_variant_rejected(tmp_path):
    config = solve_config()
    config["potential"] = {"variant": "mystery"}
    assert cli.run(config, out_dir=str(tmp_path)) == 2


def test_overlapping_gaps_rejected(tmp_path):
    config = martin_config()
    config["spectrum"] = {"b0": 0.0, "gaps": [[1.0, 3.0], [2.0, 4.0]]}
    assert cli.run(config, out_dir=str(tmp_path)) == 2


def test_infinite_lambda_window_rejected(tmp_path):
    config = {"command": "dos",
              "potential": {"variant": "constant", "value": 0.0},
              "spectrum": dict(FREE_SPECTRUM),
              "params": {"x": 10.0, "lambda_window": [0.0, float("inf")]}}
    assert cli.run(config, out_dir=str(tmp_path)) == 2


def test_infinite_gap_edge_rejected(tmp_path):
    config = martin_config()
    config["spectrum"] = {"b0": 0.0, "gaps": [[1.0, float("inf")]]}
    assert cli.run(config, out_dir=str(tmp_path)) == 2


def window_config(command, window):
    params = {
        "bands": {"period": 1.0, "resolution": 64},
        "dos": {"x": 50.0, "grid_points": 10},
        "regularity": {"x_max": 100.0},
    }[command]
    return {"command": command,
            "potential": {"variant": "periodic_square", "delta": 0.5},
            "spectrum": dict(FREE_SPECTRUM),
            "params": {**params, "lambda_window": list(window)}}


@pytest.mark.parametrize("command", ["bands", "dos", "regularity"])
def test_decreasing_lambda_window_rejected(tmp_path, command):
    config = window_config(command, (10.0, 0.5))
    assert cli.run(config, out_dir=str(tmp_path)) == 2


@pytest.mark.parametrize("command", ["dos", "regularity"])
def test_lambda_window_below_spectrum_rejected(tmp_path, command):
    config = window_config(command, (-1.0, 5.0))
    assert cli.run(config, out_dir=str(tmp_path)) == 2


@pytest.mark.parametrize("x", [0.0, -1.0])
def test_nonpositive_solve_x_rejected(tmp_path, x):
    config = solve_config()
    config["params"]["x_grid"] = [x, 1.0]
    assert cli.run(config, out_dir=str(tmp_path)) == 2


@pytest.mark.parametrize("fractions", [[0.0, 1.0], [-0.5, 1.0], [0.5, 0.5]])
def test_bad_growth_fractions_rejected(tmp_path, fractions):
    config = window_config("regularity", (0.0, 5.0))
    config["params"]["growth_fractions"] = fractions
    assert cli.run(config, out_dir=str(tmp_path)) == 2


def test_compute_failure_writes_error_manifest(tmp_path):
    # a z-point hugging the essential spectrum is a runtime error, not a
    # config error: exit 1 with a partial manifest describing the failure
    config = martin_config(zs=((2.0, 1e-12),))
    assert cli.run(config, out_dir=str(tmp_path)) == 1
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["status"] == "error"
    assert "message" in manifest["error"]
    assert {rec["name"] for rec in manifest["files"]} == {"config.json"}


def test_main_command_mismatch(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(martin_config()), encoding="utf-8")
    assert cli.main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2


def test_main_unreadable_config(tmp_path):
    path = tmp_path / "nope.json"
    assert cli.main(["martin", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["martin", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2


def test_main_runs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(martin_config()), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["martin", "--config", str(path), "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["status"] == "ok"


def test_main_rejects_infinity_literal(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"command": "martin", "spectrum": {"b0": 0.0}, '
                    '"params": {"z_grid": [[-1.0, Infinity]]}}',
                    encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["martin", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3.5", "null"])
def test_main_rejects_non_object_config(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["martin", "--config", str(path), "--out", str(out)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_console_entry_point(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(martin_config()), encoding="utf-8")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "schreg.cli", "martin",
         "--config", str(path), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").exists()
