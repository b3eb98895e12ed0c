"""Batch CLI: config validation, artifacts, reproducibility, exit codes."""
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from schreg import cli, jsonschema as schreg_jsonschema, martin, potentials, propagation as PR
from schreg import regularity
from schreg.errors import FitIllConditioned

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


def test_bands_window_inside_spectrum_has_no_bottom(tmp_path):
    config = {
        "command": "bands",
        "potential": {"variant": "constant", "value": 0.0},
        "params": {"period": 1.0, "lambda_window": [1.0, 10.0],
                   "resolution": 64},
    }
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    doc = read_json(tmp_path / "bands.json")
    assert doc["bands"] == [[1.0, 10.0]]
    assert doc["gap_set"] is None
    assert doc["lowest_eigenvalue"] is None


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


def test_report_json_is_the_verdict_record(tmp_path):
    # report.json holds the three numbers the verdict rests on; the arrays
    # behind them are only in the CSV tables, which reproduce them bitwise
    config = {
        "command": "regularity",
        "potential": {"variant": "decaying", "amplitude": 1.0, "rate": 2.0},
        "spectrum": {"b0": 0.0, "gaps": [[1.0, 2.0]]},
        "params": {"x_max": 200.0, "dos_x": 100.0, "dos_points": 50,
                   "cesaro_points": 16, "growth_fractions": [0.5, 1.0]},
    }
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    doc = read_json(tmp_path / "report.json")
    assert sorted(doc) == ["a_e", "dos_distance", "gap_set", "growth_sup_gap",
                           "inequality_margin", "potential", "thresholds", "verdict"]
    header, rows = read_csv(tmp_path / "growth.csv")
    assert header == ["z_re", "z_im", "x", "h", "m"]
    g = np.array(rows, dtype=float)
    last = g[:, 2] == g[:, 2].max()
    assert doc["growth_sup_gap"] == float(np.max(np.abs(g[last, 3] - g[last, 4])))
    header, rows = read_csv(tmp_path / "dos.csv")
    assert header == ["lambda", "rho_x", "rho_e"]
    d = np.array(rows, dtype=float)
    assert doc["dos_distance"] == float(np.max(np.abs(d[:, 1] - d[:, 2])))
    assert regularity.decide_verdict(
        doc["inequality_margin"], doc["growth_sup_gap"], doc["dos_distance"],
        **doc["thresholds"]) == doc["verdict"]


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


def test_dos_counts_past_the_int64_range(tmp_path):
    # counts near 3e20 at lambda = 1e40: rho_x stays within 1/x of rho_e
    config = {"command": "dos", "potential": {"variant": "constant", "value": 0.0},
              "spectrum": dict(FREE_SPECTRUM),
              "params": {"x": 10.0, "lambda_window": [0.0, 1e40], "grid_points": 50}}
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    _, rows = read_csv(tmp_path / "dos.csv")
    d = np.array(rows, dtype=float)
    rho_x, rho_e = d[:, 1], d[:, 2]
    assert np.all(rho_x >= 0.0)
    assert np.all(np.abs(rho_x - rho_e) <= 0.1 + 1e-15 * rho_e)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_dos_distance_is_a_compute_failure(tmp_path):
    # lambda - V overflows, so the distance is not finite: dos.json must stay
    # standard JSON, so the run fails before it writes dos.json or dos.csv
    config = {"command": "dos", "potential": {"variant": "constant", "value": -1e308},
              "spectrum": dict(FREE_SPECTRUM),
              "params": {"x": 10.0, "lambda_window": [0.0, 1e308], "grid_points": 5}}
    assert cli.run(config, out_dir=str(tmp_path)) == cli.EXIT_COMPUTE
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["status"] == "error"
    assert manifest["error"]["type"] == "ValueError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "manifest.json"]


def test_one_sample_tabulated_runs_as_its_constant(tmp_path):
    # Tabulated accepts a one-sample table, so the schema must accept its spec
    h = []
    for p in (potentials.Tabulated((0.0,), (1.5,)), potentials.Constant(1.5)):
        out = tmp_path / type(p).__name__
        config = {**solve_config(), "potential": potentials.to_json(p)}
        assert cli.run(config, out_dir=str(out)) == 0
        header, rows = read_csv(out / "solve.csv")
        h.append([row[header.index("h")] for row in rows])
    assert h[0] == h[1]


def test_solve_csv_round_trips_solver_values(tmp_path):
    config = solve_config()
    assert cli.run(config, out_dir=str(tmp_path)) == 0
    header, rows = read_csv(tmp_path / "solve.csv")
    assert header[:4] == ["z_re", "z_im", "x", "u_re"]
    assert len(rows) == 6     # 2 z-points x 3 x-points
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


_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def cell(value):
    """One float value as a CSV cell: 17 significant digits, nan and +-inf
    spelled as JSON-style names."""
    text = format(float(value), ".17g")
    return _SPECIAL.get(text, text)


def csv_by_cell(header, rows):
    """CSV bytes with every value through cell: the writer the column
    formatting must reproduce."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def test_csv_rows_match_the_per_cell_writer(tmp_path):
    floats = [0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, 5e-324, 1.7976931348623157e308,
              123456789.12345679, -1e22, 2.0 ** 53 + 2, math.pi]
    specials = [math.nan, -math.nan, math.inf, -math.inf]
    finite = [tuple(floats[i:i + 3]) for i in range(0, len(floats), 3)]
    special = [(s, 1.0, -0.0) for s in specials] + [(1.0, 2.0, s) for s in specials]
    tables = [
        [np.array(c) for c in zip(*finite)],
        [np.array(c) for c in zip(*special)],           # nan, +-inf columns
        [np.array(c) for c in zip(*finite + special)],
        list(zip(*finite + special)),                   # tuples, not arrays
        [np.array([]), np.array([]), np.array([])],
        [np.array([c]) for c in floats[:3]],            # one row
        [np.array(floats + specials)],                  # one column
    ]
    # more rows than bands.csv: subnormals, signed zeros, the largest
    # finite floats and specials mixed into seeded random values
    rng = np.random.default_rng(30)
    extremes = np.array([5e-324, 2.2250738585072009e-308, -1e-310, 0.0, -0.0,
                         1.7976931348623157e308, -1.7976931348623157e308,
                         math.nan, math.inf, -math.inf])
    big = rng.standard_normal((4096, 3)) * 10.0 ** rng.integers(-300, 300, (4096, 3))
    mask = rng.random(big.shape) < 0.2
    big[mask] = rng.choice(extremes, mask.sum())
    tables.append(list(big.T))
    for i, columns in enumerate(tables):
        header = ["a", "b", "c"][:len(columns)]
        cli._OutputDir(str(tmp_path)).write_csv(f"t{i}.csv", header, columns)
        assert ((tmp_path / f"t{i}.csv").read_bytes()
                == csv_by_cell(header, list(zip(*columns)))), i


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


def test_regularity_z_grid_touching_spectrum_rejected(tmp_path, capsys):
    # the default z grid holds -0.5, within 0.1 of this b0: a config error,
    # caught before any output is written
    config = {"command": "regularity",
              "potential": {"variant": "constant", "value": -0.45},
              "spectrum": {"b0": -0.45, "gaps": []},
              "params": {"x_max": 200.0}}
    out = tmp_path / "out"
    assert cli.run(config, out_dir=str(out)) == cli.EXIT_CONFIG
    assert "closer than 0.1 to the spectrum" in capsys.readouterr().err
    assert not out.exists()


def test_compute_failure_writes_error_manifest(tmp_path, monkeypatch):
    # a fit that fails while the command runs is a runtime error, not a
    # config error: exit 1 with a partial manifest describing the failure
    def ill_conditioned(E, c, k_grid):
        raise FitIllConditioned("k grid gives a near-singular design matrix")

    monkeypatch.setattr(martin, "fit_a_from_martin", ill_conditioned)
    config = martin_config()
    config["params"]["fit"] = True
    assert cli.run(config, out_dir=str(tmp_path)) == 1
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["status"] == "error"
    assert "message" in manifest["error"]
    assert manifest["error"]["type"] == "FitIllConditioned"
    assert {rec["name"] for rec in manifest["files"]} == {"config.json"}


def test_fit_below_its_k_grid_is_a_config_error(tmp_path, capsys):
    # every -k**2 of the fit's k grid must lie below b0, so b0 = -3000
    # cannot be fitted: validation says so before any output is written
    config = {"command": "martin", "spectrum": {"b0": -3000.0, "gaps": []},
              "params": {"z_grid": [[-4000.0, 0.0]], "fit": True}}
    out = tmp_path / "out"
    assert cli.run(config, out_dir=str(out)) == cli.EXIT_CONFIG
    assert "fit needs b0 above -k**2 = -2500" in capsys.readouterr().err
    assert not out.exists()
    config["params"]["fit"] = False
    assert cli.run(config, out_dir=str(out)) == 0


def test_mutating_a_loaded_schema_leaves_validation_alone(tmp_path):
    # validation reads a per-process copy; load_schema hands out fresh ones
    bad = martin_config()
    bad["params"]["bogus"] = 1
    assert cli.run(martin_config(), out_dir=str(tmp_path / "a")) == 0
    schema = cli.load_schema("experiment_config.schema.json")
    params = schema["$defs"]["params_martin"]
    params["properties"]["bogus"] = {"type": "integer"}
    params["required"].append("fit")
    schema["required"].append("potential")
    assert cli.run(martin_config(), out_dir=str(tmp_path / "b")) == 0
    assert cli.run(bad, out_dir=str(tmp_path / "c")) == 2
    assert cli.load_schema("experiment_config.schema.json") != schema


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


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: the package's runtime is numpy
    code = ("import sys, schreg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_free_set_run_does_not_load_numpy_polynomial(tmp_path):
    # the Gauss rules are built on first use: a free-set dos run integrates
    # nothing, so it never imports numpy.polynomial; a gapped martin run does
    dos = {"command": "dos", "potential": {"variant": "decaying", "amplitude": 1.0,
                                           "rate": 2.0},
           "spectrum": dict(FREE_SPECTRUM),
           "params": {"x": 100.0, "lambda_window": [0.0, 10.0], "grid_points": 50}}
    gapped = dict(martin_config(), spectrum={"b0": 0.0, "gaps": [[1.0, 2.0]]})
    code = """if True:
        import json, sys
        from schreg import cli
        for config, out in zip(json.loads(sys.argv[1]), sys.argv[2:]):
            assert cli.run(config, out) == 0
            print("numpy.polynomial" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", code, json.dumps([dos, gapped]),
                           str(tmp_path / "dos"), str(tmp_path / "martin")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_import_builds_no_dataclass_and_no_argument_parser():
    # every CLI op is a fresh process, so import time is paid per op: the
    # records generate no code at import, and only `main` parses arguments
    code = """if True:
        import sys
        startup = set(sys.modules)
        import schreg.cli
        print(sorted({"argparse", "dataclasses", "gettext"} & (set(sys.modules) - startup)))
        import inspect
        print(sorted(f"{m}.{n}" for m, mod in list(sys.modules.items())
                     if m.split(".")[0] == "schreg"
                     for n, c in inspect.getmembers(mod, inspect.isclass)
                     if hasattr(c, "__dataclass_fields__")))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_import_does_not_load_jsonschema():
    # jsonschema is a test-only oracle: configs are validated by
    # schreg.jsonschema, so neither it nor its dependencies load
    family = ("jsonschema", "jsonschema_specifications", "referencing",
              "rpds", "attr", "attrs")
    code = ("import sys, schreg.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {family}))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def run_every_command(out, configs, prelude="pass"):
    """Run configs through cli.run in a fresh interpreter, after the
    statement prelude, config i writing to out/i.  Returns two stdout lines:
    the top-level modules loaded after startup that are neither the standard
    library's nor numpy's nor schreg's, and whether OpenSSL's _hashlib was
    loaded."""
    code = (f"import json, sys; {prelude}; startup = set(sys.modules); "
            "from schreg import cli; configs = json.loads(sys.argv[1]); "
            "print([cli.run(c, f'{sys.argv[2]}/{i}') for i, c in enumerate(configs)]); "
            "ok = set(sys.stdlib_module_names) | {'numpy', 'schreg'}; "
            "new = {m.split('.')[0] for m in set(sys.modules) - startup}; "
            "print(sorted(m for m in new - ok if not m.startswith(('_cython_', 'cython_')))); "
            "print('_hashlib' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(configs), str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, foreign, hashlib_loaded = proc.stdout.strip().splitlines()
    assert codes == str([0] * len(configs))
    return foreign, hashlib_loaded


def test_commands_load_only_numpy_and_the_standard_library(tmp_path):
    # the import-time checks above, extended to running every command: a
    # lazy import inside a computation must not reach past the runtime
    # dependencies.  Modules the interpreter loaded before schreg (site
    # hooks) are not the package's; numpy.random, compiled with Cython,
    # registers Cython's runtime modules.
    configs = valid_configs()
    assert {c["command"] for c in configs} == set(cli.COMMANDS)
    assert run_every_command(tmp_path, configs)[0] == "[]"


def test_manifests_hash_without_openssl(tmp_path):
    # the built-in sha256 keeps OpenSSL's _hashlib (+3.5 MB resident) out of
    # every command; without the built-in module, the hashlib fallback
    # writes the same manifest bytes.  The random family is left out:
    # numpy.random imports secrets, whose hmac loads _hashlib itself.
    pytest.importorskip("_sha256")
    configs = [c for c in valid_configs()
               if c.get("potential", {}).get("variant") != "random"]
    assert {c["command"] for c in configs} == set(cli.COMMANDS)
    assert run_every_command(tmp_path / "built_in", configs)[1] == "False"
    fallback = 'sys.modules["_sha256"] = None'
    assert run_every_command(tmp_path / "fallback", configs, fallback)[1] == "True"
    for i in range(len(configs)):
        manifest = (tmp_path / "built_in" / str(i) / "manifest.json").read_bytes()
        assert (tmp_path / "fallback" / str(i) / "manifest.json").read_bytes() == manifest, i


@pytest.mark.parametrize("value", [[np.int64(-1), 0.0], {-1.0, 0.0},
                                   (-1.0, 0.0)], ids=["int64", "set", "tuple"])
def test_non_json_value_rejected(tmp_path, value):
    # the Python API takes any object; one that JSON cannot encode, or a
    # tuple where the schema asks for an array, is a config error
    config = martin_config()
    config["params"]["z_grid"][0] = value
    out = tmp_path / "out"
    assert cli.run(config, out_dir=str(out)) == cli.EXIT_CONFIG
    assert not out.exists()


# ---------------------------------------------------------------------------
# schema dialect and validator: schreg.jsonschema implements the draft-07
# subset the schemas use, and jsonschema's Draft7Validator is its oracle


DRAFT_2020_12 = "https://json-schema.org/draft/2020-12/schema"


def valid_configs():
    """Valid configs of every command, between them using every potential
    variant and every optional params field."""
    bump = {"variant": "piecewise_constant", "breakpoints": [0.5],
            "values": [1.0, 0.0]}
    return [
        solve_config(),
        {"command": "solve", "potential": {"variant": "oscillating_example"},
         "params": {"z_grid": [[-1.0, 0.5]], "x_grid": [10.0]}},
        {"command": "solve",
         "potential": {"variant": "sparse_bumps", "bump": bump,
                       "positions": [2.0, 8.0], "sparse_from": 1},
         "params": {"z_grid": [[0.5, 1.0]], "x_grid": [4.0, 9.0],
                    "step": 0.01}},
        window_config("bands", (-2.0, 40.0)),
        {"command": "bands",
         "potential": {"variant": "random", "seed": 3, "cell_width": 0.25,
                       "low": -1.0, "high": 1.0},
         "params": {"period": 2.0, "lambda_window": [-5.0, 20.0],
                    "resolution": 64, "step": 0.01, "edge_tol": 1e-9}},
        martin_config(),
        {"command": "martin",
         "spectrum": {"b0": -0.5, "gaps": [[1.0, 2.0], [5.0, 5.5]]},
         "params": {"z_grid": [[-1.0, 0.0]], "fit": True}},
        window_config("dos", (0.0, 25.0)),
        {"command": "dos",
         "potential": {"variant": "tabulated", "grid": [0.0, 1.0, 2.0],
                       "values": [1.0, 0.5, 0.0]},
         "spectrum": dict(FREE_SPECTRUM), "output_dir": "out",
         "params": {"x": 50.0, "lambda_window": [0.0, 10.0],
                    "grid_points": 20, "step": 0.01}},
        {"command": "regularity",
         "potential": {"variant": "decaying", "amplitude": 1.0, "rate": 2.0},
         "spectrum": dict(FREE_SPECTRUM),
         "params": {"x_max": 500.0, "step": 0.01, "cesaro_points": 64,
                    "z_grid": [[-1.0, 0.0]], "growth_fractions": [0.5, 1.0],
                    "dos_x": 200.0, "lambda_window": [0.0, 5.0],
                    "dos_points": 100, "margin_tol": 0.1, "growth_tol": 0.1,
                    "dos_tol": 0.05}},
        {"command": "regularity",
         "potential": {"variant": "constant", "value": 0.0},
         "spectrum": dict(FREE_SPECTRUM)},
    ]


def test_every_validate_call_uses_draft7(monkeypatch):
    # a params sub-schema without $schema would read as 2020-12 to
    # jsonschema; the oracle tests below check the draft-07 verdicts
    schemas = []
    real = cli.jsonschema.validate

    def recorder(instance, schema, *args, **kwargs):
        schemas.append(schema)
        return real(instance, schema, *args, **kwargs)

    monkeypatch.setattr(cli.jsonschema, "validate", recorder)
    configs = {c["command"]: c for c in valid_configs()}
    assert sorted(configs) == sorted(cli.COMMANDS)
    for config in configs.values():
        p, E, _ = cli._validate_config(config)
        assert p == (potentials.from_json(config["potential"])
                     if "potential" in config else None)
    assert len(schemas) == 2 * len(cli.COMMANDS)
    for schema in schemas:
        assert (jsonschema.validators.validator_for(schema)
                is jsonschema.Draft7Validator)


def test_each_input_is_built_once_per_run(tmp_path, monkeypatch):
    # validation builds the potential and the gap set; the command runs on
    # those, so neither is parsed again
    built = []

    def recording(build):
        def wrapper(obj):
            built.append(obj)
            return build(obj)
        return wrapper

    monkeypatch.setattr(potentials, "from_json", recording(potentials.from_json))
    monkeypatch.setattr(martin.GapSet, "from_json",
                        staticmethod(recording(martin.GapSet.from_json)))
    for k, config in enumerate(valid_configs()):
        built.clear()
        assert cli.run(config, out_dir=str(tmp_path / str(k))) == 0
        for key in ("potential", "spectrum"):
            # a nested spec (the bump of sparse_bumps) is another object
            assert built.count(config.get(key)) == (key in config), (k, key)


def schema_objects(node):
    if isinstance(node, dict):
        yield node
        for child in node.values():
            yield from schema_objects(child)
    elif isinstance(node, list):
        for child in node:
            yield from schema_objects(child)


def test_schemas_are_valid_draft7_with_bare_refs():
    root = resources.files("schreg") / "schemas"
    schemas = [json.loads((root / name).read_text(encoding="utf-8"))
               for name in ("experiment_config.schema.json",
                            "potential_spec.schema.json")]
    schemas.append(cli.load_schema("experiment_config.schema.json"))
    for schema in schemas:
        # draft-07 ignores every keyword beside a $ref
        for obj in schema_objects(schema):
            if "$ref" in obj:
                assert list(obj) == ["$ref"], obj
        jsonschema.Draft7Validator.check_schema(schema)
        # $defs is not a draft-07 keyword, so the metaschema check above
        # does not reach inside it
        for sub in schema.get("$defs", {}).values():
            jsonschema.Draft7Validator.check_schema(sub)


MUTATIONS = (0, -1.0, "x", [], {}, True, None, [1.0], [1.0, 2.0, 3.0])


def mutants(config, values=MUTATIONS):
    """Copies of config with one value or container replaced by each of
    values in turn."""
    def paths(node, path):
        if path:
            yield path
        if isinstance(node, dict):
            children = node.items()
        elif isinstance(node, list):
            children = enumerate(node)
        else:
            children = ()
        for key, child in children:
            yield from paths(child, path + (key,))

    text = json.dumps(config)
    for path in paths(config, ()):
        for value in values:
            mutant = json.loads(text)
            node = mutant
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            yield mutant


def test_draft7_accepts_exactly_what_2020_12_accepts():
    # the former validation, prebuilt: the config against the 2020-12
    # schema, then its params against the params_<command> sub-schema with
    # no $schema, which jsonschema reads as 2020-12
    schema = cli.load_schema("experiment_config.schema.json")
    defs = schema["$defs"]

    def checks(cls, top, extra):
        subs = {c: cls(dict(defs[f"params_{c}"], **{"$defs": defs}, **extra))
                for c in cli.COMMANDS}
        top = cls(top)
        return lambda config: (top.is_valid(config) and subs[
            config["command"]].is_valid(config.get("params", {})))

    old = checks(jsonschema.Draft202012Validator,
                 dict(schema, **{"$schema": DRAFT_2020_12}), {})
    cls = jsonschema.validators.validator_for(schema)
    assert cls is jsonschema.Draft7Validator
    new = checks(cls, schema, {"$schema": schema["$schema"]})
    verdicts = [(old(m), new(m)) for c in valid_configs() for m in mutants(c)]
    assert [v for v in verdicts if v[0] != v[1]] == []
    accepted = sum(ok for ok, _ in verdicts)
    assert 0 < accepted < len(verdicts)


# values at the schemas' bounds and enum members, duplicates for
# uniqueItems, and numpy scalars, which are numbers but never integers
ORACLE_MUTATIONS = MUTATIONS + (
    2.0, 8.0, 1, False, [1.0, 1.0], [0.5, 0.5], "solve", "decaying",
    [[1.0, 2.0]], np.float64(3.0), np.int64(3))


def own_is_valid(instance, schema):
    try:
        schreg_jsonschema.validate(instance, schema)
    except schreg_jsonschema.ValidationError:
        return False
    return True


def test_own_validator_agrees_with_draft7_oracle():
    schema = cli.load_schema("experiment_config.schema.json")
    checks = {"config": (schema, jsonschema.Draft7Validator(schema))}
    for c in cli.COMMANDS:
        sub = dict(schema["$defs"][f"params_{c}"],
                   **{"$defs": schema["$defs"], "$schema": schema["$schema"]})
        checks[c] = (sub, jsonschema.Draft7Validator(sub))
    verdicts = []
    for config in valid_configs():
        for m in mutants(config, ORACLE_MUTATIONS):
            for instance, (s, oracle) in (
                    (m, checks["config"]),
                    (m.get("params", {}), checks[config["command"]])):
                verdicts.append((oracle.is_valid(instance),
                                 own_is_valid(instance, s)))
    assert [v for v in verdicts if v[0] != v[1]] == []
    accepted = sum(ok for ok, _ in verdicts)
    assert 0 < accepted < len(verdicts)


@pytest.mark.parametrize("instance, schema", [
    ([1, True], {"uniqueItems": True}),         # true is not 1
    ([1, 1.0], {"uniqueItems": True}),          # but 1.0 is
    ([[1, "a"], [1.0, "a"]], {"uniqueItems": True}),
    ([{"a": 1}, {"a": True}], {"uniqueItems": True}),
    (True, {"enum": [1, 0]}),
    (1.0, {"const": 1}),
    ([0], {"const": [False]}),
    (2.0, {"type": "integer"}),
    (np.int64(2), {"type": "integer"}),
    ("a", {"minimum": 5, "items": {"type": "number"}}),
    ({"a": 1}, {"items": {"type": "string"}, "minItems": 3}),
    (1.0, {"oneOf": [{"type": "number"}, {"minimum": 0}]}),
    (-1.0, {"oneOf": [{"type": "number"}, {"minimum": 0}]}),
])
def test_own_validator_agrees_with_draft7_oracle_on_edge_cases(instance,
                                                               schema):
    assert (own_is_valid(instance, schema)
            == jsonschema.Draft7Validator(schema).is_valid(instance))


OWN_KEYWORDS = {
    "type", "properties", "additionalProperties", "required", "items",
    "minItems", "maxItems", "uniqueItems", "minimum", "exclusiveMinimum",
    "const", "enum", "oneOf", "$ref", "$schema", "$defs", "title",
    "description"}


def subschemas(schema):
    """Every schema object in schema, found by the keywords that hold
    schemas; the maps under properties and $defs are not schemas."""
    yield schema
    for key in ("properties", "$defs"):
        for sub in schema.get(key, {}).values():
            yield from subschemas(sub)
    for sub in [schema["items"]] if "items" in schema else []:
        yield from subschemas(sub)
    for sub in schema.get("oneOf", []):
        yield from subschemas(sub)


def test_schemas_use_only_the_own_validators_keywords():
    root = resources.files("schreg") / "schemas"
    schemas = [json.loads((root / name).read_text(encoding="utf-8"))
               for name in ("experiment_config.schema.json",
                            "potential_spec.schema.json")]
    schemas.append(cli.load_schema("experiment_config.schema.json"))
    for schema in schemas:
        walked = list(subschemas(schema))
        for obj in walked:
            assert set(obj) <= OWN_KEYWORDS, obj
        # the walk reaches every object: the rest are properties/$defs maps
        maps = sum(key in obj for obj in walked
                   for key in ("properties", "$defs"))
        assert len(walked) + maps == len(list(schema_objects(schema)))


@pytest.mark.parametrize("schema", [
    {"pattern": "x"},
    {"properties": {"a": {"format": "date"}}},
    {"type": ["number", "string"]},
    {"items": [{"type": "number"}]},
    {"additionalProperties": {"type": "number"}},
    {"$ref": "#/definitions/a", "definitions": {"a": {}}},
])
def test_unsupported_keyword_is_a_schema_error(schema):
    # a schema bug must not read as a bad config
    assert not issubclass(schreg_jsonschema.SchemaError,
                          schreg_jsonschema.ValidationError)
    with pytest.raises(schreg_jsonschema.SchemaError):
        schreg_jsonschema.validate({"a": 1.0}, schema)
