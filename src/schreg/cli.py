"""Batch front end: run named experiments from JSON configs.

`schreg <command> --config <file> [--out DIR]` validates the config
against the packaged draft-07 JSON schemas (with `schreg.jsonschema`, which
knows only the keywords they use), rejecting unknown fields and non-finite
numbers, runs the computation, and leaves CSV/JSON artifacts plus a
manifest.json listing every file with its sha256.  Outputs are
byte-reproducible: CSV floats carry 17 significant digits, JSON floats
their shortest round-trip repr; JSON keys are sorted.

Exit codes: 0 success, 1 compute failure (partial manifest with an error
record), 2 invalid configuration.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from importlib import resources

import numpy as np

from . import jsonschema, martin, periodic, potentials, propagation, regularity
from .errors import ConfigInvalid

__all__ = ["run", "main", "load_schema"]

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2

COMMANDS = ("solve", "bands", "martin", "dos", "regularity")

_NEEDS_POTENTIAL = {"solve", "bands", "dos", "regularity"}
_NEEDS_SPECTRUM = {"martin", "dos", "regularity"}


# ---------------------------------------------------------------------------
# deterministic serialization


class _OutputDir:
    """Collects artifacts in a directory and records their hashes."""

    def __init__(self, path):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.records = []

    def _store(self, name, data):
        with open(os.path.join(self.path, name), "wb") as fh:
            fh.write(data)
        self.records.append({"name": name,
                             "sha256": hashlib.sha256(data).hexdigest(),
                             "bytes": len(data)})

    def write_json(self, name, obj):
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        self._store(name, text.encode("utf-8"))

    def write_csv(self, name, header, columns):
        """One float column per header field, every row through one %.17g
        template; nan and +-inf are then spelled NaN and [-]Infinity."""
        template = ",".join(["%.17g"] * len(columns)) + "\n"
        cols = [np.asarray(c, dtype=float).tolist() for c in columns]
        body = "".join(map(template.__mod__, zip(*cols)))
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
        self._store(name, (",".join(header) + "\n" + body).encode("utf-8"))

    def write_manifest(self, config, status, error=None):
        manifest = {
            "command": config.get("command"),
            "status": status,
            "files": sorted(self.records, key=lambda r: r["name"]),
        }
        if error is not None:
            manifest["error"] = error
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        with open(os.path.join(self.path, "manifest.json"), "wb") as fh:
            fh.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# config validation


def load_schema(name):
    """Load a packaged schema; the config schema gets the potential spec
    injected into its $defs so a single validator covers both files."""
    root = resources.files("schreg") / "schemas"
    schema = json.loads((root / name).read_text(encoding="utf-8"))
    if name == "experiment_config.schema.json":
        pot = json.loads((root / "potential_spec.schema.json")
                         .read_text(encoding="utf-8"))
        pot.pop("$schema", None)
        schema["$defs"]["potential_spec"] = pot
    return schema


@functools.cache
def _config_schema():
    """The merged config schema, read once per process and never mutated."""
    return load_schema("experiment_config.schema.json")


def _validate_config(config):
    if not isinstance(config, dict):
        raise ConfigInvalid("config must be a JSON object")
    try:
        json.dumps(config, allow_nan=False)
    except ValueError as exc:
        raise ConfigInvalid("config must not contain NaN or Infinity") from exc
    except TypeError as exc:
        raise ConfigInvalid(f"config is not JSON: {exc}") from exc
    schema = _config_schema()
    try:
        jsonschema.validate(config, schema)
    except jsonschema.ValidationError as exc:
        raise ConfigInvalid(f"config rejected by schema: {exc.message}") from exc
    command = config["command"]
    params = config.get("params", {})
    sub = dict(schema["$defs"][f"params_{command}"],
               **{"$defs": schema["$defs"], "$schema": schema["$schema"]})
    try:
        jsonschema.validate(params, sub)
    except jsonschema.ValidationError as exc:
        raise ConfigInvalid(
            f"params rejected for command {command!r}: {exc.message}") from exc
    if command in _NEEDS_POTENTIAL and "potential" not in config:
        raise ConfigInvalid(f"command {command!r} requires a potential")
    if command in _NEEDS_SPECTRUM and "spectrum" not in config:
        raise ConfigInvalid(f"command {command!r} requires a spectrum")
    try:
        if "potential" in config:
            potentials.from_json(config["potential"])
        spectrum = config.get("spectrum")
        E = None if spectrum is None else martin.GapSet.from_json(spectrum)
        if "lambda_window" in params:
            regularity.check_window(params["lambda_window"],
                                    E if command in _NEEDS_SPECTRUM else None)
    except (ValueError, TypeError) as exc:
        raise ConfigInvalid(str(exc)) from exc
    return config


def _zarray(pairs):
    return np.array([complex(zr, zi) for zr, zi in pairs])


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(config, out):
    p = potentials.from_json(config["potential"])
    params = config["params"]
    step = params.get("step", 1e-3)
    zs = _zarray(params["z_grid"])
    xs = sorted(float(x) for x in params["x_grid"])
    checkpoints, col = np.unique(xs, return_inverse=True)
    s = propagation.dirichlet_profile(p, checkpoints, zs, step=step)
    u, du = s.u[:, col].ravel(), s.du[:, col].ravel()
    z = np.repeat(zs, len(xs))
    out.write_csv("solve.csv",
                  ["z_re", "z_im", "x", "u_re", "u_im", "du_re", "du_im",
                   "log_scale", "h"],
                  [z.real, z.imag, np.tile(xs, len(zs)), u.real, u.imag, du.real,
                   du.imag, s.log_scale[:, col].ravel(),
                   s.log_growth(checkpoints)[:, col].ravel()])


def _cmd_bands(config, out):
    p = potentials.from_json(config["potential"])
    params = config["params"]
    bs = periodic.band_spectrum(
        p, params["period"], tuple(params["lambda_window"]),
        params.get("resolution", 512), step=params.get("step", 1e-3),
        edge_tol=params.get("edge_tol", 1e-10))
    bottom = bs.level[0] == 0   # the window starts below the spectrum
    out.write_json("bands.json", {
        "period": bs.period,
        "bands": [list(b) for b in bs.bands],
        "gap_set": periodic.to_gap_set(bs).to_json() if bottom else None,
        "lowest_eigenvalue": bs.bands[0][0] if bottom else None,
    })
    out.write_csv("bands.csv", ["lambda", "delta"], [bs.lam, bs.delta])


def _cmd_martin(config, out):
    E = martin.GapSet.from_json(config["spectrum"])
    params = config["params"]
    cp = martin.solve_critical_points(E)
    zs = _zarray(params["z_grid"])
    ev = martin.martin_function(E, cp.c, zs)
    summary = {
        "b0": E.b0,
        "gaps": [list(g) for g in E.gaps],
        "critical_points": list(cp.c),
        "residuals": list(cp.residuals),
        "a_constant": martin.a_constant(E, cp.c),
    }
    if params.get("fit"):
        summary["fit_a"] = martin.fit_a_from_martin(
            E, cp.c, np.linspace(50.0, 100.0, 12))
    out.write_json("critical_points.json", summary)
    out.write_csv("martin.csv", ["z_re", "z_im", "m", "theta_real"],
                  [zs.real, zs.imag, ev.value, ev.theta_real])


def _cmd_dos(config, out):
    p = potentials.from_json(config["potential"])
    E = martin.GapSet.from_json(config["spectrum"])
    params = config["params"]
    d = regularity.dos_comparison(
        p, E, params["x"], tuple(params["lambda_window"]),
        grid=params.get("grid_points", 200), step=params.get("step", 0.02))
    out.write_json("dos.json", {
        "x": params["x"],
        "lambda_window": list(params["lambda_window"]),
        "distance": d.distance,
    })
    out.write_csv("dos.csv", ["lambda", "rho_x", "rho_e"], [d.lam, d.rho_x, d.rho_e])


def _cmd_regularity(config, out):
    p = potentials.from_json(config["potential"])
    E = martin.GapSet.from_json(config["spectrum"])
    cfg = regularity.ReportConfig.from_json(config.get("params", {}))
    report = regularity.regularity_report(p, E, cfg)
    out.write_json("report.json", report.to_json())
    out.write_csv("cesaro.csv", ["x", "average"],
                  [report.cesaro_x, report.cesaro_average])
    nz, nx = report.growth_h.shape
    z = np.repeat(report.growth_z, nx)
    out.write_csv("growth.csv", ["z_re", "z_im", "x", "h", "m"],
                  [z.real, z.imag, np.tile(report.growth_x, nz),
                   report.growth_h.ravel(), np.repeat(report.growth_m, nx)])
    out.write_csv("dos.csv", ["lambda", "rho_x", "rho_e"],
                  [report.dos_lambda, report.dos_rho_x, report.dos_rho_e])


_DISPATCH = {
    "solve": _cmd_solve,
    "bands": _cmd_bands,
    "martin": _cmd_martin,
    "dos": _cmd_dos,
    "regularity": _cmd_regularity,
}


# ---------------------------------------------------------------------------
# entry points


def run(config, out_dir=None):
    """Validate and execute one experiment config; returns the exit code."""
    try:
        config = _validate_config(config)
    except ConfigInvalid as exc:
        print(f"schreg: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _OutputDir(out_dir or config.get("output_dir", "."))
    out.write_json("config.json", config)
    try:
        _DISPATCH[config["command"]](config, out)
    except Exception as exc:
        out.write_manifest(config, "error",
                           error={"type": type(exc).__name__,
                                  "message": str(exc)})
        print(f"schreg: compute failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    out.write_manifest(config, "ok")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="schreg",
        description="Half-line Schrodinger spectral experiments from JSON "
                    "configs; emits CSV/JSON artifacts with a hash manifest.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="path to the experiment config JSON")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides config output_dir)")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"schreg: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(config, dict) and config.get("command") != args.command:
        print(f"schreg: config command {config.get('command')!r} does not "
              f"match CLI command {args.command!r}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
