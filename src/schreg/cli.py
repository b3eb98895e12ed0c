"""Batch front end: run named experiments from JSON configs.

`schreg <command> --config <file> [--out DIR]` validates the config
against the packaged draft-07 JSON schemas (with `schreg.jsonschema`, which
knows only the keywords they use), rejecting unknown fields and non-finite
numbers.  Validation builds the potential, gap set and params the command
then runs on; a window below b0, a `regularity` z closer than 0.1 to the
spectrum, or a `martin` fit with b0 at or below -50**2 is rejected there.
The run leaves each array once, in a CSV table, JSON summaries (for
`regularity`, report.json: the verdict record, which
`regularity.decide_verdict` re-judges alone) and a manifest.json listing
every file's sha256, from the built-in `_sha256` (else `hashlib`).  Outputs
are byte-reproducible: CSV floats carry 17 significant digits, JSON floats
their shortest round-trip repr; JSON keys are sorted.

Exit codes: 0 success, 1 compute failure (partial manifest with an error
record), 2 invalid configuration.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from importlib import resources

try:
    from _sha256 import sha256   # built in: hashlib would map OpenSSL's _hashlib
except ImportError:
    from hashlib import sha256

import numpy as np

from . import jsonschema, martin, periodic, potentials, propagation, regularity
from .errors import ConfigInvalid

__all__ = ["run", "main", "load_schema"]

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2
_FIT_K = np.linspace(50.0, 100.0, 12)   # k grid of the `martin` fit


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
                             "sha256": sha256(data).hexdigest(),
                             "bytes": len(data)})

    def write_json(self, name, obj):
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
        self._store(name, text.encode("utf-8"))

    def write_csv(self, name, header, columns):
        """One float column per header field, the whole table through one
        %.17g template; nan and +-inf are then spelled NaN and [-]Infinity."""
        table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
        template = ",".join(["%.17g"] * len(columns)) + "\n"
        body = (template * len(table)) % tuple(table.ravel().tolist())
        if not np.isfinite(table).all():   # a finite table skips two text passes
            body = body.replace("nan", "NaN").replace("inf", "Infinity")
        self._store(name, (",".join(header) + "\n" + body).encode("utf-8"))

    def write_manifest(self, config, status, error=None):
        """manifest.json: every file written before it, with its sha256."""
        manifest = {
            "command": config.get("command"),
            "status": status,
            "files": sorted(self.records, key=lambda r: r["name"]),
        }
        if error is not None:
            manifest["error"] = error
        self.write_json("manifest.json", manifest)


# ---------------------------------------------------------------------------
# config validation


def load_schema(name):
    """Load a packaged schema; the config schema gets the potential spec and
    its $defs injected into its $defs so a single validator covers both."""
    root = resources.files("schreg") / "schemas"
    schema = json.loads((root / name).read_text(encoding="utf-8"))
    if name == "experiment_config.schema.json":
        pot = json.loads((root / "potential_spec.schema.json")
                         .read_text(encoding="utf-8"))
        pot.pop("$schema", None)
        schema["$defs"].update(pot.pop("$defs"), potential_spec=pot)
    return schema


@functools.cache
def _config_schema():
    """The merged config schema, read once per process and never mutated."""
    return load_schema("experiment_config.schema.json")


def _validate_config(config):
    """Check config and build what its command runs on: (p, E, params),
    with p or E None when the config has no potential or spectrum."""
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
    needs = _COMMANDS[command][1]
    for key in needs:
        if key not in config:
            raise ConfigInvalid(f"command {command!r} requires a {key}")
    try:
        p = potentials.from_json(config["potential"]) if "potential" in config else None
        E = martin.GapSet.from_json(config["spectrum"]) if "spectrum" in config else None
        if "lambda_window" in params:
            martin.check_window(params["lambda_window"], E if "spectrum" in needs else None)
        if command == "regularity":
            params = regularity.ReportConfig.from_json(params)
            martin.check_z_grid(params.z_grid, E)
        if command == "martin" and params.get("fit") and not -_FIT_K[0] ** 2 < E.b0:
            raise ValueError(f"fit needs b0 above -k**2 = {-_FIT_K[0] ** 2:g}")
    except (ValueError, TypeError) as exc:
        raise ConfigInvalid(str(exc)) from exc
    return p, E, params


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(p, E, params, out):
    zs = np.array([complex(zr, zi) for zr, zi in params["z_grid"]])
    xs = sorted(float(x) for x in params["x_grid"])
    checkpoints, col = np.unique(xs, return_inverse=True)
    s = propagation.dirichlet_profile(p, checkpoints, zs, step=params.get("step", 1e-3))
    u, du = s.u[:, col].ravel(), s.du[:, col].ravel()
    z = np.repeat(zs, len(xs))
    out.write_csv("solve.csv",
                  ["z_re", "z_im", "x", "u_re", "u_im", "du_re", "du_im",
                   "log_scale", "h"],
                  [z.real, z.imag, np.tile(xs, len(zs)), u.real, u.imag, du.real,
                   du.imag, s.log_scale[:, col].ravel(),
                   s.log_growth(checkpoints)[:, col].ravel()])


def _cmd_bands(p, E, params, out):
    bs = periodic.band_spectrum(p, **params)
    bottom = bs.level[0] == 0   # the window starts below the spectrum
    out.write_json("bands.json", {
        "period": bs.period,
        "bands": [list(b) for b in bs.bands],
        "gap_set": periodic.to_gap_set(bs).to_json() if bottom else None,
        "lowest_eigenvalue": bs.bands[0][0] if bottom else None,
    })
    out.write_csv("bands.csv", ["lambda", "delta"], [bs.lam, bs.delta])


def _cmd_martin(p, E, params, out):
    cp = martin.solve_critical_points(E)
    zs = np.array([complex(zr, zi) for zr, zi in params["z_grid"]])
    ev = martin.martin_function(E, cp.c, zs)
    summary = {
        **E.to_json(),
        "critical_points": list(cp.c),
        "residuals": list(cp.residuals),
        "a_constant": martin.a_constant(E, cp.c),
    }
    if params.get("fit"):
        summary["fit_a"] = martin.fit_a_from_martin(E, cp.c, _FIT_K)
    out.write_json("critical_points.json", summary)
    out.write_csv("martin.csv", ["z_re", "z_im", "m", "theta_real"],
                  [zs.real, zs.imag, ev.value, ev.theta_real])


def _cmd_dos(p, E, params, out):
    d = regularity.dos_comparison(
        p, E, params["x"], tuple(params["lambda_window"]),
        martin.solve_critical_points(E).c,
        grid=params.get("grid_points", 200), step=params.get("step", 0.02))
    out.write_json("dos.json", {
        "x": params["x"],
        "lambda_window": list(params["lambda_window"]),
        "distance": d.distance,
    })
    out.write_csv("dos.csv", ["lambda", "rho_x", "rho_e"], [d.lam, d.rho_x, d.rho_e])


def _cmd_regularity(p, E, cfg, out):
    report = regularity.regularity_report(p, E, cfg)
    out.write_json("report.json", report.to_json())
    ineq, growth, dos = report.inequality, report.growth, report.dos
    out.write_csv("cesaro.csv", ["x", "average"], [ineq.x, ineq.average])
    nz, nx = growth.h.shape
    z = np.repeat(growth.z, nx)
    out.write_csv("growth.csv", ["z_re", "z_im", "x", "h", "m"],
                  [z.real, z.imag, np.tile(growth.x, nz), growth.h.ravel(),
                   np.repeat(growth.m, nx)])
    out.write_csv("dos.csv", ["lambda", "rho_x", "rho_e"], [dos.lam, dos.rho_x, dos.rho_e])


# every command: its handler, and the config inputs it reads besides params
_COMMANDS = {
    "solve": (_cmd_solve, ("potential",)),
    "bands": (_cmd_bands, ("potential",)),
    "martin": (_cmd_martin, ("spectrum",)),
    "dos": (_cmd_dos, ("potential", "spectrum")),
    "regularity": (_cmd_regularity, ("potential", "spectrum")),
}
COMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# entry points


def run(config, out_dir=None):
    """Validate and execute one experiment config; returns the exit code."""
    try:
        p, E, params = _validate_config(config)
    except ConfigInvalid as exc:
        print(f"schreg: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _OutputDir(out_dir or config.get("output_dir", "."))
    out.write_json("config.json", config)
    try:
        _COMMANDS[config["command"]][0](p, E, params, out)
    except Exception as exc:
        out.write_manifest(config, "error",
                           error={"type": type(exc).__name__,
                                  "message": str(exc)})
        print(f"schreg: compute failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    out.write_manifest(config, "ok")
    return EXIT_OK


def main(argv=None):
    import argparse   # here, not at module level: `run` never parses arguments

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
