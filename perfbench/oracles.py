"""Independent checks of the artifacts that `schreg` CLI ops leave behind.

Nothing here imports `schreg`: every oracle is a closed form or a property
that holds for every seed, computed with numpy/scipy only, so a defect in
the package cannot hide by being shared with its check.

A check returns a list of `Problem`s; an op passes when the list is empty.
`Problem.known` marks the one defect class the package is known to have
(ROADMAP item 4: a `bands` scan drops a true gap narrower than its sample
spacing, because it detects skipped bands only by a sign change of the
discriminant).  Known problems still fail the op and count in `failed`;
they only keep the run's `correct` flag true, so that any other wrong
answer stands out.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

CONSISTENT = "consistent-with-regular"
EDGE_TOL = 1e-8          # band/gap edges against closed-form roots
FREE_DOS_TOL = 0.05      # KS distance of rho_x to the free measure sqrt(lam)/pi
GROWTH_TOL = 0.05        # |h(1000, z) - Re sqrt(-z)|
FIT_TOL = 1e-2           # |a_constant - fit_a|
RESIDUAL_TOL = 1e-10     # critical-point gap residuals


@dataclass(frozen=True)
class Problem:
    text: str
    known: bool = False


# ---------------------------------------------------------------------------
# closed-form square wave: V = +1 on [0, d), -1 on [d, 2d), period 2d


def square_wave_discriminant(lam, delta):
    """Trace of the one-period transfer matrix, from the two constant cells.

    On a cell of constant V the flow of (u, u') has trace-form entries
    cos(k h), sin(k h)/k and -k sin(k h) with k**2 = lam - V; the complex
    square root covers lam < V (cosh/sinh) without a branch.
    """
    lam = np.asarray(lam, dtype=complex)
    k1, k2 = np.sqrt(lam - 1.0), np.sqrt(lam + 1.0)
    c1, c2 = np.cos(k1 * delta), np.cos(k2 * delta)
    s1 = np.sinc(k1 * delta / np.pi) * delta          # sin(k h)/k, safe at k=0
    s2 = np.sinc(k2 * delta / np.pi) * delta
    return (2.0 * c1 * c2 - (k1 * k1 + k2 * k2) * s1 * s2).real


def square_wave_spectrum(delta, window, spacing=2e-4):
    """(b0, gaps) of the square wave inside `window`, edges to ~1e-13.

    A scan at `spacing` (far below the narrowest gap, ~0.02 for
    delta in [0.45, 0.51]) finds the runs where |discriminant| > 2; each
    run's ends are then solved with brentq on discriminant = +-2.  The
    run touching the window's low end is the region below the spectrum.
    """
    lo, hi = window
    lam = np.arange(lo, hi, spacing)
    disc = square_wave_discriminant(lam, delta)
    outside = np.abs(disc) > 2.0
    if not outside[0]:
        raise ValueError("window must start below the spectrum")

    def edge(i, j, sign):
        return brentq(lambda x: sign * square_wave_discriminant(x, delta) - 2.0,
                      lam[i], lam[j], xtol=1e-14, rtol=1e-15)

    starts = np.flatnonzero(outside & ~np.r_[False, outside[:-1]])
    ends = np.flatnonzero(outside & ~np.r_[outside[1:], False])
    b0 = edge(ends[0], ends[0] + 1, np.sign(disc[ends[0]]))
    gaps = []
    for i, j in zip(starts[1:], ends[1:]):
        if j == len(lam) - 1:
            break                      # gap cut by the window's top
        s = np.sign(disc[i])
        gaps.append((edge(i - 1, i, s), edge(j, j + 1, s)))
    return b0, gaps


# ---------------------------------------------------------------------------
# artifact readers


def _json(out_dir, name):
    with open(Path(out_dir) / name, encoding="utf-8") as fh:
        return json.load(fh)


def _csv(out_dir, name):
    with open(Path(out_dir) / name, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def check_manifest(out_dir):
    """Every op: status ok and each listed artifact re-hashes to its record."""
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        return [Problem("no manifest.json")]
    manifest = _json(out_dir, "manifest.json")
    problems = []
    if manifest.get("status") != "ok":
        problems.append(Problem(f"manifest status {manifest.get('status')!r}: "
                                f"{manifest.get('error')}"))
    names = set()
    for rec in manifest.get("files", []):
        names.add(rec["name"])
        f = Path(out_dir) / rec["name"]
        if not f.exists():
            problems.append(Problem(f"{rec['name']} listed but missing"))
            continue
        data = f.read_bytes()
        if (hashlib.sha256(data).hexdigest() != rec["sha256"]
                or len(data) != rec["bytes"]):
            problems.append(Problem(f"{rec['name']} does not match its hash"))
    if "config.json" not in names:
        problems.append(Problem("config.json not in manifest"))
    return problems


def manifest_hashes(out_dir):
    """{artifact name: sha256} from an op's manifest (empty if absent)."""
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        return {}
    return {r["name"]: r["sha256"] for r in _json(out_dir, "manifest.json")["files"]}


# ---------------------------------------------------------------------------
# per-op oracles


def _dos_grid_problems(lam, config):
    p = config["params"]
    lo, hi = p["lambda_window"]
    want = np.linspace(lo, hi, p.get("grid_points", 200))
    if lam.shape != want.shape or not np.allclose(lam, want, rtol=0, atol=1e-12):
        return [Problem("dos lambda grid differs from the requested window")]
    return []


def _monotone_problems(rho_x):
    if np.any(np.diff(rho_x) < 0):
        return [Problem("rho_x decreases")]
    return []


def check_free_dos(config, out_dir):
    """dos against [0, inf): rho_x within 0.05 of sqrt(lam)/pi, nondecreasing."""
    _, d = _csv(out_dir, "dos.csv")
    lam, rho_x = d[:, 0], d[:, 1]
    problems = _dos_grid_problems(lam, config) + _monotone_problems(rho_x)
    dist = float(np.max(np.abs(rho_x - np.sqrt(np.maximum(lam, 0.0)) / math.pi)))
    if not dist <= FREE_DOS_TOL:
        problems.append(Problem(f"free-field dos distance {dist:.4g} > {FREE_DOS_TOL}"))
    return problems


def check_regularity(config, out_dir):
    verdict = _json(out_dir, "report.json")["verdict"]
    if verdict != CONSISTENT:
        return [Problem(f"verdict {verdict!r} for a regular decaying potential")]
    return []


def check_bands(config, out_dir, b0, gaps):
    """Every true gap inside the window is reported, edges within 1e-8.

    The bottom of the spectrum (first band edge and `lowest_eigenvalue`)
    is held to the same tolerance, and a reported gap that matches no true
    gap is an error.  A missing gap narrower than the scan spacing is the
    known defect; anything else is not.
    """
    p = config["params"]
    lo, hi = p["lambda_window"]
    spacing = (hi - lo) / (p.get("resolution", 512) - 1)
    doc = _json(out_dir, "bands.json")
    problems = []
    got_b0 = doc["gap_set"]["b0"]
    if not abs(got_b0 - b0) <= EDGE_TOL:
        problems.append(Problem(f"spectrum bottom {got_b0!r}, closed form {b0!r}"))
    low = doc["lowest_eigenvalue"]
    if low is None or not abs(low - b0) <= EDGE_TOL:
        problems.append(Problem(f"lowest_eigenvalue {low!r}, closed form {b0!r}"))
    reported = [tuple(g) for g in doc["gap_set"]["gaps"]]

    def close(g, h):
        return abs(g[0] - h[0]) <= EDGE_TOL and abs(g[1] - h[1]) <= EDGE_TOL

    for a, b in gaps:
        if lo < a < b < hi and not any(close((a, b), g) for g in reported):
            width = b - a
            problems.append(Problem(
                f"true gap ({a:.10g}, {b:.10g}) of width {width:.3g} not reported"
                f" (scan spacing {spacing:.3g})", known=width < spacing))
    for g in reported:
        if not any(close(g, t) for t in gaps):
            problems.append(Problem(f"reported gap {g} matches no true gap"))
    return problems


def check_martin(config, out_dir):
    """a_constant agrees with the asymptotic fit; gap residuals vanish."""
    doc = _json(out_dir, "critical_points.json")
    problems = []
    gaps = config["spectrum"]["gaps"]
    c = doc["critical_points"]
    if len(c) != len(gaps) or not all(a < cj < b for (a, b), cj in zip(gaps, c)):
        problems.append(Problem("critical points are not one per gap, inside it"))
    diff = abs(doc["a_constant"] - doc["fit_a"])
    if not diff <= FIT_TOL:
        problems.append(Problem(f"|a_constant - fit_a| = {diff:.3g} > {FIT_TOL}"))
    worst = max((abs(r) for r in doc["residuals"]), default=0.0)
    if not worst <= RESIDUAL_TOL:
        problems.append(Problem(f"gap residual {worst:.3g} > {RESIDUAL_TOL}"))
    _, rows = _csv(out_dir, "martin.csv")
    if len(rows) != len(config["params"]["z_grid"]):
        problems.append(Problem("martin.csv does not have one row per z"))
    return problems


def check_gap_counts(config, out_dir, period):
    """Zero counts inside the n-th true gap obey the Sturm bound.

    On [0, kP] the Dirichlet problem has k-1 eigenvalues inside each band
    and one (a zero of u(P)) in the closure of each gap, so for lam in gap
    n the count at kP is n*k - 1 or n*k.  Counts grow with x, so with
    k = floor(x/P) the count at x lies in [n*k - 1, n*k + n].
    """
    x = config["params"]["x"]
    gaps = config["spectrum"]["gaps"]
    _, d = _csv(out_dir, "dos.csv")
    lam, rho_x = d[:, 0], d[:, 1]
    problems = _dos_grid_problems(lam, config) + _monotone_problems(rho_x)
    counts = rho_x * x
    if np.any(np.abs(counts - np.round(counts)) > 1e-6):
        problems.append(Problem("rho_x * x is not an integer count"))
    k = math.floor(x / period)
    for n, (a, b) in enumerate(gaps, start=1):
        inside = counts[(lam > a) & (lam < b)]
        bad = inside[(inside < n * k - 1.5) | (inside > n * k + n + 0.5)]
        if len(bad):
            problems.append(Problem(
                f"zero counts {bad.tolist()} in gap {n}, outside "
                f"[{n * k - 1}, {n * k + n}]"))
    return problems


def check_growth(config, out_dir, x_check=1000.0):
    """h(x_check, z) within 0.05 of the free-field growth Re sqrt(-z)."""
    header, d = _csv(out_dir, "solve.csv")
    col = {name: i for i, name in enumerate(header)}
    p = config["params"]
    problems = []
    if len(d) != len(p["z_grid"]) * len(p["x_grid"]):
        problems.append(Problem("solve.csv does not have one row per (z, x)"))
    rows = d[d[:, col["x"]] == x_check]
    if len(rows) != len(p["z_grid"]):
        return problems + [Problem(f"solve.csv lacks rows at x={x_check}")]
    for row in rows:
        z = complex(row[col["z_re"]], row[col["z_im"]])
        want = np.sqrt(-z).real
        err = abs(row[col["h"]] - want)
        if not err <= GROWTH_TOL:
            problems.append(Problem(f"h({x_check}, {z}) off Re sqrt(-z) by {err:.3g}"))
    return problems
