"""Seeded job lists for the benchmark workloads.

A job is one scientific task: a short chain of `schreg` CLI configs run
back to back, each paired with its oracle from `oracles`.  Every job of a
run draws its own inputs from the workload seed, so no job reuses another
job's cached intermediate results; a real CLI user never gets those hits
either, because each invocation is a fresh process.

Why these three workloads: `propagation` is used a different way by each,
so a kernel change that helps one use and costs another shows up.

* decaying_regularity -- few calls over huge uniform meshes at many real
  energies (Pruefer counting and transfer products over ~5.75e5 cells);
  `martin` and `periodic` do almost nothing against [0, inf).
* periodic_gaps -- thousands of tiny one-period transfer matrices from the
  discriminant scan, and Martin quadrature on three true gaps; almost no
  uniform-cell volume.  `martin` and `dos` get the closed-form gap set, so
  a fix to `bands` never changes the work done downstream.
* oscillating_blocks -- ~1.9e4 repeat blocks (~1.3e7 cells) through the
  per-block squaring loop at complex energies; no `martin` or `periodic`.
"""
from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

FREE = {"b0": 0.0, "gaps": []}
BANDS_WINDOW = (-2.0, 150.0)
# delta in [0.45, 0.51] keeps exactly three true gaps in BANDS_WINDOW, so a
# job's cost does not jump between seeds.
DELTA_RANGE = (0.45, 0.51)


@dataclass(frozen=True)
class Op:
    config: dict
    check: Callable[[dict, str], list]

    @property
    def name(self):
        return self.config["command"]


def _decaying_regularity(rng):
    pot = {"variant": "decaying", "amplitude": float(rng.uniform(0.5, 2.0)),
           "rate": float(rng.uniform(1.5, 3.0))}
    return [
        Op({"command": "regularity", "potential": pot, "spectrum": FREE,
            "params": {}}, oracles.check_regularity),
        Op({"command": "dos", "potential": pot, "spectrum": FREE,
            "params": {"x": 1000.0, "lambda_window": [0.0, 25.0],
                       "grid_points": 200}}, oracles.check_free_dos),
    ]


def _periodic_gaps(rng):
    delta = float(rng.uniform(*DELTA_RANGE))
    period = 2.0 * delta
    b0, gaps = oracles.square_wave_spectrum(delta, BANDS_WINDOW)
    spectrum = {"b0": b0, "gaps": [list(g) for g in gaps]}
    pot = {"variant": "periodic_square", "delta": delta}
    z = [[b0 - float(t), 0.0] for t in rng.uniform(0.05, 20.0, 20)]
    for a, b in gaps:
        z += [[a + (b - a) * float(u), 0.0] for u in rng.uniform(0.05, 0.95, 8)]
    z += [[float(re), float(im)] for re, im in
          zip(rng.uniform(b0 - 5.0, BANDS_WINDOW[1], 16), rng.uniform(0.2, 5.0, 16))]
    return [
        Op({"command": "bands", "potential": pot,
            "params": {"period": period, "lambda_window": list(BANDS_WINDOW),
                       "resolution": 2048}},
           functools.partial(oracles.check_bands, b0=b0, gaps=gaps)),
        Op({"command": "martin", "spectrum": spectrum,
            "params": {"z_grid": z, "fit": True}}, oracles.check_martin),
        Op({"command": "dos", "potential": pot, "spectrum": spectrum,
            "params": {"x": 500.0, "lambda_window": [b0, BANDS_WINDOW[1]],
                       "grid_points": 200}},
           functools.partial(oracles.check_gap_counts, period=period)),
    ]


def _oscillating_blocks(rng):
    pot = {"variant": "oscillating_example"}
    z = [[float(re), 0.0] for re in rng.uniform(-3.0, -0.3, 2)]
    z += [[float(re), float(im)] for re, im in
          zip(rng.uniform(-2.0, 20.0, 3), rng.uniform(0.3, 3.0, 3))]
    return [
        Op({"command": "solve", "potential": pot,
            "params": {"z_grid": z, "x_grid": [125.0, 250.0, 500.0, 1000.0],
                       "step": 0.02}}, oracles.check_growth),
        Op({"command": "dos", "potential": pot, "spectrum": FREE,
            "params": {"x": 200.0,
                       "lambda_window": [0.0, float(rng.uniform(20.0, 30.0))],
                       "grid_points": 200}}, oracles.check_free_dos),
    ]


# name -> (job maker, nominal seconds per job, measured on a 2-core x86 VM
# when the benchmark was written).
WORKLOADS = {
    "decaying_regularity": (_decaying_regularity, 5.2),
    "periodic_gaps": (_periodic_gaps, 1.85),
    "oscillating_blocks": (_oscillating_blocks, 4.5),
}

# A run executes its job list PASSES times, each pass in a fresh worker, and
# reports each job at its median pass (see run.py).
PASSES = 3


def make_jobs(workload, seed, seconds):
    """The run's job list: a list of jobs, each a list of `Op`s.

    A run of S seconds gets round(S / (PASSES * nominal)) jobs, so a run is a
    fixed amount of work: two commits measured with the same --seconds do
    the same jobs, and a faster commit finishes sooner.
    """
    maker, nominal = WORKLOADS[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return [maker(rng) for _ in range(max(1, round(seconds / (PASSES * nominal))))]
