"""Benchmark workloads: fixed sequences of ``bakerlab`` CLI commands, each
with a check of the artifacts it wrote.

Every workload stresses a different set of layers; the traced run shows
which (a layer a workload bypasses should read about zero there):

``mc_xonly``
    Small ensembles (at most 100k members, so the x state of at most 800 kB
    fits the 2 MiB L2 of one core), long x-only trajectories with burn-in:
    ``fr --source mc`` for both variants (20k members x (1000 + 4000)
    steps), a three-point transport bias sweep and the dithered stationary
    transport path at ell = 1/4.  Exercises ``ensemble`` (x-step kernel,
    burn-in, segment means), ``fluctuation`` (MC binning) and ``transport``;
    bypasses ``mapcore.step_arrays`` and the ``markov`` DP.  Skipping
    burn-in should pay off here, cache blocking should not.
``mc_xy``
    One large ensemble with the y-coordinate: ``density`` for the
    irreversible then the reversible variant (500k members, 200 burn-in and
    20 kept steps, 500 x 500 bins, 8 MB of x, y state per step).  Exercises
    ``mapcore.step_arrays``, the 2-d histogram and the CSV writers in
    ``cli``; bypasses the ``markov`` DP, ``fluctuation`` and ``transport``.
    The irreversible flip keeps burn-in necessary, so an exact stationary
    start must not help here; cache blocking should.
``exact``
    No ensemble: the lattice DP (``fr --source exact`` at n = 500, 1000,
    2000 and ``ratefunc`` at n = 2000), the generic DP at n = 64 and 96, a
    101 x 101 ``surface``, ``db`` under Q4 and Q3 and ``selftest``.
    Exercises ``markov`` (DPs and their state memory) and ``fluctuation``
    (per-cell logsumexp over the atoms); bypasses both MC kernels.  Its
    inputs do not depend on the seed.

Checks run after the timed region.  A check returns ``None`` on success or
a one-line reason for the failure.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import dp_state_bytes, ensemble_state_bytes

NAMES = ("mc_xonly", "mc_xy", "exact")

Z_BOUND = 5.0  # per admissible cell, MC pi against the exact DP
GK_SIGMAS = 5.0  # MC transport estimates against the exact chain
DENSITY_RTOL = 0.01  # x-marginal against its closed form (acceptance criterion 01)
MASS_TOL = 1e-6  # exact pi cells against total mass 1

FR_MC = dict(ell=0.15, q=0.2, n=200, delta=0.05, p_max=2.0, n_ens=20_000, n_iter=4_000, burn_in=1_000)
SWEEP_BIASES = (0.01, 0.1, 0.5)
SWEEP_N_ENS = 50_000
STATIONARY_N_ENS = 100_000
GK_N_ITER = 50
GK_BURN_IN = 1_000
DENSITY = dict(ell=0.15, q=0.0, n_ens=500_000, burn_in=200, n_iter=20, bins=500)
LATTICE = dict(ell=0.15, q=0.2, ns=(500, 1_000, 2_000), p_max=2.0)
GENERIC = dict(ell=0.1, q=0.1, ns=(64, 96), p_max=8.0)  # a wider grid holds all of the mass
EXACT_DELTA = 0.05  # the CLI's default cell half width
SURFACE_STEPS = 101


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[str], str | None]  # captured stdout -> failure reason or None


def commands(workload: str, seed: int, work: Path) -> list[Command]:
    """The workload's command sequence, writing below ``work``."""
    if workload == "mc_xonly":
        return _mc_xonly(seed, work)
    if workload == "mc_xy":
        return _mc_xy(seed, work)
    if workload == "exact":
        return _exact(work)
    raise ValueError(f"unknown workload {workload!r}")


def working_set_bytes(workload: str) -> int:
    """Largest per-step state of the workload (computed): ensemble
    coordinates for the MC workloads, one DP state array for ``exact``."""
    if workload == "mc_xonly":
        return ensemble_state_bytes(max(FR_MC["n_ens"], SWEEP_N_ENS, STATIONARY_N_ENS), with_y=False)
    if workload == "mc_xy":
        return ensemble_state_bytes(DENSITY["n_ens"], with_y=True)
    sizes = [dp_state_bytes(LATTICE["ell"], LATTICE["q"], n) for n in LATTICE["ns"]]
    sizes += [dp_state_bytes(GENERIC["ell"], GENERIC["q"], n) for n in GENERIC["ns"]]
    return max(sizes)


def _flags(**options) -> list[str]:
    argv = []
    for name, value in options.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    return argv


# ------------------------------------------------------------ mc_xonly


def _mc_xonly(seed: int, work: Path) -> list[Command]:
    rev, irr = work / "fr_reversible", work / "fr_irreversible"

    def fr(variant: str, out: Path, check) -> Command:
        return Command(["fr", "--source", "mc"] + _flags(**FR_MC, variant=variant, seed=seed, out=out), check)

    sweep = work / "sweep"
    stationary = work / "stationary"
    gk = dict(n_iter=GK_N_ITER, burn_in=GK_BURN_IN, seed=seed)
    return [
        fr("reversible", rev, lambda _stdout: _check_mc_pi(rev)),
        fr(
            "irreversible",
            irr,
            lambda _stdout: _check_mc_pi(irr) or _same_bytes(rev / "pi.csv", irr / "pi.csv"),
        ),
        Command(
            ["transport"] + _flags(sweep=",".join(map(str, SWEEP_BIASES)), n_ens=SWEEP_N_ENS, **gk, out=sweep),
            lambda _stdout: _check_sweep(sweep / "sweep.csv"),
        ),
        Command(
            ["transport"]
            + _flags(mode="stationary", ell=0.25, q=0, n_ens=STATIONARY_N_ENS, **gk, out=stationary),
            _check_equilibrium_transport,
        ),
    ]


def _check_mc_pi(out: Path) -> str | None:
    """MC cell masses against the exact DP at the same n: every cell with an
    expected count of at least 25 must lie within Z_BOUND binomial standard
    errors."""
    import numpy as np
    from bakerlab import fluctuation as fl
    from bakerlab import markov as mk

    p, mass = _columns(out / "pi.csv")
    grid = fl.symmetric_grid(FR_MC["p_max"], 2 * FR_MC["delta"])
    cfg = fl.FRConfig(n=FR_MC["n"], p_grid=grid, delta=FR_MC["delta"])
    if len(p) != len(cfg.p_grid) or np.abs(p - cfg.p_grid).max() > 1e-12:
        return f"{out.name}/pi.csv: unexpected p grid"
    exact = fl.estimate_pi(cfg, mk.contraction_sum_distribution(FR_MC["ell"], FR_MC["q"], FR_MC["n"])).mass
    segments = FR_MC["n_ens"] * (FR_MC["n_iter"] // FR_MC["n"])
    tested = segments * exact >= 25
    z = (mass[tested] - exact[tested]) / np.sqrt(exact[tested] * (1 - exact[tested]) / segments)
    worst = float(np.abs(z).max())
    if worst > Z_BOUND:
        return f"{out.name}/pi.csv: |z| = {worst:.2f} > {Z_BOUND} against the exact DP"
    return None


def _check_sweep(path: Path) -> str | None:
    from bakerlab import transport as tp

    rows = _rows(path)
    if [float(r[0]) for r in rows] != list(SWEEP_BIASES):
        return f"{path.name}: biases {[r[0] for r in rows]} != {SWEEP_BIASES}"
    for b, value, stderr in ((float(x) for x in r) for r in rows):
        exact = tp.green_kubo_exact(tp.ell_of_bias(b), GK_N_ITER - 1).value
        if abs(value - exact) > GK_SIGMAS * stderr:
            return f"{path.name}: L({b}) = {value} +- {stderr}, exact {exact}"
    return None


def _check_equilibrium_transport(stdout: str) -> str | None:
    match = re.search(r"L=(\S+) \+- (\S+)", stdout)
    if match is None:
        return "transport printed no estimate"
    value, stderr = float(match[1]), float(match[2])
    if abs(value - 0.75) > GK_SIGMAS * stderr:
        return f"L(0) = {value} +- {stderr} at ell = 1/4, expected 3/4"
    return None


# ------------------------------------------------------------ mc_xy


def _mc_xy(seed: int, work: Path) -> list[Command]:
    out = {v: work / f"density_{v}" for v in ("irreversible", "reversible")}
    argv = {v: ["density"] + _flags(**DENSITY, variant=v, seed=seed, out=out[v]) for v in out}
    return [
        Command(argv["irreversible"], lambda _stdout: _check_x_marginal(out["irreversible"])),
        Command(
            argv["reversible"],
            lambda _stdout: _check_x_marginal(out["reversible"])
            or _same_x_marginal(out["irreversible"], out["reversible"]),
        ),
    ]


def _check_x_marginal(out: Path) -> str | None:
    """Mean x density on each half against (2, 8 ell) / (1 + 4 ell)."""
    ell = DENSITY["ell"]
    expected = (2 / (1 + 4 * ell), 8 * ell / (1 + 4 * ell))
    x_rows = [r for r in _rows(out / "marginals.csv") if r[0] == "x"]
    halves = ([], [])
    for _, _, center, _, density in x_rows:
        halves[float(center) >= 0.5].append(float(density))
    for side, values, rho in zip(("left", "right"), halves, expected):
        got = sum(values) / len(values)
        if abs(got - rho) > DENSITY_RTOL * rho:
            return f"{out.name}: {side} x density {got:.5f}, closed form {rho:.5f}"
    return None


def _same_x_marginal(a: Path, b: Path) -> str | None:
    """The x-projection must not see the flip: identical bytes at equal seed."""
    lines = [
        [line for line in (d / "marginals.csv").read_text().splitlines() if line.startswith("x,")]
        for d in (a, b)
    ]
    if lines[0] != lines[1]:
        return f"x-marginal differs between {a.name} and {b.name}"
    return None


# ------------------------------------------------------------ exact


def _exact(work: Path) -> list[Command]:
    dp_runs = [("fr", LATTICE, n) for n in LATTICE["ns"]] + [("ratefunc", LATTICE, LATTICE["ns"][-1])]
    dp_runs += [("fr", GENERIC, n) for n in GENERIC["ns"]]
    cmds = []
    for command, family, n in dp_runs:
        out = work / f"{command}_{family['ell']}_{family['q']}_{n}"
        argv = [command, "--source", "exact"] + _flags(
            ell=family["ell"], q=family["q"], n=n, p_max=family["p_max"], out=out
        )
        cmds.append(Command(argv, lambda _stdout, out=out: _check_exact_pi(out)))
    surface = work / "surface"
    db_q4, db_q3 = work / "db_q4", work / "db_q3"
    cmds += [
        Command(
            ["surface"] + _flags(ell_steps=SURFACE_STEPS, q_steps=SURFACE_STEPS, out=surface),
            lambda _stdout: _check_surface(surface),
        ),
        Command(["db"] + _flags(scheme="q4", out=db_q4), lambda _stdout: _check_db(db_q4, violated=False)),
        Command(["db"] + _flags(scheme="q3", out=db_q3), lambda _stdout: _check_db(db_q3, violated=True)),
        Command(["selftest"], _check_selftest),
    ]
    return cmds


def _check_exact_pi(out: Path) -> str | None:
    """The normalized time average has total mass 1 and mean 1; with all
    mass inside the cells, the mass-weighted cell centres must reproduce
    that mean to within the half width EXACT_DELTA."""
    p, mass = _columns(out / "pi.csv")
    total = float(mass.sum())
    if abs(total - 1.0) > MASS_TOL:
        return f"{out.name}/pi.csv: total mass {total!r} != 1"
    mean = float((p * mass).sum() / total)
    if abs(mean - 1.0) > EXACT_DELTA:
        return f"{out.name}/pi.csv: mean {mean!r} != 1"
    return None


def _check_surface(out: Path) -> str | None:
    rows = [[float(v) for v in r] for r in _rows(out / "surface.csv")]
    if len(rows) != SURFACE_STEPS**2:
        return f"surface.csv has {len(rows)} cells"
    if any(q == 0.0 and abs(v) > 1e-14 for _, q, v in rows):
        return "mean contraction rate is not 0 on the q = 0 line"
    if any(v < -1e-12 for _, _, v in rows):
        return "negative mean contraction rate"
    return None


def _check_db(out: Path, violated: bool) -> str | None:
    worst = max(float(r[-1]) for r in _rows(out / "db.csv"))
    if violated and worst <= 0.0:
        return f"{out.name}: no detailed-balance violation at q = 0 under Q3"
    if not violated and worst != 0.0:
        return f"{out.name}: mismatch {worst!r}, expected exactly 0"
    return None


def _check_selftest(stdout: str) -> str | None:
    if not stdout.rstrip().endswith("selftest: all checks passed"):
        return "selftest did not pass"
    return None


# ------------------------------------------------------------ helpers


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _columns(path: Path):
    import numpy as np

    rows = _rows(path)
    return np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


def _same_bytes(a: Path, b: Path) -> str | None:
    if a.read_bytes() != b.read_bytes():
        return f"{a.parent.name}/{a.name} and {b.parent.name}/{b.name} differ"
    return None
