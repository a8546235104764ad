"""Command-line orchestration: each experiment family computes its results,
then writes plot-ready CSV artifacts and a JSON manifest, so a failed run
writes nothing.

The library states each bound of an option once and refuses a value off
it before any work; its refusal names the fields apart from its text, and
the CLI prints each field as its flag, so a refused run writes nothing.

Exit codes: 0 success, 1 usage/validation error, 2 numeric or convergence
failure, 3 selftest failure.  Floats are written with 17 significant digits
so that re-running a command reproduces byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .errors import BakerlabError, DomainError, _refusal, _require
from .mapcore import (
    MapParams,
    MapVariant,
    Region,
    ReversalScheme,
    check_reversibility,
    region_reverse,
    time_reversal_arrays,
)
from . import mapcore as mc
from . import markov as mk
from . import ensemble as es
from . import fluctuation as fl
from . import transport as tp

_USAGE_EXIT = 1
_NUMERIC_EXIT = 2
_SELFTEST_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _read_config_file(path: str) -> dict[str, str]:
    """Flat key = value UTF-8 text; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BakerlabError(f"--config {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise BakerlabError(f"--config {path}: not UTF-8 text") from None
    out = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BakerlabError(f"{path}:{line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in out:
            raise BakerlabError(f"{path}:{line_no}: duplicate key {key}")
        out[key] = value.strip()
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI > config file > defaults over the command's option table
    {name: (converter, default)}; config-file values go through the same
    converters as flags."""
    spec = args.spec
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_values) - set(spec))
    if unknown:
        raise BakerlabError(f"{args.config}: unknown key(s): {', '.join(unknown)}")
    resolved = {}
    for name, (conv, default) in spec.items():
        value = getattr(args, name)
        if name in file_values:  # checked even when the flag overrides it
            try:
                from_file = conv(file_values[name])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise BakerlabError(f"{args.config}: bad value for {name}: {exc}") from None
            value = from_file if value is None else value
        resolved[name] = default if value is None else value
    # the map's domain, before any grid or map is built
    _require(resolved, ell=mc._ell_claim, ell_min=mc._ell_claim, ell_max=mc._ell_claim)
    _require(resolved, q=mc._q_claim, q_min=mc._q_claim, q_max=mc._q_claim)
    return resolved


def _variant(s: str) -> MapVariant:
    try:
        return MapVariant(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"variant must be 'reversible' or 'irreversible', got {s!r}")


def _scheme(s: str) -> ReversalScheme:
    try:
        return ReversalScheme(s.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"scheme must be 'q4' or 'q3', got {s!r}")


def _choice(*values: str):
    """Converter accepting exactly one of ``values``."""

    def conv(s: str) -> str:
        if s not in values:
            allowed = " or ".join(repr(v) for v in values)
            raise argparse.ArgumentTypeError(f"must be {allowed}, got {s!r}")
        return s

    return conv


def _ensemble_config(kind: type, params: MapParams, resolved: dict, **fields) -> es.SimConfig:
    """A ``kind`` of ``es.SimConfig`` (itself or ``tp.GKConfig``) over the
    map ``params``, with the options' ensemble sizes, seed and variant, if
    they have one (transport's x-only run reads none)."""
    ensemble = {k: resolved[k] for k in ("variant", "n_ens", "n_iter", "seed") if k in resolved}
    return kind(params=params, **ensemble, **fields)


# The ensemble starts x in its exact stationary law, so the x-only commands
# (fr and ratefunc with --source mc, transport) discard no steps and refuse
# a --burn-in off its default; only density, whose y starts uniform, reads it.
_STATIONARY_X = "whose x starts in its stationary law"


def _xonly_start(n_ens: int, *params: MapParams) -> dict:
    """The manifest ``start`` of an x-only run over ``n_ens`` members, dithered if it is at any of ``params``."""
    dither = any(es._needs_dither(p) for p in params)
    return {"x": "stationary", "burn_in_steps": 0, "workers": es.worker_count(n_ens), "dither": dither}


# the flag, or flag expression, of each library field that the flag of its
# own name does not set
_FLAGS = {
    "seg_len": "--n",
    "spacing": "(2 --delta)",
    "len(ells)": "--ell-steps",
    "len(qs)": "--q-steps",
    "nx": "--bins",
    "ny": "--bins",
    "bias": "--sweep",
}


def _flag(field: str) -> str:
    """The flag that sets the library's ``field``: the name a refusal prints for it."""
    return _FLAGS.get(field, "--" + field.replace("_", "-"))


def _refuse_set(resolved: dict, spec: dict, names: tuple, context: str) -> dict:
    """Refuse the first of ``names`` set off its ``spec`` default: ``context``
    ignores it.  Returns the options that remain, the ones the run reads."""
    for name in names:
        if resolved[name] != spec[name][1]:
            raise BakerlabError(f"{_flag(name)} cannot be combined with {context}")
    return {k: v for k, v in resolved.items() if k not in names}


def _write_csv(path: Path, header: str, row_format: str, rows) -> None:
    """Stream ``rows`` (tuples) below ``header``, each one ``%`` fill of the
    artifact's ``row_format``: ``%s`` a name, ``%d`` a count and ``%.17g``
    any other number, which round-trips a float64."""
    line = row_format + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(line % row)


def _write_grid_csv(path: Path, header: str, row_labels, col_labels, values: np.ndarray, conv: str) -> None:
    """``row,col,value`` lines over the outer product of the labels, every
    cell written with the ``%`` conversion ``conv``: each label is formatted
    once and each grid row, one line per cell, is one ``%`` fill, where
    ``_write_csv`` makes one per line.  Only one grid row is held as Python
    numbers."""
    cols = [f",{conv % label},{conv}" for label in col_labels]
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for label, row in zip(row_labels, values):
            head = conv % label
            fh.write((head + f"\n{head}".join(cols) + "\n") % tuple(row.tolist()))


def _write_json(path: Path, obj: dict) -> None:
    """Indented JSON with sorted keys; an enum is written as its value."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=lambda v: v.value)
        fh.write("\n")


@dataclass
class _Run:
    """What a command computed, for ``_write_run`` to write: its artifacts
    (file name -> writer, in write order), its summary line, the options it
    read, where its ensemble started, and a convergence error, if any."""

    artifacts: dict[str, Callable[[Path], None]]
    summary: str
    config: dict
    start: dict | None = None
    error: str | None = None


def _write_run(command: str, resolved: dict, compute: Callable[[dict], _Run]) -> int:
    """Compute, then write: only a computed run creates ``--out``, which
    then holds its artifacts and the ``manifest.json`` that lists exactly
    them.  A run with an error still writes, then exits 2."""
    if resolved["out"] == "":
        raise BakerlabError("--out must name a directory, got ''")
    out = Path(f"bakerlab_out/{command}" if resolved["out"] is None else resolved["out"])
    # refused before the work, not after it: the nearest existing path must
    # be a directory this process may create entries in
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise BakerlabError(f"--out {out}: {existing} exists and is not a directory")
    if existing is not None and not os.access(existing, os.W_OK | os.X_OK):
        raise BakerlabError(f"--out {out}: {existing} is not writable")
    t0 = time.time()
    run = compute(resolved)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in run.artifacts.items():
        write(out / name)
    manifest = {
        "command": command,
        "version": __version__,
        "config": run.config,
        "artifacts": list(run.artifacts),
        "wall_time_s": round(time.time() - t0, 3),
    }
    _write_json(out / "manifest.json", manifest if run.start is None else dict(manifest, start=run.start))
    print(f"{command}: {run.summary}; wrote {out}")
    if run.error is None:
        return 0
    print(f"{command}: error: {run.error}", file=sys.stderr)
    return _NUMERIC_EXIT


# ---------------------------------------------------------------- commands

_DENSITY = {
    "ell": (float, 0.15),
    "q": (float, 0.0),
    "variant": (_variant, es.SimConfig.variant),
    # the flip strip, which only the irreversible variant reads; None is the
    # map's own default, the B slab
    "strip_x": (float, None),
    "strip_eps": (float, None),
    "n_ens": (int, 20_000),
    "n_iter": (int, 50),
    "burn_in": (int, 1_000),
    "bins": (int, 500),
    "seed": (int, es.SimConfig.seed),
    "out": (str, None),
}


def _cmd_density(resolved) -> _Run:
    read = resolved
    if resolved["variant"] is not MapVariant.IRREVERSIBLE:
        read = _refuse_set(resolved, _DENSITY, ("strip_x", "strip_eps"), "--variant reversible")
    params = MapParams(resolved["ell"], resolved["q"], resolved["strip_x"], resolved["strip_eps"])
    config = _ensemble_config(es.SimConfig, params, resolved, burn_in=resolved["burn_in"])
    nb = resolved["bins"]
    bins = range(nb)  # the bin indices of either axis
    hist = es.empirical_density(config, nx=nb, ny=nb)
    marginals = (
        (axis, i, (i + 0.5) / nb, int(c), d)
        for axis, marginal in (("x", hist.x_marginal), ("y", hist.y_marginal))
        for i, (c, d) in enumerate(zip(marginal(), marginal(density=True)))
    )
    return _Run(
        {
            "histogram2d.csv": lambda path: _write_grid_csv(path, "x_bin,y_bin,count", bins, bins, hist.counts, "%d"),
            "marginals.csv": lambda path: _write_csv(
                path, "axis,bin,center,count,density", "%s,%d,%.17g,%d,%.17g", marginals
            ),
        },
        f"{hist.n_samples} samples",
        read,
        _xonly_start(config.n_ens, params) | {"y": "uniform", "burn_in_steps": config.burn_in},
    )


_SURFACE = {
    "ell_min": (float, 0.05),
    "ell_max": (float, 0.25),
    "ell_steps": (int, 21),
    "q_min": (float, 0.0),
    "q_max": (float, 0.4),
    "q_steps": (int, 21),
    "out": (str, None),
}


def _cmd_surface(resolved) -> _Run:
    # the library's claim, asked before linspace builds axes of that many points
    if (claim := mk._grid_claim(resolved["ell_steps"], resolved["q_steps"])) is not None:
        raise _refusal(claim)
    ells = np.linspace(resolved["ell_min"], resolved["ell_max"], resolved["ell_steps"])
    qs = np.linspace(resolved["q_min"], resolved["q_max"], resolved["q_steps"])
    rates = mk.mean_contraction_rate_grid(ells, qs)
    negatives = int((rates < -1e-12).sum())
    warning = f", WARNING {negatives} with a negative mean contraction rate" if negatives else ""
    artifacts = {"surface.csv": lambda path: _write_grid_csv(path, "ell,q,mean_lambda", ells, qs, rates, "%.17g")}
    return _Run(artifacts, f"{rates.size} cells{warning}", resolved)


# shared by fr and ratefunc
_FR = {
    "ell": (float, 0.15),
    "q": (float, 0.2),
    "variant": (_variant, es.SimConfig.variant),  # --source mc's, though its x-only run never reads it
    "n": (int, 200),
    "delta": (float, fl.FRConfig.delta),
    "p_max": (float, 2.0),
    "source": (_choice("mc", "exact"), "exact"),
    "min_count": (int, fl.FRConfig.min_count),
    "n_ens": (int, 10_000),
    "n_iter": (int, 2_000),
    "burn_in": (int, 1_000),
    "seed": (int, es.SimConfig.seed),
    "out": (str, None),
}

# options that only the mc source reads
_MC_ONLY = ("variant", "n_ens", "n_iter", "burn_in", "seed", "min_count")


def _fr_family(command: str, resolved: dict) -> tuple[fl.PiHistogram, fl.RateFunction, _Run]:
    """Body of fr and ratefunc: the cell masses from the exact law or the
    ensemble and their rate function, with the run that writes ``pi.csv``
    and ``zeta.csv``; each command adds its own artifact and summary."""
    ell, q = resolved["ell"], resolved["q"]
    if (claim := fl._mean_rate_claim(mk.mean_contraction_rate(ell, q))) is not None:  # before any law or ensemble
        raise DomainError(f"--q {q} at --ell {ell}: the {claim}; choose a larger --q")
    # the p cells: cells of half width --delta side by side, from -p_max to p_max
    _require(resolved, delta=fl._positive_claim, p_max=fl._positive_claim)
    p_max, delta = resolved["p_max"], resolved["delta"]
    if (claim := fl._cells_claim(p_max, 2.0 * delta)) is not None:
        raise _refusal(f"--p-max {p_max} at --delta {delta} {claim}")
    grid = fl.symmetric_grid(p_max, 2.0 * delta)
    if fl._p_grid_claim(grid) is not None:
        raise DomainError(f"--p-max {p_max} leaves no cell beside p = 0 at --delta {delta}; it must exceed --delta")
    fr_cfg = fl.FRConfig(n=resolved["n"], p_grid=grid, delta=delta, min_count=resolved["min_count"])
    if resolved["source"] == "exact":
        read = _refuse_set(resolved, _FR, _MC_ONLY, "--source exact")
        source = mk.contraction_sum_distribution(ell, q, resolved["n"])
        start = None
    else:
        read = _refuse_set(resolved, _FR, ("burn_in",), f"{command} --source mc, {_STATIONARY_X}")
        source = _ensemble_config(es.SimConfig, MapParams(ell, q), read, burn_in=0)
        start = _xonly_start(source.n_ens, source.params)
    pi = fl.estimate_pi(fr_cfg, source)
    rf = fl.rate_function(pi)
    zeta = ((p, z) for p, z in zip(rf.p, rf.zeta) if np.isfinite(z))
    artifacts = {
        "pi.csv": lambda path: _write_csv(path, "p,pi_n", "%.17g,%.17g", zip(pi.p, pi.mass)),
        "zeta.csv": lambda path: _write_csv(path, "p,zeta_n", "%.17g,%.17g", zeta),
    }
    return pi, rf, _Run(artifacts, "", read, start)


def _cmd_fr(resolved) -> _Run:
    pi, _, run = _fr_family("fr", resolved)
    chk = fl.fr_check(pi)
    run.artifacts["fr.csv"] = lambda path: _write_csv(path, "p,fr_value", "%.17g,%.17g", zip(chk.p, chk.value))
    run.summary = f"slope={chk.slope:.6f} over {len(chk.p)} admissible p"
    return run


def _cmd_ratefunc(resolved) -> _Run:
    _, rf, run = _fr_family("ratefunc", resolved)
    fit = fl.fit_parabola(rf)
    fit_json = {"a": fit.a, "b": fit.b, "residual": fit.residual, "n_points": fit.n_points}
    run.artifacts["parabola_fit.json"] = lambda path: _write_json(path, fit_json)
    run.summary = f"a={fit.a:.6f} b={fit.b:.6f}"
    return run


_DB = {
    "ell": (float, 0.15),
    "q": (float, 0.0),
    "scheme": (_scheme, ReversalScheme.Q4),
    "out": (str, None),
}


def _cmd_db(resolved) -> _Run:
    report = mk.db_report(resolved["ell"], resolved["q"], resolved["scheme"])
    rows = (
        (p.source.name, p.target.name, p.forward_weight,
         p.reverse_source.name, p.reverse_target.name, p.reverse_weight, p.mismatch)
        for p in report.pairs
    )
    header = "from,to,forward_weight,reverse_from,reverse_to,reverse_weight,mismatch"
    return _Run(
        {"db.csv": lambda path: _write_csv(path, header, "%s,%s,%.17g,%s,%s,%.17g,%.17g", rows)},
        f"max mismatch = {report.max_mismatch:.17g}",
        resolved,
    )


_TRANSPORT = {
    "ell": (float, 0.25),
    "q": (float, None),
    "mode": (_choice("equilibrium", "stationary"), "equilibrium"),
    "n_ens": (int, 100_000),
    "n_iter": (int, 50),
    "burn_in": (int, 1_000),
    "seed": (int, es.SimConfig.seed),
    "k_max": (int, 50),
    "sweep": (str, None),
    "out": (str, None),
}


def _biases(sweep: str) -> np.ndarray:
    """The comma-separated bias list of ``--sweep``, each refused by ``tp.bias_sweep`` off its domain."""
    try:
        biases = [float(tok) for tok in sweep.split(",") if tok.strip()]
    except ValueError as exc:
        raise BakerlabError(f"--sweep: {exc}") from None
    if not biases:
        raise BakerlabError(f"--sweep: no bias values in {sweep!r}")
    return np.array(biases)


# options that --sweep derives from each bias or does not use
_NOT_SWEPT = ("ell", "q", "mode", "k_max")


def _cmd_transport(resolved) -> _Run:
    read = _refuse_set(resolved, _TRANSPORT, ("burn_in",), f"transport, {_STATIONARY_X}")
    if resolved["sweep"] is not None:
        read = _refuse_set(read, _TRANSPORT, _NOT_SWEPT, "--sweep")
        biases = _biases(resolved["sweep"])
        base = _ensemble_config(tp.GKConfig, MapParams(ell=0.25, q=0.0), resolved)
        rows = tp.bias_sweep(biases, base)
        bad = sum(0 if r.converged else 1 for _, r in rows)
        table = ((b, r.value, r.stderr) for b, r in rows)
        return _Run(
            {"sweep.csv": lambda path: _write_csv(path, "F_e,L,stderr", "%.17g,%.17g,%.17g", table)},
            f"swept {len(rows)} bias values",
            read,
            _xonly_start(base.n_ens, *(MapParams(tp.ell_of_bias(b)) for b in biases)),
            f"{bad} sweep entries failed the convergence check" if bad else None,
        )

    q = 0.5 - 2.0 * resolved["ell"] if resolved["q"] is None else resolved["q"]
    if mc._q_claim(q) is not None:  # the default q = 1/2 - 2 ell rounds to 1/2 for ell <= 2**-56
        raise DomainError(f"--ell must be large enough for the default --q, 1/2 - 2 ell, to lie below 1/2, "
                          f"got {resolved['ell']}")
    if resolved["mode"] == "equilibrium" and (claim := tp._equilibrium_claim(resolved["ell"], q)) is not None:
        raise _refusal(f"--mode equilibrium {claim}; use --mode stationary at other (ell, q)")
    mode = "microcanonical-equilibrium" if resolved["mode"] == "equilibrium" else "stationary"
    cfg = _ensemble_config(tp.GKConfig, MapParams(resolved["ell"], q), resolved, ensemble_mode=mode)
    exact = tp.green_kubo_exact(resolved["ell"], resolved["k_max"])
    result = tp.green_kubo_estimate(cfg)
    return _Run(
        {
            "convergence.csv": lambda path: _write_csv(
                path, "k,partial_sum", "%d,%.17g", enumerate(result.partial_sums)
            ),
            "convergence_exact.csv": lambda path: _write_csv(
                path, "k,partial_sum", "%d,%.17g", enumerate(exact.partial_sums)
            ),
        },
        f"L={result.value:.6f} +- {result.stderr:.6f} (exact chain: {exact.value:.6f})",
        read,  # q as given; None means 1/2 - 2 ell
        _xonly_start(cfg.n_ens, cfg.params),
        None if result.converged else "partial sums did not converge",
    )


# ---------------------------------------------------------------- selftest

# the plastic number, the real root of g**3 = g + 1
_PLASTIC = 1.324717957244746


def _r2_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Points k = 1..n of the R2 Kronecker sequence frac(1/2 + k (1/g, 1/g**2)),
    g the plastic number, as x and y columns: a deterministic set spread
    evenly over the unit square, none of it on a region boundary."""
    pts = np.arange(1, n + 1)[:, None] * np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])
    pts += 0.5
    pts %= 1.0
    return pts[:, 0], pts[:, 1]


def _selftest_checks():
    ells = [0.05, 0.1, 0.15, 0.2, 0.25]

    def density_fixed_point():
        for ell in ells:
            T = mk.transfer_matrix(ell)
            rho = np.array(mk.stationary_density(ell))
            if np.abs(T @ rho - rho).max() > 1e-14:
                return f"transfer fixed point fails at ell={ell}"
            if abs(rho.mean() - 1.0) > 1e-14:
                return f"density normalization fails at ell={ell}"

    def coarse_measure_checks():
        for ell in ells:
            mu = mk.coarse_measure(ell)
            P = mk.transition_matrix(ell)
            if np.abs(mu @ P - mu).max() > 1e-15:
                return f"stationarity fails at ell={ell}"
            rho = mk.stationary_density(ell)
            ref = [rho.rho_l * ell, rho.rho_l * (0.5 - ell), rho.rho_r / 4, rho.rho_r / 4]
            if np.abs(mu - np.array(ref)).max() > 1e-14:
                return f"measure/density relation fails at ell={ell}"

    def transition_structure():
        for ell in ells:
            P = mk.transition_matrix(ell)
            if np.abs(P.sum(axis=1) - 1).max() > 1e-15:
                return f"rows not stochastic at ell={ell}"
            expansion = np.array([1 / (2 * ell), 1 / (1 - 2 * ell), 2.0, 2.0])
            nz = P > 0
            target_rate = np.tile(1 / expansion, (4, 1))
            if np.abs(P[nz] - target_rate[nz]).max() > 1e-14:
                return f"p_ij != 1/expansion_j at ell={ell}"

    def equilibrium_line():
        for ell in ells:
            if abs(mk.mean_contraction_rate(ell, 0.0)) > 1e-14:
                return f"mean rate not 0 at ell={ell}, q=0"

    def db_equilibrium():
        for ell in ells:
            rep = mk.db_report(ell, 0.0, ReversalScheme.Q4)
            if rep.max_mismatch != 0.0:
                return f"q=0/Q4 mismatch {rep.max_mismatch} at ell={ell}"

    def db_nonequilibrium():
        rep = mk.db_report(0.15, 0.2, ReversalScheme.Q3)
        if rep.max_mismatch <= 0.1:
            return "Q3 violation not detected at ell=0.15"
        rep = mk.db_report(0.25, 0.0, ReversalScheme.Q3)
        if rep.max_mismatch != 0.0:
            return f"Q3 mismatch {rep.max_mismatch} at ell=1/4"

    # the three point checks share one fixed point set, so selftest loads no random generator
    x, y = _r2_points(2_000)

    def reversal_identity():
        for ell in (0.15, 0.25):
            rep = check_reversibility(MapParams(ell=ell, q=0.0), x, y)
            if rep.max_deviation > 1e-12:
                return f"M G M = G fails at ell={ell}: {rep.max_deviation}"
        gx, gy = time_reversal_arrays(x, y)
        ggx, ggy = time_reversal_arrays(gx, gy)
        if max(np.abs(ggx - x).max(), np.abs(ggy - y).max()) > 1e-14:
            return "time reversal is not an involution"

    def jacobian_pairing():
        for ell in (0.15, 0.25):
            rep = check_reversibility(MapParams(ell=ell, q=0.0), x, y)
            if rep.max_pairing_deviation > 1e-12:
                return f"pairing fails at ell={ell}"

    def reversal_schemes():
        for scheme in ReversalScheme:
            for r in Region:
                if region_reverse(region_reverse(r, scheme), scheme) != r:
                    return f"{scheme.value} is not an involution"
        for r in Region:
            if abs(tp.PSI[region_reverse(r, ReversalScheme.Q3)] + tp.PSI[r]) > 0:
                return "current not odd under Q3"

    def bias_round_trip():
        for ell in ells:
            if abs(tp.ell_of_bias(tp.bias_of_ell(ell)) - ell) > 1e-14:
                return f"bias round trip fails at ell={ell}"

    def exact_transport():
        g = tp.green_kubo_exact(0.25, 30)
        if abs(g.value - 0.75) > 1e-14:
            return f"L(0) = {g.value} != 3/4"
        if np.abs(g.partial_sums[1:] - 0.75).max() > 1e-14:
            return "partial sums not flat after k=2"

    def exact_distribution():
        d = mk.contraction_sum_distribution(0.15, 0.2, 500)
        if abs(d.probs.sum() - 1.0) > 1e-12:
            return f"mass {d.probs.sum()} != 1 at n=500"
        if abs(d.mean_time_average() - mk.mean_contraction_rate(0.15, 0.2)) > 1e-10:
            return "stationary mean broken at n=500"

    return [
        ("transfer operator fixed point and normalization", density_fixed_point),
        ("coarse measure stationarity and density relation", coarse_measure_checks),
        ("transition matrix structure", transition_structure),
        ("mean contraction rate vanishes on the q=0 line", equilibrium_line),
        ("detailed balance exact at q=0 under Q4", db_equilibrium),
        ("detailed balance violated off equilibrium under Q3", db_nonequilibrium),
        ("time reversal involution and M G M = G at q=0", reversal_identity),
        ("Jacobian pairing at q=0", jacobian_pairing),
        ("reversal schemes are involutions; current odd under Q3", reversal_schemes),
        ("bias round trip", bias_round_trip),
        ("exact transport coefficient at ell=1/4", exact_transport),
        ("exact contraction distribution normalization", exact_distribution),
    ]


def _cmd_selftest() -> int:
    failures = 0
    for name, fn in _selftest_checks():
        try:
            detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            detail = f"raised {type(exc).__name__}: {exc}"
        if detail is None:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    if failures:
        print(f"selftest: {failures} check(s) failed")
        return _SELFTEST_EXIT
    print("selftest: all checks passed")
    return 0


# ---------------------------------------------------------------- parser


_COMMANDS = (
    ("density", "2-d invariant-density histogram and marginals", _DENSITY, _cmd_density),
    ("surface", "mean contraction rate over an (ell, q) grid", _SURFACE, _cmd_surface),
    ("fr", "probability cells, rate function and fluctuation-relation check", _FR, _cmd_fr),
    ("ratefunc", "rate function with parabola fit", _FR, _cmd_ratefunc),
    ("db", "detailed-balance report", _DB, _cmd_db),
    ("transport", "Green-Kubo transport estimate or bias sweep", _TRANSPORT, _cmd_transport),
    ("selftest", "run the analytic invariant battery", {}, _cmd_selftest),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv``: only the subcommand that its first token
    names, or all seven when it names none (help, ``--version``, no
    command, an unknown one, or no ``argv``), each with its flags, "--" +
    each key of its option table, then ``--config``.  The fixed metavar
    keeps the usage line of a one-subcommand parser listing all seven."""
    parser = _Parser(prog="bakerlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bakerlab {__version__}")
    chosen = [command for command in _COMMANDS if argv and argv[0] == command[0]]
    # a metavar would also rename the action in "invalid choice" and "required"
    # errors, which only a parser of all seven can raise
    metavar = "{" + ",".join(command[0] for command in _COMMANDS) + "}" if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, metavar=metavar)
    for name, help_text, spec, fn in chosen or _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option, (conv, _) in spec.items():
            p.add_argument("--" + option.replace("_", "-"), dest=option, type=conv)
        if spec:  # selftest reads no options
            p.add_argument("--config", type=str)
        p.set_defaults(fn=fn, spec=spec)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        if not args.spec:  # selftest writes nothing
            return args.fn()
        return _write_run(args.command, _resolve(args), args.fn)
    except (BakerlabError, OSError) as exc:
        # a library refusal names each field it refuses as the field's flag
        message = exc.named(_flag) if isinstance(exc, BakerlabError) else exc
        print(f"{args.command}: error: {message}", file=sys.stderr)
        # RuntimeError covers every numeric failure class in bakerlab.errors
        return _NUMERIC_EXIT if isinstance(exc, (RuntimeError, OSError)) else _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
