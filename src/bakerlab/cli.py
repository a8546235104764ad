"""Command-line orchestration: each experiment family computes its results,
then writes plot-ready CSV artifacts and a JSON manifest, so a failed run
writes nothing.

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
from .errors import BakerlabError, DomainError
from .mapcore import (
    MapParams,
    MapVariant,
    Region,
    ReversalScheme,
    check_reversibility,
    region_reverse,
    time_reversal_arrays,
)
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
        out[key.strip().replace("-", "_")] = value.strip()
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


# the flip strip, which only the irreversible variant reads; None is the
# map's own default, the B slab
_STRIP = {"strip_x": (float, None), "strip_eps": (float, None)}


def _params_from(resolved: dict) -> tuple[MapParams, dict]:
    """The map parameters, and the options without the strip unless the
    irreversible variant reads it."""
    if resolved["variant"] is not MapVariant.IRREVERSIBLE:
        resolved = _refuse_set(resolved, _STRIP, tuple(_STRIP), "--variant reversible")
    return MapParams(resolved["ell"], resolved["q"], resolved.get("strip_x"), resolved.get("strip_eps")), resolved


def _sim_config(resolved: dict, burn_in: int) -> tuple[es.SimConfig, dict]:
    params, read = _params_from(resolved)
    ensemble = {k: resolved[k] for k in ("variant", "n_ens", "n_iter", "seed")}
    return es.SimConfig(params=params, burn_in=burn_in, **ensemble), read


# The ensemble starts x in its exact stationary law, so the x-only commands
# (fr and ratefunc with --source mc, transport) discard no steps and refuse
# a --burn-in off its default; only density, whose y starts uniform, reads it.
_STATIONARY_X = "whose x starts in its stationary law"


def _xonly_start(workers: int) -> dict:
    """The manifest ``start`` of an x-only run on ``workers`` processes."""
    return {"x": "stationary", "burn_in_steps": 0, "workers": workers}


def _refuse_set(resolved: dict, spec: dict, names: tuple, context: str) -> dict:
    """Refuse the first of ``names`` set off its ``spec`` default: ``context``
    ignores it.  Returns the options that remain, the ones the run reads."""
    for name in names:
        if resolved[name] != spec[name][1]:
            raise BakerlabError(f"--{name.replace('_', '-')} cannot be combined with {context}")
    return {k: v for k, v in resolved.items() if k not in names}


def _conversion(cell_type: type) -> str:
    """The ``%`` conversion that writes a cell of ``cell_type``: a str or an
    int as it prints (a bool as its name), any other number as ``%.17g``,
    which round-trips a float64."""
    if issubclass(cell_type, (str, bool)):
        return "%s"
    if issubclass(cell_type, (int, np.integer)):
        return "%d"
    return "%.17g"


def _write_csv(path: Path, header: str, rows) -> None:
    """Stream ``rows`` (tuples of str, int or float cells) below ``header``,
    each with one ``%`` fill of a template built once per tuple of cell
    types."""
    templates = {}
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            types = tuple(map(type, row))
            template = templates.get(types)
            if template is None:
                template = templates[types] = ",".join(map(_conversion, types)) + "\n"
            fh.write(template % tuple(row))


def _write_histogram_csv(path: Path, counts: np.ndarray) -> None:
    """``x_bin,y_bin,count`` rows of a 2-d histogram, one ``%`` fill of a
    template that holds every y bin per x bin: ``_write_csv`` dispatches on
    the type of every cell, and one f-string per cell takes more than twice
    as long on a 500 x 500 grid.  Only one row is held as Python ints."""
    nx, ny = counts.shape
    template = "".join(f"%d,{j},%d\n" for j in range(ny))
    args = [0] * (2 * ny)  # x bin and count, alternating
    with open(path, "w", newline="") as fh:
        fh.write("x_bin,y_bin,count\n")
        for i in range(nx):
            args[0::2] = [i] * ny
            args[1::2] = counts[i].tolist()
            fh.write(template % tuple(args))


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
    "variant": (_variant, MapVariant.REVERSIBLE),
    **_STRIP,
    "n_ens": (int, 20_000),
    "n_iter": (int, 50),
    "burn_in": (int, 1_000),
    "bins": (int, 500),
    "seed": (int, 0),
    "out": (str, None),
}


def _cmd_density(resolved) -> _Run:
    config, read = _sim_config(resolved, resolved["burn_in"])
    nb = resolved["bins"]
    hist = es.empirical_density(config, nx=nb, ny=nb)
    marginals = (
        (axis, i, (i + 0.5) / nb, int(c), d)
        for axis, marginal in (("x", hist.x_marginal), ("y", hist.y_marginal))
        for i, (c, d) in enumerate(zip(marginal(), marginal(density=True)))
    )
    return _Run(
        {
            "histogram2d.csv": lambda path: _write_histogram_csv(path, hist.counts),
            "marginals.csv": lambda path: _write_csv(path, "axis,bin,center,count,density", marginals),
        },
        f"{hist.n_samples} samples",
        read,
        {
            "x": "stationary",
            "y": "uniform",
            "burn_in_steps": config.burn_in,
            "workers": es.worker_count(config.n_ens),
        },
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
    for name in ("ell_steps", "q_steps"):
        if resolved[name] < 1:
            raise DomainError(f"{name} must be >= 1, got {resolved[name]}")
    ells = np.linspace(resolved["ell_min"], resolved["ell_max"], resolved["ell_steps"])
    qs = np.linspace(resolved["q_min"], resolved["q_max"], resolved["q_steps"])
    rates = mk.mean_contraction_rate_grid(ells, qs)
    cells = (
        (ell, q, v) for ell, row in zip(ells.tolist(), rates.tolist()) for q, v in zip(qs.tolist(), row)
    )
    negatives = int((rates < -1e-12).sum())
    warning = f", WARNING {negatives} with a negative mean contraction rate" if negatives else ""
    artifacts = {"surface.csv": lambda path: _write_csv(path, "ell,q,mean_lambda", cells)}
    return _Run(artifacts, f"{rates.size} cells{warning}", resolved)


# shared by fr and ratefunc
_FR = {
    "ell": (float, 0.15),
    "q": (float, 0.2),
    "variant": (_variant, MapVariant.REVERSIBLE),
    **_STRIP,
    "n": (int, 200),
    "delta": (float, 0.05),
    "p_max": (float, 2.0),
    "source": (_choice("mc", "exact"), "exact"),
    "min_count": (int, 25),
    "n_ens": (int, 10_000),
    "n_iter": (int, 2_000),
    "burn_in": (int, 1_000),
    "seed": (int, 0),
    "out": (str, None),
}

# options that only the mc source reads
_MC_ONLY = ("variant", "strip_x", "strip_eps", "n_ens", "n_iter", "burn_in", "seed", "min_count")


def _fr_family(command: str, resolved: dict) -> tuple[fl.PiHistogram, fl.RateFunction, _Run]:
    """Body of fr and ratefunc: the cell masses from the exact law or the
    ensemble and their rate function, with the run that writes ``pi.csv``
    and ``zeta.csv``; each command adds its own artifact and summary."""
    fr_cfg = fl.FRConfig(
        n=resolved["n"],
        p_grid=fl.symmetric_grid(resolved["p_max"], 2.0 * resolved["delta"]),
        delta=resolved["delta"],
        min_count=resolved["min_count"],
    )
    if resolved["source"] == "exact":
        read = _refuse_set(resolved, _FR, _MC_ONLY, "--source exact")
        source = mk.contraction_sum_distribution(resolved["ell"], resolved["q"], resolved["n"])
        start = None
    else:
        read = _refuse_set(resolved, _FR, ("burn_in",), f"{command} --source mc, {_STATIONARY_X}")
        source, read = _sim_config(read, burn_in=0)
        start = _xonly_start(es.worker_count(source.n_ens))
    pi = fl.estimate_pi(fr_cfg, source)
    rf = fl.rate_function(pi)
    zeta = ((p, z) for p, z in zip(rf.p, rf.zeta) if np.isfinite(z))
    artifacts = {
        "pi.csv": lambda path: _write_csv(path, "p,pi_n", zip(pi.p, pi.mass)),
        "zeta.csv": lambda path: _write_csv(path, "p,zeta_n", zeta),
    }
    return pi, rf, _Run(artifacts, "", read, start)


def _cmd_fr(resolved) -> _Run:
    pi, _, run = _fr_family("fr", resolved)
    chk = fl.fr_check(pi)
    run.artifacts["fr.csv"] = lambda path: _write_csv(path, "p,fr_value", zip(chk.p, chk.value))
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
        {"db.csv": lambda path: _write_csv(path, header, rows)},
        f"max mismatch = {report.max_mismatch:.17g}",
        resolved,
    )


_TRANSPORT = {
    "ell": (float, 0.25),
    "q": (float, None),
    "variant": (_variant, MapVariant.REVERSIBLE),
    **_STRIP,
    "mode": (_choice("equilibrium", "stationary"), "equilibrium"),
    "n_ens": (int, 100_000),
    "n_iter": (int, 50),
    "burn_in": (int, 1_000),
    "seed": (int, 0),
    "k_max": (int, 50),
    "sweep": (str, None),
    "out": (str, None),
}


def _biases(sweep: str) -> np.ndarray:
    """The comma-separated bias list of ``--sweep``."""
    try:
        biases = [float(tok) for tok in sweep.split(",") if tok.strip()]
    except ValueError as exc:
        raise BakerlabError(f"--sweep: {exc}") from None
    if not biases:
        raise BakerlabError(f"--sweep: no bias values in {sweep!r}")
    return np.array(biases)


# options that --sweep derives from each bias or does not use
_NOT_SWEPT = ("ell", "q", "mode", "strip_x", "strip_eps", "k_max")


def _cmd_transport(resolved) -> _Run:
    biases = None if resolved["sweep"] is None else _biases(resolved["sweep"])
    read = _refuse_set(resolved, _TRANSPORT, ("burn_in",), f"transport, {_STATIONARY_X}")
    gk_common = {k: resolved[k] for k in ("variant", "n_ens", "n_iter", "seed")}

    if biases is not None:
        read = _refuse_set(read, _TRANSPORT, _NOT_SWEPT, "--sweep")
        base = tp.GKConfig(params=MapParams(ell=0.25, q=0.0), ensemble_mode="stationary", **gk_common)
        rows = tp.bias_sweep(biases, base)
        bad = sum(0 if r.converged else 1 for _, r in rows)
        table = ((b, r.value, r.stderr) for b, r in rows)
        return _Run(
            {"sweep.csv": lambda path: _write_csv(path, "F_e,L,stderr", table)},
            f"swept {len(rows)} bias values",
            read,
            _xonly_start(es.worker_count(base.n_ens)),
            f"{bad} sweep entries failed the convergence check" if bad else None,
        )

    q = 0.5 - 2.0 * resolved["ell"] if resolved["q"] is None else resolved["q"]
    mode = "microcanonical-equilibrium" if resolved["mode"] == "equilibrium" else "stationary"
    params, read = _params_from(dict(read, q=q))
    cfg = tp.GKConfig(params=params, ensemble_mode=mode, **gk_common)
    exact = tp.green_kubo_exact(resolved["ell"], resolved["k_max"])
    result = tp.green_kubo_estimate(cfg)
    return _Run(
        {
            "convergence.csv": lambda path: _write_csv(path, "k,partial_sum", enumerate(result.partial_sums)),
            "convergence_exact.csv": lambda path: _write_csv(path, "k,partial_sum", enumerate(exact.partial_sums)),
        },
        f"L={result.value:.6f} +- {result.stderr:.6f} (exact chain: {exact.value:.6f})",
        dict(read, q=resolved["q"]),  # the option as given; None means 1/2 - 2 ell
        _xonly_start(es.worker_count(cfg.n_ens)),
        None if result.converged else "partial sums did not converge",
    )


# ---------------------------------------------------------------- selftest


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

    def reversal_identity():
        for ell in (0.15, 0.25):
            rep = check_reversibility(MapParams(ell=ell, q=0.0), 2_000, seed=1)
            if rep.max_deviation > 1e-12:
                return f"M G M = G fails at ell={ell}: {rep.max_deviation}"
        gen = np.random.Generator(np.random.Philox(key=np.uint64(5)))
        pts = gen.random((2_000, 2))
        gx, gy = time_reversal_arrays(pts[:, 0], pts[:, 1])
        ggx, ggy = time_reversal_arrays(gx, gy)
        if max(np.abs(ggx - pts[:, 0]).max(), np.abs(ggy - pts[:, 1]).max()) > 1e-14:
            return "time reversal is not an involution"

    def jacobian_pairing():
        for ell in (0.15, 0.25):
            rep = check_reversibility(MapParams(ell=ell, q=0.0), 2_000, seed=6)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bakerlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bakerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    commands = (
        ("density", "2-d invariant-density histogram and marginals", _DENSITY, _cmd_density),
        ("surface", "mean contraction rate over an (ell, q) grid", _SURFACE, _cmd_surface),
        ("fr", "probability cells, rate function and fluctuation-relation check", _FR, _cmd_fr),
        ("ratefunc", "rate function with parabola fit", _FR, _cmd_ratefunc),
        ("db", "detailed-balance report", _DB, _cmd_db),
        ("transport", "Green-Kubo transport estimate or bias sweep", _TRANSPORT, _cmd_transport),
        ("selftest", "run the analytic invariant battery", {}, _cmd_selftest),
    )
    for name, help_text, spec, fn in commands:
        p = sub.add_parser(name, help=help_text)
        for option, (conv, _) in spec.items():
            p.add_argument("--" + option.replace("_", "-"), dest=option, type=conv)
        if spec:
            p.add_argument("--config", type=str)
        p.set_defaults(fn=fn, spec=spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not args.spec:  # selftest writes nothing
            return args.fn()
        return _write_run(args.command, _resolve(args), args.fn)
    except (BakerlabError, OSError) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        # RuntimeError covers every numeric failure class in bakerlab.errors
        return _NUMERIC_EXIT if isinstance(exc, (RuntimeError, OSError)) else _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
