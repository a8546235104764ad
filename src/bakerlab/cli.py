"""Command-line orchestration: run experiment families, write plot-ready
CSV artifacts with JSON manifests.

Exit codes: 0 success, 1 usage/validation error, 2 numeric or convergence
failure, 3 selftest failure.  Floats are written with 17 significant digits
so that re-running a command reproduces byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BakerlabError, DomainError, InsufficientFluctuationsError
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


def _fmt(v) -> str:
    return format(float(v), ".17g")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _read_config_file(path: str) -> dict[str, str]:
    """Flat key = value text; '#' starts a comment."""
    out = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
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


def _params_from(resolved: dict) -> MapParams:
    if resolved["variant"] is not MapVariant.IRREVERSIBLE:
        _refuse_set(resolved, _STRIP, tuple(_STRIP), "--variant reversible")
    return MapParams(
        ell=resolved["ell"],
        q=resolved["q"],
        strip_x=resolved["strip_x"],
        strip_eps=resolved["strip_eps"],
    )


def _sim_config(resolved: dict, burn_in: int) -> es.SimConfig:
    return es.SimConfig(
        params=_params_from(resolved),
        variant=resolved["variant"],
        n_ens=resolved["n_ens"],
        n_iter=resolved["n_iter"],
        burn_in=burn_in,
        seed=resolved["seed"],
    )


# The ensemble starts x in its exact stationary law, so the x-only commands
# (fr and ratefunc with --source mc, transport) discard no steps and refuse
# a --burn-in off its default; only density, whose y starts uniform, reads it.
_XONLY_START = {"x": "stationary", "burn_in_steps": 0}
_STATIONARY_X = "whose x starts in its stationary law"


def _refuse_set(resolved: dict, spec: dict, names: tuple, context: str) -> None:
    """Refuse the first of ``names`` set off its ``spec`` default: ``context`` ignores it."""
    for name in names:
        if resolved[name] != spec[name][1]:
            raise BakerlabError(f"--{name.replace('_', '-')} cannot be combined with {context}")


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(v)
    return _fmt(v)


def _write_csv(path: Path, header: str, rows) -> None:
    """Stream ``rows`` (tuples of str, int or float cells) below ``header``."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_histogram_csv(path: Path, counts: np.ndarray) -> None:
    """``x_bin,y_bin,count`` rows of a 2-d histogram, one ``writelines`` per
    x bin: ``_write_csv`` dispatches on the type of every cell, which about
    triples the time to write a 500 x 500 grid."""
    with open(path, "w", newline="") as fh:
        fh.write("x_bin,y_bin,count\n")
        for i, row in enumerate(counts.tolist()):
            fh.writelines(f"{i},{j},{count}\n" for j, count in enumerate(row))


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, resolved: dict, artifacts: list[str], t0: float,
                    start: dict | None = None):
    """``start`` records where a Monte Carlo run starts its ensemble."""

    def jsonable(v):
        if isinstance(v, (MapVariant, ReversalScheme)):
            return v.value
        return v

    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: jsonable(v) for k, v in sorted(resolved.items())},
        "artifacts": artifacts,
        "wall_time_s": round(time.time() - t0, 3),
    }
    if start is not None:
        manifest["start"] = start
    _write_json(out_dir / "manifest.json", manifest)


def _out_dir(resolved: dict, command: str) -> Path:
    out = Path(resolved["out"] if resolved.get("out") else f"bakerlab_out/{command}")
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def _cmd_density(resolved) -> int:
    t0 = time.time()
    config = _sim_config(resolved, resolved["burn_in"])
    nb = resolved["bins"]
    hist = es.empirical_density(config, nx=nb, ny=nb)
    out = _out_dir(resolved, "density")
    _write_histogram_csv(out / "histogram2d.csv", hist.counts)
    marginals = (
        (axis, i, (i + 0.5) / nb, int(c), d)
        for axis, marginal in (("x", hist.x_marginal), ("y", hist.y_marginal))
        for i, (c, d) in enumerate(zip(marginal(), marginal(density=True)))
    )
    _write_csv(out / "marginals.csv", "axis,bin,center,count,density", marginals)
    start = {"x": "stationary", "y": "uniform", "burn_in_steps": config.burn_in}
    _write_manifest(out, "density", resolved, ["histogram2d.csv", "marginals.csv"], t0, start)
    print(f"density: wrote {out}/histogram2d.csv ({hist.n_samples} samples)")
    return 0


_SURFACE = {
    "ell_min": (float, 0.05),
    "ell_max": (float, 0.25),
    "ell_steps": (int, 21),
    "q_min": (float, 0.0),
    "q_max": (float, 0.4),
    "q_steps": (int, 21),
    "out": (str, None),
}


def _cmd_surface(resolved) -> int:
    t0 = time.time()
    for name in ("ell_steps", "q_steps"):
        if resolved[name] < 1:
            raise DomainError(f"{name} must be >= 1, got {resolved[name]}")
    ells = np.linspace(resolved["ell_min"], resolved["ell_max"], resolved["ell_steps"])
    qs = np.linspace(resolved["q_min"], resolved["q_max"], resolved["q_steps"])
    cells = [(ell, q, mk.mean_contraction_rate(float(ell), float(q))) for ell in ells for q in qs]
    out = _out_dir(resolved, "surface")
    _write_csv(out / "surface.csv", "ell,q,mean_lambda", cells)
    negatives = sum(v < -1e-12 for _, _, v in cells)
    _write_manifest(out, "surface", resolved, ["surface.csv"], t0)
    if negatives:
        print(f"surface: WARNING {negatives} grid cells have negative mean contraction rate")
    print(f"surface: wrote {out}/surface.csv ({len(cells)} cells)")
    return 0


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


def _fr_family(command: str, resolved: dict, finish) -> int:
    """Body of fr and ratefunc: the cell masses from the exact law or the
    ensemble, ``pi.csv`` and ``zeta.csv``, then ``finish(out, pi, rf)``,
    which writes the command's own artifact and returns its name and a
    summary, then the manifest."""
    t0 = time.time()
    fr_cfg = fl.FRConfig(
        n=resolved["n"],
        p_grid=fl.symmetric_grid(resolved["p_max"], 2.0 * resolved["delta"]),
        delta=resolved["delta"],
        min_count=resolved["min_count"],
    )
    if resolved["source"] == "exact":
        _refuse_set(resolved, _FR, _MC_ONLY, "--source exact")
        source = mk.contraction_sum_distribution(resolved["ell"], resolved["q"], resolved["n"])
        start = None
    else:
        _refuse_set(resolved, _FR, ("burn_in",), f"{command} --source mc, {_STATIONARY_X}")
        source = _sim_config(resolved, burn_in=0)
        start = _XONLY_START
    pi = fl.estimate_pi(fr_cfg, source)
    out = _out_dir(resolved, command)
    _write_csv(out / "pi.csv", "p,pi_n", zip(pi.p, pi.mass))
    rf = fl.rate_function(pi)
    _write_csv(out / "zeta.csv", "p,zeta_n", ((p, z) for p, z in zip(rf.p, rf.zeta) if np.isfinite(z)))
    artifact, summary = finish(out, pi, rf)
    _write_manifest(out, command, resolved, ["pi.csv", "zeta.csv", artifact], t0, start)
    print(f"{command}: {summary}; wrote {out}")
    return 0


def _cmd_fr(resolved) -> int:
    def finish(out, pi, rf):
        chk = fl.fr_check(pi)
        _write_csv(out / "fr.csv", "p,fr_value", zip(chk.p, chk.value))
        return "fr.csv", f"slope={chk.slope:.6f} over {len(chk.p)} admissible p"

    return _fr_family("fr", resolved, finish)


def _cmd_ratefunc(resolved) -> int:
    def finish(out, pi, rf):
        fit = fl.fit_parabola(rf)
        _write_json(
            out / "parabola_fit.json",
            {"a": fit.a, "b": fit.b, "residual": fit.residual, "n_points": fit.n_points},
        )
        return "parabola_fit.json", f"a={fit.a:.6f} b={fit.b:.6f}"

    return _fr_family("ratefunc", resolved, finish)


_DB = {
    "ell": (float, 0.15),
    "q": (float, 0.0),
    "scheme": (_scheme, ReversalScheme.Q4),
    "out": (str, None),
}


def _cmd_db(resolved) -> int:
    t0 = time.time()
    report = mk.db_report(resolved["ell"], resolved["q"], resolved["scheme"])
    out = _out_dir(resolved, "db")
    rows = (
        (p.source.name, p.target.name, p.forward_weight,
         p.reverse_source.name, p.reverse_target.name, p.reverse_weight, p.mismatch)
        for p in report.pairs
    )
    _write_csv(out / "db.csv", "from,to,forward_weight,reverse_from,reverse_to,reverse_weight,mismatch", rows)
    _write_manifest(out, "db", resolved, ["db.csv"], t0)
    print(f"db: max mismatch = {report.max_mismatch:.17g}; wrote {out}/db.csv")
    return 0


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


def _cmd_transport(resolved) -> int:
    t0 = time.time()
    biases = _biases(resolved["sweep"]) if resolved["sweep"] else None
    _refuse_set(resolved, _TRANSPORT, ("burn_in",), f"transport, {_STATIONARY_X}")
    gk_common = {k: resolved[k] for k in ("variant", "n_ens", "n_iter", "seed")}

    if biases is not None:
        _refuse_set(resolved, _TRANSPORT, _NOT_SWEPT, "--sweep")
        base = tp.GKConfig(params=MapParams(ell=0.25, q=0.0), ensemble_mode="stationary", **gk_common)
        rows = tp.bias_sweep(biases, base)
        out = _out_dir(resolved, "transport")
        bad = sum(0 if r.converged else 1 for _, r in rows)
        _write_csv(out / "sweep.csv", "F_e,L,stderr", ((b, r.value, r.stderr) for b, r in rows))
        _write_manifest(out, "transport", resolved, ["sweep.csv"], t0, _XONLY_START)
        print(f"transport: swept {len(rows)} bias values; wrote {out}/sweep.csv")
        if bad:
            print(f"transport: error: {bad} sweep entries failed the convergence check", file=sys.stderr)
            return _NUMERIC_EXIT
        return 0

    q = resolved["q"]
    if q is None:
        q = 0.5 - 2.0 * resolved["ell"]
    mode = "microcanonical-equilibrium" if resolved["mode"] == "equilibrium" else "stationary"
    cfg = tp.GKConfig(params=_params_from(dict(resolved, q=q)), ensemble_mode=mode, **gk_common)
    exact = tp.green_kubo_exact(resolved["ell"], resolved["k_max"])
    result = tp.green_kubo_estimate(cfg)
    out = _out_dir(resolved, "transport")
    _write_csv(out / "convergence.csv", "k,partial_sum", enumerate(result.partial_sums))
    _write_csv(out / "convergence_exact.csv", "k,partial_sum", enumerate(exact.partial_sums))
    _write_manifest(out, "transport", resolved, ["convergence.csv", "convergence_exact.csv"], t0, _XONLY_START)
    print(
        f"transport: L={result.value:.6f} +- {result.stderr:.6f} "
        f"(exact chain: {exact.value:.6f}); wrote {out}"
    )
    if not result.converged:
        print("transport: error: partial sums did not converge", file=sys.stderr)
        return _NUMERIC_EXIT
    return 0


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


def _cmd_selftest(resolved) -> int:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(_resolve(args))
    except (BakerlabError, OSError) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        numeric = isinstance(exc, (InsufficientFluctuationsError, OSError))
        return _NUMERIC_EXIT if numeric else _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
