import argparse
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bakerlab
from bakerlab import fluctuation as fl
from bakerlab.cli import _COMMANDS, _MC_ONLY, _NOT_SWEPT, _resolve, build_parser, main
from bakerlab.ensemble import SimConfig, empirical_density, worker_count
from bakerlab.mapcore import MapParams, MapVariant, ReversalScheme
from bakerlab.markov import contraction_sum_distribution, db_report, mean_contraction_rate
from bakerlab.transport import GKConfig, bias_sweep, green_kubo_estimate, green_kubo_exact
from oracles import eager_parser


def run(argv):
    return main(argv)


class TestSelftest:
    def test_exit_zero(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out


class TestDensity:
    def test_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = run(
            ["density", "--ell", "0.15", "--q", "0", "--variant", "reversible",
             "--n-ens", "2000", "--n-iter", "10", "--burn-in", "200",
             "--bins", "20", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert {p.name for p in out.iterdir()} == {"histogram2d.csv", "marginals.csv", "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "density"
        assert manifest["config"]["ell"] == 0.15
        assert set(manifest["artifacts"]) == {"histogram2d.csv", "marginals.csv"}
        assert manifest["start"] == {
            "x": "stationary", "y": "uniform", "burn_in_steps": 200, "workers": worker_count(2000), "dither": False
        }

    def test_histogram_csv_rows(self, tmp_path):
        out = tmp_path / "d"
        assert run(["density", "--n-ens", "100", "--n-iter", "5", "--burn-in", "5",
                    "--bins", "4", "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "histogram2d.csv").read_text().splitlines()
        assert lines[0] == "x_bin,y_bin,count"
        rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
        assert [r[:2] for r in rows] == [(i, j) for i in range(4) for j in range(4)]
        cfg = SimConfig(params=MapParams(0.15, 0.0), n_ens=100, n_iter=5, burn_in=5, seed=1)
        assert [r[2] for r in rows] == empirical_density(cfg, nx=4, ny=4).counts.ravel().tolist()
        assert sum(r[2] for r in rows) == 100 * 5

    def test_x_marginal_matches_projected_density(self, tmp_path):
        out = tmp_path / "d"
        run(["density", "--ell", "0.15", "--n-ens", "20000", "--n-iter", "25",
             "--burn-in", "500", "--bins", "10", "--seed", "7", "--out", str(out)])
        rows = [l.split(",") for l in (out / "marginals.csv").read_text().splitlines()[1:]]
        x_density = [float(r[4]) for r in rows if r[0] == "x"]
        left = np.mean(x_density[:5])
        right = np.mean(x_density[5:])
        assert left == pytest.approx(1.25, rel=0.02)
        assert right == pytest.approx(0.75, rel=0.02)

    def test_replay_is_byte_identical(self, tmp_path):
        args = ["density", "--ell", "0.17", "--n-ens", "500", "--n-iter", "5",
                "--burn-in", "50", "--bins", "8", "--seed", "11"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        for name in ("histogram2d.csv", "marginals.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_flag_value_is_usage_error(self, tmp_path):
        assert run(["density", "--ell", "0.9", "--out", str(tmp_path / "x")]) == 1


# the cell formatting each conversion of a row format must reproduce
_JOINED_CELL = {"%s": str, "%d": lambda v: str(int(v)), "%.17g": lambda v: format(float(v), ".17g")}

# every row format of a ``_write_csv`` artifact, with rows of edge cells
ROW_FORMATS = {
    "%.17g,%.17g": [(0.1, np.float64(1e-300)), (-0.0, float("nan")), (np.float64(-np.inf), 2.0 / 3.0),
                    (5e-324, 1e22)],
    "%d,%.17g": [(0, np.float64(np.pi)), (np.int64(2**62), -1.5), (-2**70, np.nan)],
    "%.17g,%.17g,%.17g": [(np.float64(0.5), float("inf"), -0.1), (123456789.125, np.float64(-0.0), 5e-324)],
    "%s,%d,%.17g,%d,%.17g": [("x", 3, 0.25, np.int64(-7), np.float64(1e-300)), ("y", 2**70, np.nan, 0, 2.5)],
    "%s,%s,%.17g,%s,%s,%.17g,%.17g": [("A", "B", 0.1, "C", "D", -np.inf, 0.0),
                                       ("D", "A", 1e22, "B", "C", 2.0 / 3.0, 5e-324)],
}


class TestWriteCsv:
    def test_templates_write_the_bytes_of_one_join_per_row(self, tmp_path):
        from bakerlab.cli import _write_csv

        for i, (row_format, rows) in enumerate(ROW_FORMATS.items()):
            _write_csv(tmp_path / f"{i}.csv", "h", row_format, rows)
            cell = [_JOINED_CELL[conv] for conv in row_format.split(",")]
            expected = "h\n" + "".join(",".join(f(v) for f, v in zip(cell, row, strict=True)) + "\n" for row in rows)
            assert (tmp_path / f"{i}.csv").read_bytes() == expected.encode(), row_format

    def test_grid_writer_int_bytes_match_one_fstring_per_cell(self, tmp_path):
        from bakerlab.cli import _write_grid_csv

        counts = np.arange(21, dtype=np.int64).reshape(3, 7) % 4  # zeros in every row
        counts[1, 5] = 2**40 + 3
        counts[2, 0] = 2**62
        _write_grid_csv(tmp_path / "h.csv", "x_bin,y_bin,count", range(3), range(7), counts, "%d")
        expected = "x_bin,y_bin,count\n" + "".join(
            f"{i},{j},{count}\n" for i, row in enumerate(counts.tolist()) for j, count in enumerate(row)
        )
        assert (tmp_path / "h.csv").read_bytes() == expected.encode()

    def test_grid_writer_float_bytes_match_write_csv(self, tmp_path):
        from bakerlab.cli import _write_csv, _write_grid_csv

        cols = np.array([0.1, -0.0, 5e-324, 1e22, 2.0 / 3.0, np.nan, np.inf, -np.inf])
        rows = cols[[5, 1, 6, 4, 2]]
        values = np.array([np.roll(cols, k) for k in range(len(rows))])  # each value in every row
        _write_grid_csv(tmp_path / "g.csv", "a,b,v", rows, cols, values, "%.17g")
        _write_csv(tmp_path / "r.csv", "a,b,v", "%.17g,%.17g,%.17g", (
            (a, b, v) for a, row in zip(rows.tolist(), values.tolist()) for b, v in zip(cols.tolist(), row)
        ))
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


def _cells(path):
    """The rows below a CSV artifact's header, each a list of its cells."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class TestArtifactReadback:
    """Every ``_write_csv`` artifact's cells read back exactly to the library
    values they were written from: a name as itself, a count as an int and
    any other number as the float64 it was, so no row format can truncate
    or round a cell in silence."""

    def test_pi_zeta_and_fr(self, tmp_path):
        out = tmp_path / "fr"
        assert run(["fr", "--source", "exact", "--n", "50", "--out", str(out)]) == 0
        pi = fl.estimate_pi(fl.FRConfig(n=50, p_grid=fl.symmetric_grid(2.0, 0.1)),
                            contraction_sum_distribution(0.15, 0.2, 50))
        rf, chk = fl.rate_function(pi), fl.fr_check(pi)
        finite = np.isfinite(rf.zeta)
        for name, p, value in (("pi.csv", pi.p, pi.mass), ("zeta.csv", rf.p[finite], rf.zeta[finite]),
                               ("fr.csv", chk.p, chk.value)):
            rows = [(float(a), float(b)) for a, b in _cells(out / name)]
            assert rows == list(zip(p.tolist(), value.tolist())) and rows, name

    def test_db(self, tmp_path):
        out = tmp_path / "db"
        assert run(["db", "--ell", "0.15", "--q", "0.2", "--scheme", "q3", "--out", str(out)]) == 0
        rows = [(a, b, float(w), c, d, float(rw), float(m)) for a, b, w, c, d, rw, m in _cells(out / "db.csv")]
        assert rows == [
            (p.source.name, p.target.name, p.forward_weight, p.reverse_source.name, p.reverse_target.name,
             p.reverse_weight, p.mismatch)
            for p in db_report(0.15, 0.2, ReversalScheme.Q3).pairs
        ]

    def test_both_convergence_files(self, tmp_path):
        out = tmp_path / "t"
        assert run(["transport", "--n-ens", "2000", "--n-iter", "20", "--k-max", "30", "--out", str(out)]) == 0
        cfg = GKConfig(params=MapParams(0.25, 0.0), n_ens=2000, n_iter=20, ensemble_mode="microcanonical-equilibrium")
        for name, result in (("convergence.csv", green_kubo_estimate(cfg)),
                             ("convergence_exact.csv", green_kubo_exact(0.25, 30))):
            rows = [(int(k), float(v)) for k, v in _cells(out / name)]
            assert rows == list(enumerate(result.partial_sums.tolist())) and rows, name

    def test_sweep(self, tmp_path):
        out = tmp_path / "t"
        assert run(["transport", "--sweep", "0,0.1", "--n-ens", "2000", "--n-iter", "20", "--out", str(out)]) == 0
        rows = [tuple(map(float, row)) for row in _cells(out / "sweep.csv")]
        swept = bias_sweep(np.array([0.0, 0.1]), GKConfig(params=MapParams(0.25, 0.0), n_ens=2000, n_iter=20))
        assert rows == [(b, r.value, r.stderr) for b, r in swept]

    def test_marginals(self, tmp_path):
        out = tmp_path / "d"
        assert run(["density", "--n-ens", "300", "--n-iter", "3", "--burn-in", "4", "--bins", "5", "--seed", "2",
                    "--out", str(out)]) == 0
        rows = [(a, int(i), float(c), int(n), float(d)) for a, i, c, n, d in _cells(out / "marginals.csv")]
        hist = empirical_density(SimConfig(params=MapParams(0.15, 0.0), n_ens=300, n_iter=3, burn_in=4, seed=2),
                                 nx=5, ny=5)
        assert rows == [
            (axis, i, (i + 0.5) / 5, c, d)
            for axis, marginal in (("x", hist.x_marginal), ("y", hist.y_marginal))
            for i, (c, d) in enumerate(zip(marginal().tolist(), marginal(density=True).tolist()))
        ]


class TestSurface:
    def test_equilibrium_row_is_zero(self, tmp_path):
        out = tmp_path / "s"
        assert run(["surface", "--ell-min", "0.05", "--ell-max", "0.25", "--ell-steps", "5",
                    "--q-min", "0", "--q-max", "0", "--q-steps", "1", "--out", str(out)]) == 0
        rows = (out / "surface.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            assert abs(float(row.split(",")[2])) < 1e-14

    def test_single_cell_equals_library_value(self, tmp_path):
        out = tmp_path / "s"
        run(["surface", "--ell-min", "0.15", "--ell-max", "0.15", "--ell-steps", "1",
             "--q-min", "0.2", "--q-max", "0.2", "--q-steps", "1", "--out", str(out)])
        row = (out / "surface.csv").read_text().splitlines()[1]
        assert float(row.split(",")[2]) == mean_contraction_rate(0.15, 0.2)

    def test_grid_bytes_match_the_row_writer(self, tmp_path):
        """A 7 x 5 surface is written as ``_write_csv`` writes its
        ``(ell, q, mean_lambda)`` rows, in row-major order."""
        from bakerlab.cli import _write_csv
        from bakerlab.markov import mean_contraction_rate_grid

        out = tmp_path / "s"
        assert run(["surface", "--ell-min", "0.03", "--ell-max", "0.25", "--ell-steps", "7",
                    "--q-min", "0.1", "--q-max", "0.45", "--q-steps", "5", "--out", str(out)]) == 0
        ells, qs = np.linspace(0.03, 0.25, 7), np.linspace(0.1, 0.45, 5)
        rates = mean_contraction_rate_grid(ells, qs)
        _write_csv(tmp_path / "rows.csv", "ell,q,mean_lambda", "%.17g,%.17g,%.17g", (
            (ell, q, v) for ell, row in zip(ells.tolist(), rates.tolist()) for q, v in zip(qs.tolist(), row)
        ))
        assert (out / "surface.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert len((out / "surface.csv").read_text().splitlines()) == 1 + 7 * 5

    def test_surface_nonnegative_default_grid(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run(["surface", "--out", str(out)]) == 0
        assert "WARNING" not in capsys.readouterr().out


class TestPointNextToOneHalf:
    """(0.0103, 0.49999999999999994) lies in the map's domain: its J_A is
    2.7e-15, once computed as exactly 0 and refused."""

    ELL, Q = "0.0103", "0.49999999999999994"

    def test_db_runs(self, tmp_path, capsys):
        assert run(["db", "--ell", self.ELL, "--q", self.Q, "--out", str(tmp_path / "db")]) == 0
        assert "max mismatch = 0;" in capsys.readouterr().out

    def test_one_cell_surface_runs(self, tmp_path):
        out = tmp_path / "s"
        assert run(["surface", "--ell-min", self.ELL, "--ell-max", self.ELL, "--ell-steps", "1",
                    "--q-min", self.Q, "--q-max", self.Q, "--q-steps", "1", "--out", str(out)]) == 0
        row = (out / "surface.csv").read_text().splitlines()[1]
        assert float(row.split(",")[2]) == mean_contraction_rate(float(self.ELL), float(self.Q))

    def test_exact_fr_runs(self, tmp_path):
        assert run(["fr", "--source", "exact", "--ell", self.ELL, "--q", self.Q, "--out", str(tmp_path / "fr")]) == 0


class TestFR:
    def test_exact_source(self, tmp_path, capsys):
        out = tmp_path / "fr"
        assert run(["fr", "--source", "exact", "--n", "500", "--out", str(out)]) == 0
        msg = capsys.readouterr().out
        assert "slope=" in msg
        slope = float(msg.split("slope=")[1].split()[0])
        assert 0.9 <= slope <= 1.1
        assert {p.name for p in out.iterdir()} == {"pi.csv", "zeta.csv", "fr.csv", "manifest.json"}
        config = json.loads((out / "manifest.json").read_text())["config"]
        meta = {k: config[k] for k in ("n", "delta", "ell", "q", "source")}
        assert meta == {"n": 500, "delta": 0.05, "ell": 0.15, "q": 0.2, "source": "exact"}
        assert "seed" not in config  # the exact law reads no seed

    def test_insufficient_fluctuations_exit_code(self, tmp_path, capsys):
        # 2000 segments populate the bulk but never the negative cells
        out = tmp_path / "fr"
        code = run(["fr", "--source", "mc", "--n", "200", "--n-ens", "100",
                    "--n-iter", "4000", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "negative fluctuations" in err[0]
        assert not out.exists()  # pi.csv and zeta.csv were computed, but a failed run writes nothing

    def test_generic_parameters_beyond_128(self, tmp_path):
        out = tmp_path / "fr"
        assert run(["fr", "--source", "exact", "--ell", "0.1", "--q", "0.1", "--n", "300",
                    "--p-max", "8", "--out", str(out)]) == 0
        mass = [float(row.split(",")[1]) for row in (out / "pi.csv").read_text().splitlines()[1:]]
        assert sum(mass) == pytest.approx(1.0, abs=1e-10)

    def test_ratefunc_fit_artifacts(self, tmp_path):
        out = tmp_path / "rf"
        assert run(["ratefunc", "--source", "exact", "--n", "200", "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {"pi.csv", "zeta.csv", "parabola_fit.json", "manifest.json"}
        fit = json.loads((out / "parabola_fit.json").read_text())
        assert fit["a"] > 0
        assert fit["b"] > 0

    def test_fr_and_ratefunc_write_identical_cells(self, tmp_path):
        args = ["--source", "exact", "--n", "200"]
        assert run(["fr", *args, "--out", str(tmp_path / "fr")]) == 0
        assert run(["ratefunc", *args, "--out", str(tmp_path / "rf")]) == 0
        for name in ("pi.csv", "zeta.csv"):
            assert (tmp_path / "fr" / name).read_bytes() == (tmp_path / "rf" / name).read_bytes()

    @pytest.mark.parametrize("command", ["fr", "ratefunc"])
    def test_equilibrium_mc_source_is_usage_error(self, command, tmp_path, capsys):
        # same refusal as the exact source; nothing is binned or written
        out = tmp_path / command
        code = run([command, "--q", "0", "--source", "mc", "--n-ens", "200",
                    "--n-iter", "400", "--out", str(out)])
        assert code == 1
        assert "mean contraction rate is 0 (equilibrium)" in capsys.readouterr().err
        assert not (out / "pi.csv").exists()

    def test_refused_exact_run_builds_no_law(self, tmp_path, monkeypatch, capsys):
        """At (0.15, 0) the lattice law would run ``markov._log_dp`` (the
        control), yet the refusal comes first; the memo is emptied so that a
        law kept from an earlier test cannot hide a call."""
        calls = []
        log_dp = bakerlab.markov._log_dp

        def counting(*args):
            calls.append(args)
            return log_dp(*args)

        bakerlab.markov._lattice_law.cache_clear()
        monkeypatch.setattr(bakerlab.markov, "_log_dp", counting)
        assert run(["fr", "--source", "exact", "--q", "0", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("fr: error: --q 0.0 at --ell 0.15: ")
        assert calls == [] and not (tmp_path / "o").exists()
        contraction_sum_distribution(0.15, 0.0, 200)
        assert len(calls) == 1


class TestDB:
    def test_equilibrium_q4(self, tmp_path, capsys):
        out = tmp_path / "db"
        assert run(["db", "--ell", "0.15", "--q", "0", "--scheme", "q4", "--out", str(out)]) == 0
        assert "max mismatch = 0;" in capsys.readouterr().out
        rows = (out / "db.csv").read_text().splitlines()
        assert rows[0] == "from,to,forward_weight,reverse_from,reverse_to,reverse_weight,mismatch"
        assert len(rows) == 9
        assert all(row.split(",")[6] == "0" for row in rows[1:])

    def test_q3_reports_violation(self, tmp_path, capsys):
        out = tmp_path / "db"
        assert run(["db", "--ell", "0.15", "--q", "0.2", "--scheme", "q3", "--out", str(out)]) == 0
        by_pair = {}
        for row in (out / "db.csv").read_text().splitlines()[1:]:
            f = row.split(",")
            by_pair[(f[0], f[1])] = (float(f[2]), float(f[5]))
        assert by_pair[("C", "C")] == pytest.approx((0.09375, 0.30625), abs=1e-14)


class TestTransportCmd:
    def test_equilibrium_estimate(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = run(["transport", "--ell", "0.25", "--q", "0", "--mode", "equilibrium",
                    "--n-ens", "30000", "--n-iter", "40", "--out", str(out)])
        assert code == 0
        msg = capsys.readouterr().out
        L = float(msg.split("L=")[1].split()[0])
        assert L == pytest.approx(0.75, abs=0.05)
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "k,partial_sum"
        assert len(rows) == 41
        exact_rows = (out / "convergence_exact.csv").read_text().splitlines()
        assert float(exact_rows[-1].split(",")[1]) == pytest.approx(0.75, abs=1e-14)

    @pytest.mark.parametrize("sweep", ["0.1,abc", ","])
    def test_bad_sweep_is_usage_error(self, tmp_path, capsys, sweep):
        out = tmp_path / "t"
        assert run(["transport", "--sweep", sweep, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("transport: error: --sweep")
        assert not (out / "sweep.csv").exists()

    def test_unconverged_estimate_writes_then_exits_2(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = run(["transport", "--mode", "stationary", "--ell", "0.01", "--n-ens", "2",
                    "--n-iter", "10", "--seed", "2", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "transport: error: partial sums did not converge\n"
        assert "L=" in captured.out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == ["convergence.csv", "convergence_exact.csv"]
        assert {p.name for p in out.iterdir()} == {*manifest["artifacts"], "manifest.json"}

    def test_sweep(self, tmp_path):
        out = tmp_path / "t"
        code = run(["transport", "--sweep", "0.0,0.2", "--n-ens", "20000",
                    "--n-iter", "40", "--out", str(out)])
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "F_e,L,stderr"
        assert len(rows) == 3


class TestManifestStart:
    X_ONLY_RUNS = [
        (["fr", "--source", "mc", "--n", "20", "--n-ens", "2000", "--n-iter", "400"], False),
        (["transport", "--mode", "stationary", "--ell", "0.2", "--n-ens", "2000", "--n-iter", "20"], False),
        (["transport", "--n-ens", "2000", "--n-iter", "20"], True),  # ell = 1/4 is dithered
        (["transport", "--sweep", "0.1", "--n-ens", "2000", "--n-iter", "20"], False),
        # a sweep is dithered when any bias maps to ell = 1/4, as b = 0 does
        (["transport", "--sweep", "0.1,0", "--n-ens", "2000", "--n-iter", "20"], True),
    ]

    @pytest.mark.parametrize("argv, dither", X_ONLY_RUNS, ids=[" ".join(argv) for argv, _ in X_ONLY_RUNS])
    def test_x_only_runs_start_stationary_without_burn_in(self, tmp_path, argv, dither):
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["start"] == {"x": "stationary", "burn_in_steps": 0, "workers": worker_count(2000), "dither": dither}

    def test_exact_source_records_no_start(self, tmp_path):
        out = tmp_path / "fr"
        assert run(["fr", "--source", "exact", "--n", "50", "--out", str(out)]) == 0
        assert "start" not in json.loads((out / "manifest.json").read_text())


class TestBenchmarkArgv:
    def test_x_only_runs_accept_the_benchmarks_burn_in(self, tmp_path, monkeypatch):
        """The mc_xonly workload passes --burn-in 1000 to fr --source mc and to
        transport, which do not read it; its argv, with 2,000 members, still
        run."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        argvs = [command.argv for command in importlib.import_module("workloads").commands("mc_xonly", 3, tmp_path)]
        assert [argv[:1] for argv in argvs] == [["fr"], ["fr"], ["transport"], ["transport"]]
        for argv in argvs:
            assert argv[argv.index("--burn-in") + 1] == "1000"
            argv[argv.index("--n-ens") + 1] = "2000"
            assert run(argv) == 0, argv


class TestManifest:
    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--n-ens", "200", "--n-iter", "2", "--burn-in", "2", "--bins", "4"],
            ["surface", "--ell-steps", "2", "--q-steps", "2"],
            ["fr", "--source", "exact", "--n", "50"],
            ["fr", "--source", "mc", "--n", "20", "--n-ens", "2000", "--n-iter", "400"],
            ["ratefunc", "--source", "exact", "--n", "50"],
            ["db"],
            ["transport", "--n-ens", "2000", "--n-iter", "20"],
            ["transport", "--sweep", "0.1", "--n-ens", "2000", "--n-iter", "20"],
        ],
        ids=" ".join,
    )
    def test_manifest_is_the_one_record(self, tmp_path, argv):
        """Every file a command writes is a listed artifact or the manifest,
        and the seed appears only in the config."""
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {p.name for p in out.iterdir()} == {*manifest["artifacts"], "manifest.json"}
        assert "seed" not in manifest

    @pytest.mark.parametrize(
        "argv, absent, present",
        [pytest.param(*case, id=" ".join(case[0])) for case in [
            (["fr", "--source", "exact", "--n", "50"],
             _MC_ONLY, ("ell", "q", "n", "delta", "p_max", "source", "out")),
            (["ratefunc", "--source", "exact", "--n", "50"], _MC_ONLY, ("n", "source")),
            (["fr", "--source", "mc", "--n", "20", "--n-ens", "2000", "--n-iter", "400"],
             ("burn_in",), ("variant", "n_ens", "n_iter", "seed", "min_count")),
            (["ratefunc", "--source", "mc", "--variant", "irreversible", "--n", "20", "--n-ens", "2000",
              "--n-iter", "400"], ("burn_in",), ("variant", "seed")),
            (["transport", "--n-ens", "2000", "--n-iter", "20"],
             ("burn_in",), ("ell", "q", "mode", "k_max", "seed", "sweep")),
            (["transport", "--sweep", "0.1", "--n-ens", "2000", "--n-iter", "20"],
             _NOT_SWEPT + ("burn_in",), ("n_ens", "n_iter", "seed", "sweep")),
            (["density", "--n-ens", "200", "--n-iter", "2", "--burn-in", "2", "--bins", "4"],
             ("strip_x", "strip_eps"), ("burn_in", "bins", "seed")),
            (["density", "--variant", "irreversible", "--n-ens", "200", "--n-iter", "2", "--burn-in", "2"],
             (), ("burn_in", "strip_x", "strip_eps")),
        ]],
    )
    def test_config_holds_the_options_the_run_read(self, tmp_path, argv, absent, present):
        """``config`` is the option table minus the options the run does not
        read, which it refuses when given: the exact source reads no
        ensemble option, a sweep no point option, an x-only run no burn-in
        and a reversible run no strip."""
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        spec = build_parser().parse_args([argv[0]]).spec
        assert set(config) <= set(spec)
        assert not set(config) & set(absent)
        assert set(present) <= set(config)


class TestConfigFile:
    def test_precedence_cli_over_file_over_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell = 0.21\nq = 0.0\nscheme = q4\n# comment\n")
        out = tmp_path / "db"
        assert run(["db", "--config", str(cfg), "--q", "0.0", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["ell"] == 0.21  # from file
        assert manifest["config"]["scheme"] == "q4"

        out2 = tmp_path / "db2"
        assert run(["db", "--config", str(cfg), "--ell", "0.1", "--out", str(out2)]) == 0
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["config"]["ell"] == 0.1  # CLI wins

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ell 0.2\n")
        assert run(["db", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "command, line, key",
        [("db", "ell = abc", "ell"), ("density", "variant = bogus", "variant"), ("fr", "source = nope", "source")],
    )
    def test_bad_value_is_usage_error(self, tmp_path, capsys, command, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"{command}: error: ")
        assert str(cfg) in err[0] and key in err[0]

    @pytest.mark.parametrize("second", ["n-ens = 7000", "n_ens = 5000"])
    def test_duplicate_key_is_usage_error(self, tmp_path, capsys, second):
        """A key that repeats, after ``-`` reads as ``_``, is refused at its
        second line rather than silently overriding the first."""
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(f"# run size\nn_ens = 5000\n{second}\n")
        out = tmp_path / "o"
        assert run(["transport", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"transport: error: {cfg}:3: duplicate key n_ens"]
        assert not out.exists()

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("nens = 7\n")
        out = tmp_path / "o"
        assert run(["db", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("db: error: ") and "nens" in err
        assert not out.exists()

    def test_every_option_key_accepted(self, tmp_path):
        """Each key of a command's option table, read from a config file,
        resolves to the value its flag gives."""
        parser = build_parser()
        for command in COMMAND_FLAGS:
            spec = parser.parse_args([command]).spec
            for key, (conv, default) in spec.items():
                if default is not None:
                    value = str(getattr(default, "value", default))
                else:
                    value = "0.3" if conv is float else "x"
                cfg = tmp_path / f"{command}_{key}.cfg"
                cfg.write_text(f"{key} = {value}\n")
                from_file = _resolve(parser.parse_args([command, "--config", str(cfg)]))
                from_flag = _resolve(parser.parse_args([command, "--" + key.replace("_", "-"), value]))
                assert from_file == from_flag, (command, key)

    def test_dashed_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell-min = 0.1\nell_max = 0.1\nell-steps = 1\nq-steps = 1\n")
        out = tmp_path / "s"
        assert run(["surface", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "surface.csv").read_text().splitlines()) == 2


# flags of every subcommand besides -h/--help
COMMAND_FLAGS = {
    "density": "ell q variant strip-x strip-eps n-ens n-iter burn-in bins seed out config",
    "surface": "ell-min ell-max ell-steps q-min q-max q-steps out config",
    "fr": "ell q variant n delta p-max source min-count n-ens n-iter burn-in seed out config",
    "ratefunc": "ell q variant n delta p-max source min-count n-ens n-iter burn-in seed out config",
    "db": "ell q scheme out config",
    "transport": "ell q mode n-ens n-iter burn-in seed k-max sweep out config",
}

# what each command resolves with no flags, written out so that no refactor
# of the option tables or the library defaults they read moves one silently
_FR_DEFAULTS = {
    "ell": 0.15, "q": 0.2, "variant": MapVariant.REVERSIBLE, "n": 200, "delta": 0.05,
    "p_max": 2.0, "source": "exact", "min_count": 25, "n_ens": 10_000, "n_iter": 2_000, "burn_in": 1_000,
    "seed": 0, "out": None,
}
RESOLVED_DEFAULTS = {
    "density": {
        "ell": 0.15, "q": 0.0, "variant": MapVariant.REVERSIBLE, "strip_x": None, "strip_eps": None,
        "n_ens": 20_000, "n_iter": 50, "burn_in": 1_000, "bins": 500, "seed": 0, "out": None,
    },
    "surface": {"ell_min": 0.05, "ell_max": 0.25, "ell_steps": 21, "q_min": 0.0, "q_max": 0.4, "q_steps": 21, "out": None},
    "fr": _FR_DEFAULTS,
    "ratefunc": _FR_DEFAULTS,
    "db": {"ell": 0.15, "q": 0.0, "scheme": ReversalScheme.Q4, "out": None},
    "transport": {
        "ell": 0.25, "q": None, "mode": "equilibrium",
        "n_ens": 100_000, "n_iter": 50, "burn_in": 1_000, "seed": 0, "k_max": 50, "sweep": None, "out": None,
    },
}


def _subparsers(parser):
    """The subcommand parsers that ``parser`` holds, by name, in order."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _subcommand_flags(parser, command):
    """The flags that ``command``'s parser holds now, besides -h/--help."""
    return {
        flag
        for action in _subparsers(parser)[command]._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }


class TestOptionTables:
    """A subcommand's flags, "--" + each key of its option table, then
    ``--config``: ``build_parser`` adds them with the subcommand."""

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_flags_are_table_keys_plus_config(self, command):
        parser = build_parser()
        spec = parser.parse_args([command]).spec
        flags = _subcommand_flags(parser, command)
        assert flags == {"--" + key.replace("_", "-") for key in spec} | {"--config"}
        assert flags == {"--" + name for name in COMMAND_FLAGS[command].split()}

    @pytest.mark.parametrize("command", sorted(RESOLVED_DEFAULTS))
    def test_resolved_defaults(self, command):
        resolved = _resolve(build_parser().parse_args([command]))
        expected = RESOLVED_DEFAULTS[command]
        assert list(resolved) == list(expected)
        # == alone would let 0 stand for 0.0
        assert [(type(v), v) for v in resolved.values()] == [(type(v), v) for v in expected.values()]

    def test_selftest_takes_no_options(self):
        parser = build_parser()
        parser.parse_args(["selftest"])
        assert _subcommand_flags(parser, "selftest") == set()

    @pytest.mark.parametrize("command", [*COMMAND_FLAGS, "selftest"])
    def test_a_named_subcommand_is_built_alone_with_every_flag(self, command):
        """Before any parse, ``build_parser([command])`` holds that one
        subparser and all its flags, and ``build_parser()`` all seven."""
        flags = {"--" + name for name in COMMAND_FLAGS.get(command, "").split()}
        parser = build_parser([command])
        assert list(_subparsers(parser)) == [command]
        assert _subcommand_flags(parser, command) == flags
        parser = build_parser()
        assert list(_subparsers(parser)) == [*COMMAND_FLAGS, "selftest"]
        assert _subcommand_flags(parser, command) == flags


PARSER_ARGVS = [
    ["--help"],
    ["-h"],
    ["--version"],
    ["--version", "fr"],
    [],
    ["frobnicate"],
    ["--bogus"],
    ["--bogus", "fr"],
    *[[command, "--help"] for command in [*COMMAND_FLAGS, "selftest"]],
    ["fr", "--bogus"],
    ["selftest", "extra"],
    ["fr", "--n", "5", "extra"],
    ["selftest", "--out", "o"],
    ["fr", "--n", "x"],
    ["fr", "--n"],
    ["db", "--scheme", "q5"],
    ["density", "--variant", "sideways"],
]


class TestParserOracle:
    """The parser that adds only the chosen subcommand prints and exits
    exactly as the one of all seven (``tests/oracles.py``)."""

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-command")
    def test_same_exit_code_stdout_and_stderr(self, monkeypatch, capsys, argv):
        def outcome(make_parser):
            monkeypatch.setattr(bakerlab.cli, "build_parser", make_parser)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            return exc.value.code, *capsys.readouterr()

        lazy = outcome(build_parser)
        assert lazy == outcome(eager_parser)
        assert lazy[0] == (0 if {"-h", "--help", "--version"} & set(argv) else 1)


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_choice(self):
        with pytest.raises(SystemExit) as exc:
            run(["fr", "--source", "nope"])
        assert exc.value.code == 1

    def test_bad_variant(self):
        with pytest.raises(SystemExit) as exc:
            run(["density", "--variant", "sideways"])
        assert exc.value.code == 1


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["surface", "--ell-steps", "-1"],
            ["surface", "--q-steps", "0"],
            ["fr", "--p-max", "1e9"],
            ["fr", "--p-max", "nan"],
            ["ratefunc", "--delta", "1e-300"],
            ["fr", "--source", "mc", "--min-count", "0"],
            ["fr", "--source", "mc", "--min-count", "-5"],
            ["transport", "--sweep", "0.1", "--ell", "0.2"],
            ["transport", "--sweep", "0.1", "--mode", "stationary"],
            ["transport", "--sweep", "0.1", "--k-max", "20"],
            ["density", "--bins", "2001", "--n-ens", "1", "--n-iter", "1", "--burn-in", "0"],
            ["fr", "--source", "exact", "--n-ens", "5", "--seed", "9", "--min-count", "1000"],
            ["fr", "--n-iter", "10"],
            ["fr", "--seed", "9"],
            ["fr", "--min-count", "1000"],
            ["ratefunc", "--variant", "irreversible"],
            ["ratefunc", "--burn-in", "7"],
            ["transport", "--ell", "0.25", "--q", "0", "--mode", "equilibrium", "--burn-in", "500"],
            ["transport", "--mode", "stationary", "--ell", "0.2", "--burn-in", "500"],
            ["transport", "--sweep", "0.1", "--burn-in", "0"],
            ["fr", "--source", "mc", "--burn-in", "200"],
            ["ratefunc", "--source", "mc", "--burn-in", "0"],
            ["density", "--n-ens", "2000", "--n-iter", "2", "--burn-in", "5", "--strip-x", "0.3", "--strip-eps", "0.1"],
            ["surface", "--ell-min", "0"],
            ["transport", "--sweep", "0.1,1.5"],
            ["transport", "--n-ens", "60000000"],
            ["transport", "--sweep", "0.1", "--n-ens", "60000000"],
            ["transport", "--k-max", "0", "--n-ens", "2", "--n-iter", "1"],
            ["density", "--seed", "-1"],
            ["transport", "--seed", "-1"],
            ["transport", "--sweep", "0.1", "--seed", "-1"],
            ["fr", "--source", "mc", "--seed", "18446744073709551616"],
            ["transport", "--sweep", ""],
            ["db", "--out", ""],
            ["density", "--n-ens", "100", "--n-iter", "0", "--bins", "10"],
            ["density", "--variant", "irreversible", "--strip-eps", "nan"],
            ["fr", "--delta", "inf"],
            ["fr", "--delta", "0"],
            ["fr", "--delta", "-1"],
            ["ratefunc", "--delta", "nan"],
            ["fr", "--p-max", "0.05"],
            ["fr", "--config", "missing.cfg"],
            ["fr", "--config", "."],
            ["fr", "--config", "../latin1.cfg"],
        ],
        ids=" ".join,
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_line_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        (tmp_path / "latin1.cfg").write_bytes("ell = 0.15  # \xe9\n".encode("latin-1"))  # not UTF-8
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)  # where the default bakerlab_out/<command> would go
        assert run(argv if "--out" in argv else argv + ["--out", "o"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"{argv[0]}: error: ")
        assert "Traceback" not in err[0]
        assert not any(work.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["transport", "--variant", "irreversible"],
            ["transport", "--mode", "stationary", "--ell", "0.2", "--strip-x", "0.3"],
            ["transport", "--sweep", "0.1", "--strip-eps", "0.1"],
            ["fr", "--source", "mc", "--variant", "irreversible", "--strip-x", "0.3"],
            ["fr", "--source", "exact", "--strip-eps", "0.1"],
            ["ratefunc", "--source", "mc", "--strip-x", "0.3"],
            ["ratefunc", "--strip-eps", "0.01"],
        ],
        ids=" ".join,
    )
    def test_x_only_commands_have_no_flag_that_only_y_reads(self, tmp_path, capsys, argv):
        """transport, and fr and ratefunc with --source mc, step x alone, which
        neither the flip strip nor (in transport) the variant can change: the
        flags are not theirs, so argparse refuses them, exit 1, nothing written."""
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[0].startswith("usage: bakerlab ")
        assert err[-1] == f"bakerlab: error: unrecognized arguments: {' '.join(argv[-2:])}"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "config, reason", [("missing.cfg", "No such file or directory"), (".", "Is a directory"),
                           ("latin1.cfg", "not UTF-8 text")]
    )
    def test_unreadable_config_names_the_file(self, tmp_path, monkeypatch, capsys, config, reason):
        (tmp_path / "latin1.cfg").write_bytes(b"ell = 0.15  # \xe9\n")
        monkeypatch.chdir(tmp_path)
        assert run(["db", "--config", config, "--out", "o"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"db: error: --config {config}: {reason}"]

    GRID_ERRORS = [
        (["fr", "--delta", "0"], "--delta must be positive and finite, got 0.0"),
        (["fr", "--delta", "-1"], "--delta must be positive and finite, got -1.0"),
        (["ratefunc", "--delta", "inf"], "--delta must be positive and finite, got inf"),
        (["ratefunc", "--delta", "nan"], "--delta must be positive and finite, got nan"),
        (["fr", "--p-max", "0.05"], "--p-max 0.05 leaves no cell beside p = 0 at --delta 0.05; it must exceed --delta"),
        (["ratefunc", "--p-max", "nan"], "--p-max must be positive and finite, got nan"),
        (["surface", "--ell-steps", "0"], "--ell-steps must be >= 1, got 0"),
        (["surface", "--q-steps", "0"], "--q-steps must be >= 1, got 0"),
        (["fr", "--n", "0"], "--n must be >= 1, got 0"),
        (["ratefunc", "--n", "0"], "--n must be >= 1, got 0"),
        (["fr", "--source", "mc", "--min-count", "0"], "--min-count must be >= 1, got 0"),
        (["fr", "--source", "mc", "--n-ens", "0"], "--n-ens must be >= 1, got 0"),
        (["ratefunc", "--source", "mc", "--n-iter", "0"], "--n-iter must be >= 1, got 0"),
        (["transport", "--k-max", "0"], "--k-max must be >= 1, got 0"),
        (["transport", "--n-iter", "0"], "--n-iter must be >= 1, got 0"),
        (["transport", "--sweep", "0.1", "--n-ens", "1"], "--n-ens must be >= 2, got 1"),
        (["density", "--bins", "0"], "--bins must be >= 1, got 0"),
        (["density", "--n-ens", "0"], "--n-ens must be >= 1, got 0"),
        (["density", "--n-iter", "0"], "--n-iter must be >= 1, got 0"),
        # the library's caps and the one cross-option count, in the terms of the flags
        (["transport", "--n-ens", "60000000"], "--n-ens must be <= 50000000, got 60000000"),
        (["transport", "--sweep", "0.1", "--n-ens", "60000000"], "--n-ens must be <= 50000000, got 60000000"),
        (["density", "--n-ens", "60000000"], "--n-ens must be <= 50000000, got 60000000"),
        (["fr", "--source", "mc", "--n-ens", "60000000"], "--n-ens must be <= 50000000, got 60000000"),
        (["ratefunc", "--source", "mc", "--n-ens", "50000001"], "--n-ens must be <= 50000000, got 50000001"),
        (["fr", "--source", "mc", "--n", "10", "--n-iter", "5"], "--n-iter must be >= --n (10) for one segment, got 5"),
        # fewer segments than --min-count leave no cell admissible
        (["fr", "--source", "mc", "--n", "100000", "--n-ens", "24", "--n-iter", "100000"],
         "--n-ens x (--n-iter // --n) segments must be >= --min-count (25), got 24 x (100000 // 100000) = 24"),
        (["ratefunc", "--source", "mc", "--n", "10", "--n-ens", "3", "--n-iter", "39", "--min-count", "10"],
         "--n-ens x (--n-iter // --n) segments must be >= --min-count (10), got 3 x (39 // 10) = 9"),
        # the library's cap on p cells
        (["fr", "--p-max", "1000"],
         "--p-max 1000.0 at --delta 0.05 makes more than 10001 cells: --p-max / (2 --delta) must round to <= 5000"),
        (["ratefunc", "--delta", "1e-5"],
         "--p-max 2.0 at --delta 1e-05 makes more than 10001 cells: --p-max / (2 --delta) must round to <= 5000"),
        (["fr", "--p-max", "500.1"],
         "--p-max 500.1 at --delta 0.05 makes more than 10001 cells: --p-max / (2 --delta) must round to <= 5000"),
        # transport's count moments reach n_ens n_iter**2, exact up to 2**53
        (["transport", "--n-ens", "50000000", "--n-iter", "13422"], "--n-iter must be <= 13421 at --n-ens 50000000, got 13422"),
        (["transport", "--sweep", "0.1", "--n-ens", "2", "--n-iter", "67108865"],
         "--n-iter must be <= 67108864 at --n-ens 2, got 67108865"),
        (["ratefunc", "--source", "mc", "--n", "10", "--n-iter", "9"], "--n-iter must be >= --n (10) for one segment, got 9"),
        (["density", "--bins", "3000"], "--bins must be <= 2000, got 3000"),
        (["density", "--bins", "2001"], "--bins must be <= 2000, got 2001"),
        (["surface", "--ell-steps", "100000", "--q-steps", "100000"],
         "--ell-steps x --q-steps must be <= 4000000 cells, got 100000 x 100000"),
        (["surface", "--ell-steps", "2001", "--q-steps", "2000"],
         "--ell-steps x --q-steps must be <= 4000000 cells, got 2001 x 2000"),
        (["transport", "--k-max", "10000000000"], "--k-max must be <= 1000000, got 10000000000"),
        (["transport", "--k-max", "1000001"], "--k-max must be <= 1000000, got 1000001"),
        # the exact law's n cap; --source mc has none
        (["fr", "--source", "exact", "--n", "2001"], "--n must be <= 2000, got 2001"),
        # the seed is one 64-bit key word
        (["density", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["fr", "--source", "mc", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["transport", "--seed", "-1"], "--seed must be >= 0, got -1"),
        # the default --mode equilibrium holds only at (1/4, 0)
        (["transport", "--ell", "0.15"],
         "--mode equilibrium requires --ell 0.25 and --q 0, got --ell 0.15 and --q 0.2; use --mode stationary at other (ell, q)"),
        (["transport", "--q", "0.1"],
         "--mode equilibrium requires --ell 0.25 and --q 0, got --ell 0.25 and --q 0.1; use --mode stationary at other (ell, q)"),
        (["transport", "--mode", "equilibrium", "--ell", "0.2", "--q", "0"],
         "--mode equilibrium requires --ell 0.25 and --q 0, got --ell 0.2 and --q 0.0; use --mode stationary at other (ell, q)"),
        (["transport", "--sweep", "0.1", "--seed", "18446744073709551616"],
         "--seed must be <= 18446744073709551615, got 18446744073709551616"),
        (["density", "--burn-in", "-1"], "--burn-in must be >= 0, got -1"),
        # an ell in (0, 1/4] whose branch slope 1/(2 ell) overflows
        (["fr", "--source", "exact", "--ell", "5e-324", "--q", "0.1"], "--ell must be large enough for 1/(2 ell) to be finite, got 5e-324"),
        (["density", "--ell", "5e-324", "--q", "0.1"], "--ell must be large enough for 1/(2 ell) to be finite, got 5e-324"),
        (["db", "--ell", "1e-309"], "--ell must be large enough for 1/(2 ell) to be finite, got 1e-309"),
        (["surface", "--ell-min", "5e-324"], "--ell-min must be large enough for 1/(2 ell) to be finite, got 5e-324"),
        (["density", "--ell", "2e-309"], "--ell must be large enough for 1/(2 ell) to be finite, got 2e-309"),
        (["surface", "--ell-max", "2.7813423231340017e-309"],
         "--ell-max must be large enough for 1/(2 ell) to be finite, got 2.781342323134e-309"),
        # a bias whose ell, (1 - 1/(2 - b))/2, rounds to 0
        (["transport", "--sweep", "0.1,0.9999999999999999", "--n-ens", "1000", "--n-iter", "10"],
         "--sweep must be small enough for its ell, (1 - 1/(2 - bias))/2, to be positive, got 0.9999999999999999"),
        # every command's ell and q against the valid box 0 < ell <= 1/4, 0 <= q < 1/2, before a map is built
        (["fr", "--q", "0.5"], "--q must lie in [0, 1/2), got 0.5"),
        (["db", "--q", "0.5"], "--q must lie in [0, 1/2), got 0.5"),
        (["density", "--q", "0.5"], "--q must lie in [0, 1/2), got 0.5"),
        (["transport", "--q", "0.5", "--mode", "stationary"], "--q must lie in [0, 1/2), got 0.5"),
        # the default q = 1/2 - 2 ell rounds to 1/2 for ell <= 2**-56
        (["transport", "--mode", "stationary", "--ell", "1e-17"],
         "--ell must be large enough for the default --q, 1/2 - 2 ell, to lie below 1/2, got 1e-17"),
        (["fr", "--ell", "0.3"], "--ell must lie in (0, 1/4], got 0.3"),
        (["density", "--ell", "0.9"], "--ell must lie in (0, 1/4], got 0.9"),
        (["transport", "--ell", "0.3"], "--ell must lie in (0, 1/4], got 0.3"),
        (["ratefunc", "--ell", "nan"], "--ell must lie in (0, 1/4], got nan"),
        # and the surface's bounds, before the grid is built
        (["surface", "--q-max", "0.6"], "--q-max must lie in [0, 1/2), got 0.6"),
        (["surface", "--q-max", "0.5"], "--q-max must lie in [0, 1/2), got 0.5"),
        (["surface", "--q-min", "-0.1"], "--q-min must lie in [0, 1/2), got -0.1"),
        (["surface", "--ell-min", "0.3"], "--ell-min must lie in (0, 1/4], got 0.3"),
        (["surface", "--ell-min", "0"], "--ell-min must lie in (0, 1/4], got 0.0"),
        (["surface", "--ell-max", "nan"], "--ell-max must lie in (0, 1/4], got nan"),
        # a bias of --sweep and the flip strip
        (["transport", "--sweep", "2"], "--sweep must lie in [0, 1), got 2.0"),
        (["transport", "--sweep", "0.1,1.5"], "--sweep must lie in [0, 1), got 1.5"),
        (["density", "--variant", "irreversible", "--strip-x", "2"], "--strip-x must lie in [0, 1), got 2.0"),
        (["density", "--variant", "irreversible", "--strip-eps", "-1"],
         "--strip-eps must lie in [0, 1 - 0.15], got -1.0"),
        (["density", "--variant", "irreversible", "--strip-eps", "nan"], "--strip-eps must lie in [0, 1 - 0.15], got nan"),
        (["density", "--variant", "irreversible", "--strip-x", "nan"], "--strip-x must lie in [0, 1), got nan"),
        # a --strip-x that leaves the default width, 1/2 - ell, past x = 1
        (["density", "--variant", "irreversible", "--strip-x", "0.9"], "--strip-eps must lie in [0, 1 - 0.9], got 0.35"),
        # a mean contraction rate within 1e-15 of 0 cannot normalize e_n, refused before any law or ensemble
        (["fr", "--source", "exact", "--q", "0"],
         "--q 0.0 at --ell 0.15: the mean contraction rate is 0 (equilibrium), so the normalized statistic e_n "
         "is undefined; choose a larger --q"),
        (["ratefunc", "--source", "mc", "--q", "0"],
         "--q 0.0 at --ell 0.15: the mean contraction rate is 0 (equilibrium), so the normalized statistic e_n "
         "is undefined; choose a larger --q"),
        (["fr", "--source", "exact", "--ell", "0.25", "--q", "1e-17"],
         "--q 1e-17 at --ell 0.25: the mean contraction rate is 0 (equilibrium), so the normalized statistic e_n "
         "is undefined; choose a larger --q"),
        # refused only by the library's configs and reductions, in the terms of the flags
        (["transport", "--n-ens", "0"], "--n-ens must be >= 2, got 0"),
        (["transport", "--sweep", "0.1", "--n-iter", "0"], "--n-iter must be >= 1, got 0"),
        (["density", "--n-iter", "-1"], "--n-iter must be >= 1, got -1"),
        (["fr", "--source", "mc", "--n-iter", "-1"], "--n-iter must be >= 1, got -1"),
        (["density", "--bins", "-1"], "--bins must be >= 1, got -1"),
        (["density", "--variant", "irreversible", "--strip-x", "0.5", "--strip-eps", "0.6"],
         "--strip-eps must lie in [0, 1 - 0.5], got 0.6"),
        # an option the run does not read is refused at any value, its default too,
        # from a flag or from a config file (GRID_CONFIGS)
        (["fr", "--source", "exact", "--n-ens", "10000"], "--n-ens cannot be combined with --source exact"),
        (["fr", "--n", "20", "--n-ens", "10000", "--seed", "0"], "--n-ens cannot be combined with --source exact"),
        (["ratefunc", "--source", "exact", "--seed", "0"], "--seed cannot be combined with --source exact"),
        (["fr", "--variant", "reversible"], "--variant cannot be combined with --source exact"),
        (["ratefunc", "--min-count", "25"], "--min-count cannot be combined with --source exact"),
        (["fr", "--burn-in", "1000"], "--burn-in cannot be combined with --source exact"),
        (["transport", "--sweep", "0.1", "--k-max", "50"], "--k-max cannot be combined with --sweep"),
        (["transport", "--sweep", "0.1", "--k-max", "50", "--mode", "equilibrium", "--ell", "0.25"],
         "--ell cannot be combined with --sweep"),
        (["transport", "--sweep", "0.1", "--mode", "equilibrium"], "--mode cannot be combined with --sweep"),
        (["fr", "--config", "n_ens.cfg"], "--n-ens cannot be combined with --source exact"),
        (["transport", "--config", "sweep.cfg"], "--k-max cannot be combined with --sweep"),
        (["transport", "--config", "sweep.cfg", "--k-max", "20"], "--k-max cannot be combined with --sweep"),
        # the x-only runs accept only the default --burn-in, 1000, unread
        (["transport", "--sweep", "0.1", "--config", "burn_in.cfg"],
         "--burn-in cannot be combined with transport, whose x starts in its stationary law"),
    ]

    # the config files that GRID_ERRORS rows name, each giving an option the run does not read
    GRID_CONFIGS = {
        "n_ens.cfg": "n_ens = 10000\n",
        "sweep.cfg": "sweep = 0.1\nk_max = 50\n",
        "burn_in.cfg": "burn_in = 999\n",
    }

    @pytest.fixture
    def grid_configs(self, tmp_path_factory, monkeypatch):
        """Writes GRID_CONFIGS in a directory of their own and runs there."""
        where = tmp_path_factory.mktemp("configs")
        for name, text in self.GRID_CONFIGS.items():
            (where / name).write_text(text)
        monkeypatch.chdir(where)

    @pytest.mark.parametrize("argv, reason", GRID_ERRORS, ids=[" ".join(argv) for argv, _ in GRID_ERRORS])
    def test_grid_errors_name_the_option(self, tmp_path, capsys, grid_configs, argv, reason):
        assert run(argv + ["--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"{argv[0]}: error: {reason}"]
        assert not any(tmp_path.iterdir())

    # library field names that are no flag's name
    FIELD_NAMES = ("n_ens", "n_iter", "burn_in", "seg_len", "min_count", "k_max", "p_max", "strip_x", "strip_eps",
                   "nx", "ny", "spacing", "len(ells)", "len(qs)")

    @pytest.mark.parametrize("argv", [argv for argv, _ in GRID_ERRORS], ids=[" ".join(argv) for argv, _ in GRID_ERRORS])
    def test_no_refusal_prints_a_bare_field_name(self, tmp_path, monkeypatch, capsys, grid_configs, argv):
        """Each field a refusal names is printed as flags of the command,
        and no library field name or placeholder is left in the line."""
        named, flag = [], bakerlab.cli._flag
        monkeypatch.setattr(bakerlab.cli, "_flag", lambda field: named.append(field) or flag(field))
        assert run(argv + ["--out", str(tmp_path / "o")]) == 1
        line = capsys.readouterr().err
        spec = next(spec for command, _, spec, _ in _COMMANDS if command == argv[0])
        options = {"--" + option.replace("_", "-") for option in spec}
        for field in named:
            assert set(re.findall(r"--[a-z][a-z-]*", flag(field))) <= options and "--" in flag(field), field
        for name in self.FIELD_NAMES:
            assert not re.search(rf"(?<![\w-]){re.escape(name)}(?!\w)", line), name
        assert "{" not in line and "}" not in line

    @pytest.mark.parametrize("name", ["{n_ens}", "{", "}{}", "{0}"])
    @pytest.mark.parametrize("where", ["config", "out", "sweep"])
    def test_user_text_is_never_read_as_a_template(self, tmp_path, capsys, name, where):
        """A path or a value the user typed is printed as typed, braces and all."""
        (tmp_path / name).write_text("keep\n")
        path = tmp_path / name
        argv, expected = {
            "config": (["density", "--config", str(path / "c.cfg")], f"--config {path / 'c.cfg'}: Not a directory"),
            "out": (["db", "--out", str(path / "o")], f"--out {path / 'o'}: {path} exists and is not a directory"),
            "sweep": (["transport", "--sweep", name], f"--sweep: could not convert string to float: {name!r}"),
        }[where]
        assert run(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"{argv[0]}: error: {expected}"]
        assert (tmp_path / name).read_text() == "keep\n"

    def test_transport_count_moments_are_refused_before_any_lag_is_summed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bakerlab.transport, "chain_autocovariance", lambda *args: pytest.fail("a lag was summed"))
        argv = ["transport", "--k-max", "1000000", "--n-iter", "13422", "--n-ens", "50000000"]
        assert run(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["transport: error: --n-iter must be <= 13421 at --n-ens 50000000, got 13422"]
        assert not any(tmp_path.iterdir())

    def test_fifty_million_segment_means_run(self, tmp_path, capsys):
        """50,000 members x 1000 segments of n = 1 make 50M segment means,
        400 MB were they kept.  ``fr`` bins them as each segment ends, so no
        cap on kept means refuses the run: it runs and fails only for want
        of negative fluctuations."""
        argv = ["fr", "--source", "mc", "--n", "1", "--p-max", "1", "--n-ens", "50000", "--n-iter", "1000"]
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["fr: error: insufficient negative fluctuations: no admissible (+p, -p) cell pairs"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["density", "transport"])
    @pytest.mark.parametrize("out", ["F", "F/sub"])
    def test_out_through_a_file_is_refused_before_computing(self, tmp_path, monkeypatch, capsys, command, out):
        (tmp_path / "F").write_text("keep\n")

        def computed(*args, **kwargs):
            raise AssertionError("the run was computed")

        monkeypatch.setattr(bakerlab.cli.es, "empirical_density", computed)
        monkeypatch.setattr(bakerlab.cli.tp, "green_kubo_estimate", computed)
        assert run([command, "--n-ens", "200000", "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"{command}: error: --out ")
        assert "not a directory" in err[0]
        assert (tmp_path / "F").read_text() == "keep\n"

    @pytest.mark.parametrize("out", ["new", "new/sub", "."])
    def test_unwritable_out_is_refused_before_computing(self, tmp_path, monkeypatch, capsys, out):
        # os.access is stubbed: a process running as root may write anywhere
        target = tmp_path / out

        def computed(*args, **kwargs):
            raise AssertionError("the run was computed")

        def access(path, mode):
            assert Path(path) == tmp_path and mode == os.W_OK | os.X_OK
            return False

        monkeypatch.setattr(bakerlab.cli.mk, "db_report", computed)
        monkeypatch.setattr(bakerlab.cli.os, "access", access)
        assert run(["db", "--out", str(target)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"db: error: --out {target}: {tmp_path} is not writable"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["fr", "--source", "mc", "--n", "200", "--n-ens", "100", "--n-iter", "4000"], 2),
            (["ratefunc", "--source", "mc", "--n", "200", "--n-ens", "100", "--n-iter", "400",
              "--min-count", "1000"], 1),
            # 200 segments could fill one cell to --min-count, but none does
            (["ratefunc", "--source", "mc", "--n", "200", "--n-ens", "100", "--n-iter", "400",
              "--min-count", "200"], 1),
            (["ratefunc", "--source", "exact", "--n", "1"], 2),
            (["fr", "--source", "exact", "--n", "1", "--ell", "0.1", "--q", "0.3"], 2),
            # runs, so no cap refuses an n above the exact law's
            (["fr", "--source", "mc", "--n", "2001", "--n-ens", "1", "--n-iter", "2001", "--min-count", "1"], 2),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_failed_run_writes_nothing(self, tmp_path, capsys, argv, code):
        """A run that fails after computing some artifacts writes none of
        them: the output directory holds a manifest or does not exist."""
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"{argv[0]}: error: ")
        assert not out.exists()


class TestWorkers:
    DENSITY = ["density", "--variant", "irreversible", "--n-ens", "2001", "--n-iter", "3", "--burn-in", "4",
               "--bins", "6", "--seed", "5"]
    TRANSPORT = ["transport", "--n-ens", "2001", "--n-iter", "6", "--seed", "5"]
    RUNS = {
        "density": (DENSITY, ("histogram2d.csv", "marginals.csv")),
        "transport": (TRANSPORT + ["--ell", "0.25"], ("convergence.csv",)),
        "transport --sweep": (TRANSPORT + ["--sweep", "0,0.1,0.5"], ("sweep.csv",)),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, force_workers, name):
        argv, artifacts = self.RUNS[name]
        csv = {}
        for w in (1, 2, 3):
            force_workers(2001, w)
            out = tmp_path / f"w{w}"
            assert run(argv + ["--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text())["start"]["workers"] == w
            csv[w] = [(out / name).read_bytes() for name in artifacts]
        assert csv[1] == csv[2] == csv[3]
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("name", ["density", "transport"])
    def test_failed_worker_is_one_line_and_exit_2(self, tmp_path, monkeypatch, capsys, force_workers, name):
        argv, _ = self.RUNS[name]
        force_workers(2001, 2)
        parent = os.getpid()
        kernel = {"density": "_advance", "transport": "region_indices"}[name]  # the step of both modes, the lookup
        step = getattr(bakerlab.ensemble, kernel)

        def failing_in_children(*args):
            if os.getpid() != parent:
                raise MemoryError("injected")
            return step(*args)

        monkeypatch.setattr(bakerlab.ensemble, kernel, failing_in_children)
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"{argv[0]}: error: the worker for members [1000, 2001) failed: MemoryError: injected"]
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestImport:
    # small forms of every command, with fr and ratefunc from both sources at
    # the default (ell, q), which lies on a lattice family, and at the generic
    # (0.1, 0.1)
    SCIPY_FREE_RUNS = [
        ["db"],
        ["surface", "--ell-steps", "3", "--q-steps", "3"],
        ["density", "--n-ens", "2000", "--n-iter", "2", "--burn-in", "3", "--bins", "8"],
        ["transport", "--n-ens", "2000", "--n-iter", "10", "--k-max", "5"],
        ["fr", "--source", "mc", "--n", "10", "--n-ens", "500", "--n-iter", "200", "--p-max", "4"],
        ["ratefunc", "--source", "mc", "--ell", "0.1", "--q", "0.1", "--n", "10", "--n-ens", "500",
         "--n-iter", "200", "--p-max", "4"],
        ["fr", "--source", "exact", "--n", "50"],
        ["ratefunc", "--source", "exact", "--n", "50"],
        ["fr", "--source", "exact", "--ell", "0.1", "--q", "0.1", "--n", "20", "--p-max", "8"],
        ["ratefunc", "--source", "exact", "--ell", "0.1", "--q", "0.1", "--n", "64", "--p-max", "8"],
    ]

    def test_package_and_every_command_run_without_scipy(self, tmp_path):
        """In one fresh interpreter where any scipy import fails, import
        every name of every module's ``__all__``, then run selftest and
        every command of ``SCIPY_FREE_RUNS`` through ``main``."""
        src = str(Path(bakerlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import importlib, json, sys\n"
            "sys.modules['scipy'] = None\n"  # import scipy, and of any scipy submodule, now raises
            "for layer in ('errors', 'mapcore', 'markov', 'ensemble', 'fluctuation', 'transport'):\n"
            "    module = importlib.import_module('bakerlab.' + layer)\n"
            "    for name in module.__all__:\n"
            "        getattr(module, name)\n"
            "from bakerlab.cli import main\n"
            "runs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
            "codes = [main(['selftest'])] + [main(r + ['--out', f'{out}/{i}']) for i, r in enumerate(runs)]\n"
            "assert codes == [0] * len(codes), codes\n"
            "try:\n"
            "    import scipy.special\n"
            "except ImportError:\n"
            "    print('scipy blocked')\n"  # the block did hold
        )
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(self.SCIPY_FREE_RUNS), str(tmp_path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "scipy blocked"

    # every command that runs no ensemble: the reversal checks of selftest,
    # both schemes of db, surface, and fr and ratefunc from the exact law on a
    # lattice family (the default (ell, q)) and at the generic (0.1, 0.1)
    NO_ENSEMBLE_RUNS = [
        ["db", "--scheme", "q4"],
        ["db", "--scheme", "q3"],
        ["surface", "--ell-steps", "3", "--q-steps", "3"],
        ["fr", "--source", "exact", "--n", "50"],
        ["ratefunc", "--source", "exact", "--n", "50"],
        ["fr", "--source", "exact", "--ell", "0.1", "--q", "0.1", "--n", "20", "--p-max", "8"],
        ["ratefunc", "--source", "exact", "--ell", "0.1", "--q", "0.1", "--n", "64", "--p-max", "8"],
    ]

    def test_commands_without_an_ensemble_load_no_rng_and_call_no_lapack(self, tmp_path):
        """In one fresh interpreter where importing ``numpy.random`` fails and
        the LAPACK-backed ``np.linalg.lstsq``, ``matrix_rank`` and ``svd``
        raise, selftest and every command of ``NO_ENSEMBLE_RUNS`` exit 0."""
        src = str(Path(bakerlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import json, sys\n"
            "sys.modules['numpy.random'] = None\n"  # import numpy.random, and np.random, now raise
            "import numpy as np\n"
            "class LapackCalled(Exception):\n"
            "    pass\n"
            "def refuse(*args, **kwargs):\n"
            "    raise LapackCalled\n"
            "for name in ('lstsq', 'matrix_rank', 'svd'):\n"
            "    setattr(np.linalg, name, refuse)\n"
            "from bakerlab.cli import main\n"
            "runs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
            "codes = [main(['selftest'])] + [main(r + ['--out', f'{out}/{i}']) for i, r in enumerate(runs)]\n"
            "assert codes == [0] * len(codes), codes\n"
            "try:\n"
            "    np.random.default_rng\n"
            "except ImportError:\n"
            "    try:\n"
            "        np.linalg.lstsq(np.eye(2), np.ones(2))\n"
            "    except LapackCalled:\n"
            "        print('rng and lapack blocked')\n"  # both blocks did hold
        )
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(self.NO_ENSEMBLE_RUNS), str(tmp_path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
        assert proc.stdout.splitlines()[-1] == "rng and lapack blocked"

    def test_import_leaves_multiprocessing_out(self):
        src = str(Path(bakerlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, bakerlab, bakerlab.cli; assert 'multiprocessing' not in sys.modules"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_package_exports_each_module_all(self):
        from bakerlab import ensemble, errors, fluctuation, mapcore, markov, transport

        for module in (errors, mapcore, markov, ensemble, fluctuation, transport):
            for name in module.__all__:
                assert getattr(bakerlab, name) is getattr(module, name), (module.__name__, name)
        scalar_layer = ("Point", "classify_region", "jacobian", "contraction_rate", "baker_step",
                        "strip_flip", "step", "time_reversal")
        scipy_helpers = ("uniformity_chi_square", "variant_equivalence_test", "EquivalenceReport")  # in tests/stats.py
        rectangle_api = ("measure_estimate", "MeasureEstimate", "RectSet", "reflect_rect")
        for owner, names in (
            (bakerlab, scalar_layer + ("time_average", "contraction_autocovariance", "final_state",
                                       "write_histogram_csv", "region_sequences", "evolve", "region_stream",
                                       "StepState") + scipy_helpers + ("lambda_segment_means",) + rectangle_api),
            (mapcore, scalar_layer),
            (fluctuation, ("time_average", "variant_equivalence_test", "EquivalenceReport", "_EQUIV_BINS",
                           "_EQUIV_ALPHA")),
            (markov, ("contraction_autocovariance",)),
            (ensemble, ("final_state", "write_histogram_csv", "region_sequences", "_MAX_SEQUENCE_BYTES",
                        "evolve", "region_stream", "StepState", "lambda_segment_means", "_MAX_SEGMENT_MEANS",
                        "uniformity_chi_square") + rectangle_api + ("_moment_split",)),
            (fluctuation.FRConfig, ("spacing",)),
            (transport.GKResult, ("n_ens", "n_iter")),
        ):
            fields = getattr(owner, "__dataclass_fields__", {})
            assert not [name for name in names if hasattr(owner, name) or name in fields], owner.__name__
