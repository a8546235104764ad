import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bakerlab
from bakerlab.cli import _MC_ONLY, _NOT_SWEPT, _resolve, build_parser, main
from bakerlab.ensemble import SimConfig, empirical_density, worker_count
from bakerlab.mapcore import MapParams
from bakerlab.markov import mean_contraction_rate


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
            "x": "stationary", "y": "uniform", "burn_in_steps": 200, "workers": worker_count(2000)
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

    def test_histogram_writer_bytes_match_one_fstring_per_cell(self, tmp_path):
        from bakerlab.cli import _write_histogram_csv

        counts = np.arange(21, dtype=np.int64).reshape(3, 7) % 4  # zeros in every row
        counts[1, 5] = 2**40 + 3
        counts[2, 0] = 2**62
        _write_histogram_csv(tmp_path / "h.csv", counts)
        expected = "x_bin,y_bin,count\n" + "".join(
            f"{i},{j},{count}\n" for i, row in enumerate(counts.tolist()) for j, count in enumerate(row)
        )
        assert (tmp_path / "h.csv").read_bytes() == expected.encode()

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


def _joined_cell(v) -> str:
    """The cell formatting the CSV writer's templates must reproduce."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(v)
    return format(float(v), ".17g")


class TestWriteCsv:
    def test_templates_write_the_bytes_of_one_join_per_row(self, tmp_path):
        from bakerlab.cli import _write_csv

        rows = [
            ("A", 3, np.int64(-7), True, 0.1, np.float64(1e-300), float("nan"), float("inf")),
            ("B", -2**70, np.int64(2**62), False, -0.0, np.float64(-np.inf), 2.0 / 3.0, np.nan),
            ("C", 0, np.int64(0), True, 1e22, np.float64(np.pi), -1.5, 5e-324),
            (1, "mixed", 0.25, np.int64(4), False, "end", 7, np.float64(0.5)),  # another row shape
            ("A", 4, np.int64(8), False, 2.5, np.float64(-0.1), -float("inf"), 123456789.125),
        ]
        _write_csv(tmp_path / "t.csv", "h", rows)
        expected = "h\n" + "".join(",".join(map(_joined_cell, row)) + "\n" for row in rows)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()


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

    def test_surface_nonnegative_default_grid(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run(["surface", "--out", str(out)]) == 0
        assert "WARNING" not in capsys.readouterr().out


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
    @pytest.mark.parametrize(
        "argv",
        [
            ["fr", "--source", "mc", "--n", "20", "--n-ens", "2000", "--n-iter", "400"],
            ["transport", "--mode", "stationary", "--ell", "0.2", "--n-ens", "2000", "--n-iter", "20"],
            ["transport", "--n-ens", "2000", "--n-iter", "20"],
            ["transport", "--sweep", "0.1", "--n-ens", "2000", "--n-iter", "20"],
        ],
        ids=" ".join,
    )
    def test_x_only_runs_start_stationary_without_burn_in(self, tmp_path, argv):
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["start"] == {"x": "stationary", "burn_in_steps": 0, "workers": worker_count(2000)}

    def test_exact_source_records_no_start(self, tmp_path):
        out = tmp_path / "fr"
        assert run(["fr", "--source", "exact", "--n", "50", "--out", str(out)]) == 0
        assert "start" not in json.loads((out / "manifest.json").read_text())


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
             ("burn_in", "strip_x", "strip_eps"), ("variant", "n_ens", "n_iter", "seed", "min_count")),
            (["ratefunc", "--source", "mc", "--variant", "irreversible", "--n", "20", "--n-ens", "2000",
              "--n-iter", "400"], ("burn_in",), ("variant", "strip_x", "strip_eps", "seed")),
            (["transport", "--n-ens", "2000", "--n-iter", "20"],
             ("burn_in", "strip_x", "strip_eps"), ("ell", "q", "mode", "k_max", "seed", "sweep")),
            (["transport", "--sweep", "0.1", "--n-ens", "2000", "--n-iter", "20"],
             _NOT_SWEPT + ("burn_in",), ("variant", "n_ens", "n_iter", "seed", "sweep")),
            (["density", "--n-ens", "200", "--n-iter", "2", "--burn-in", "2", "--bins", "4"],
             ("strip_x", "strip_eps"), ("burn_in", "bins", "seed")),
            (["density", "--variant", "irreversible", "--n-ens", "200", "--n-iter", "2", "--burn-in", "2"],
             (), ("burn_in", "strip_x", "strip_eps")),
        ]],
    )
    def test_config_holds_the_options_the_run_read(self, tmp_path, argv, absent, present):
        """``config`` is the option table minus the options the run refuses
        off their default: the exact source reads no ensemble option, a
        sweep no point option, an x-only run no burn-in and a reversible run
        no strip."""
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
    "fr": "ell q variant strip-x strip-eps n delta p-max source min-count n-ens n-iter burn-in seed out config",
    "ratefunc": "ell q variant strip-x strip-eps n delta p-max source min-count n-ens n-iter burn-in seed out config",
    "db": "ell q scheme out config",
    "transport": "ell q variant strip-x strip-eps mode n-ens n-iter burn-in seed k-max sweep out config",
}


def _subcommand_flags(parser, command):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        flag
        for action in sub.choices[command]._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }


class TestOptionTables:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_flags_are_table_keys_plus_config(self, command):
        parser = build_parser()
        flags = _subcommand_flags(parser, command)
        spec = parser.parse_args([command]).spec
        assert flags == {"--" + key.replace("_", "-") for key in spec} | {"--config"}
        assert flags == {"--" + name for name in COMMAND_FLAGS[command].split()}

    def test_selftest_takes_no_options(self):
        assert _subcommand_flags(build_parser(), "selftest") == set()


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
            ["fr", "--source", "exact", "--strip-x", "5"],
            ["fr", "--source", "exact", "--n-ens", "5", "--seed", "9", "--min-count", "1000"],
            ["fr", "--n-iter", "10"],
            ["fr", "--seed", "9"],
            ["fr", "--min-count", "1000"],
            ["ratefunc", "--variant", "irreversible"],
            ["ratefunc", "--source", "exact", "--strip-eps", "0.01"],
            ["ratefunc", "--burn-in", "7"],
            ["transport", "--ell", "0.25", "--q", "0", "--mode", "equilibrium", "--burn-in", "500"],
            ["transport", "--mode", "stationary", "--ell", "0.2", "--burn-in", "500"],
            ["transport", "--sweep", "0.1", "--burn-in", "0"],
            ["fr", "--source", "mc", "--burn-in", "200"],
            ["ratefunc", "--source", "mc", "--burn-in", "0"],
            ["density", "--n-ens", "2000", "--n-iter", "2", "--burn-in", "5", "--strip-x", "0.3", "--strip-eps", "0.1"],
            ["fr", "--source", "mc", "--strip-eps", "0.1"],
            ["transport", "--mode", "stationary", "--ell", "0.2", "--strip-x", "0.3"],
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
        "config, reason", [("missing.cfg", "No such file or directory"), (".", "Is a directory"),
                           ("latin1.cfg", "not UTF-8 text")]
    )
    def test_unreadable_config_names_the_file(self, tmp_path, monkeypatch, capsys, config, reason):
        (tmp_path / "latin1.cfg").write_bytes(b"ell = 0.15  # \xe9\n")
        monkeypatch.chdir(tmp_path)
        assert run(["db", "--config", config, "--out", "o"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"db: error: --config {config}: {reason}"]

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
            (["ratefunc", "--source", "exact", "--n", "1"], 2),
            (["fr", "--source", "exact", "--n", "1", "--ell", "0.1", "--q", "0.3"], 2),
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
    TRANSPORT = ["transport", "--variant", "irreversible", "--n-ens", "2001", "--n-iter", "6", "--seed", "5"]
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
        step = bakerlab.ensemble.step_arrays

        def failing_in_children(*args):
            if os.getpid() != parent:
                raise MemoryError("injected")
            return step(*args)

        monkeypatch.setattr(bakerlab.ensemble, "step_arrays", failing_in_children)
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
        for owner, names in (
            (bakerlab, scalar_layer + ("time_average", "contraction_autocovariance", "final_state",
                                       "write_histogram_csv", "region_sequences", "evolve", "region_stream",
                                       "StepState") + scipy_helpers + ("lambda_segment_means",)),
            (mapcore, scalar_layer),
            (fluctuation, ("time_average", "variant_equivalence_test", "EquivalenceReport", "_EQUIV_BINS",
                           "_EQUIV_ALPHA")),
            (markov, ("contraction_autocovariance",)),
            (ensemble, ("final_state", "write_histogram_csv", "region_sequences", "_MAX_SEQUENCE_BYTES",
                        "evolve", "region_stream", "StepState", "lambda_segment_means", "_MAX_SEGMENT_MEANS",
                        "uniformity_chi_square")),
            (fluctuation.FRConfig, ("spacing",)),
            (transport.GKResult, ("n_ens", "n_iter")),
        ):
            fields = getattr(owner, "__dataclass_fields__", {})
            assert not [name for name in names if hasattr(owner, name) or name in fields], owner.__name__
