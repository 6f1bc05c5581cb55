import json

import pytest

from ruincapital.capital import SolveSpec, capital_curve, ruin_curve
from ruincapital.cli import build_parser, main
from ruincapital.dist import Exponential
from ruincapital.model import RiskModel
from ruincapital.montecarlo import SimConfig, simulate_curve
from ruincapital.table import CurveTable

UNIT_CONFIG = {
    "model": {
        "t_law": {"family": "exponential", "rate": 1.0},
        "y_law": {"family": "exponential", "rate": 1.0},
    }
}


UNIT = RiskModel(Exponential(1.0), Exponential(1.0))


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(UNIT_CONFIG))
    return str(path)


def test_constants_command(config_path, tmp_path, capsys):
    out = tmp_path / "k.csv"
    rc = main(["constants", "--config", config_path, "--out", str(out)])
    assert rc == 0
    table = CurveTable.read_csv(out)
    row = table.rows[0]
    got = dict(zip(table.columns, row))
    assert got["c_star"] == pytest.approx(1.0)
    assert got["d2_big"] == pytest.approx(2.0)


def test_capital_command_exact_and_clt(config_path, tmp_path):
    out = tmp_path / "cap.csv"
    rc = main(
        [
            "capital",
            "--config",
            config_path,
            "--kind",
            "var",
            "--alpha",
            "0.05",
            "--t",
            "200",
            "--c-start",
            "1.0",
            "--c-stop",
            "1.0",
            "--c-step",
            "0.5",
            "--method",
            "exact,clt",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    table = CurveTable.read_csv(out)
    got = dict(zip(table.columns, table.rows[0]))
    # exact and CLT Value-at-Risk capitals agree closely at c = 1, t = 200
    assert abs(got["var_exact"] - got["var_clt"]) < 1.5
    assert table.metadata["config"] == UNIT_CONFIG


def test_consecutive_calls_share_no_flag_values(config_path, tmp_path):
    # one parser serves every call of a process; each call reads only its own flags
    assert build_parser() is build_parser()
    grid = ["--c-start", "0.5", "--c-stop", "1.5", "--c-step", "0.5"]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    argv = ["capital", "--config", config_path, "--kind", "var", "--method", "clt",
            "--alpha", "0.01", "--t", "100", "--paths", "500"]
    assert main([*argv, *grid, "--out", str(first)]) == 2  # --paths without mc
    assert main([*argv[:-2], *grid, "--out", str(first)]) == 0
    assert main(["capital", "--config", config_path, *grid, "--out", str(second)]) == 0
    meta = CurveTable.read_csv(second).metadata
    assert (meta["alpha"], meta["t"], meta["kind"]) == (0.05, 200.0, "nonruin")
    assert sorted(meta["flags"]) == ["c_start", "c_step", "c_stop", "command", "config", "out"]
    expected = capital_curve(UNIT, 0.05, 200.0, [0.5, 1.0, 1.5], SolveSpec(), kinds=("nonruin",))
    assert CurveTable.read_csv(second).column("nonruin_exact") == expected.column("nonruin")


def test_capital_command_equals_library_curves(config_path, tmp_path):
    grid = [0.0, 0.5, 1.0, 1.5]
    sim = SimConfig(n_paths=1000, seed=5, t=100.0)
    for kind in ("var", "nonruin"):
        out = tmp_path / f"{kind}.csv"
        argv = ["capital", "--config", config_path, "--kind", kind, "--t", "100",
                "--c-start", "0", "--c-stop", "1.5", "--c-step", "0.5",
                "--method", "exact,ig,clt,mc", "--paths", "1000", "--seed", "5",
                "--out", str(out)]
        assert main(argv) == 0
        table = CurveTable.read_csv(out)
        assert table.column("c") == grid
        # the one incompatible method leaves every cell NA, keyed by method
        na = "ig" if kind == "var" else "clt"
        keys = [w.partition(": ")[0] for w in table.metadata["warnings"]]
        assert keys == [f"{na}@c={c:g}" for c in grid]
        for mth, backend in (("exact", "exact_exp"), ("ig", "inverse_gaussian"),
                             ("clt", "clt"), ("mc", "monte_carlo")):
            spec = SolveSpec(backend=backend, sim=sim)
            curve = capital_curve(UNIT, 0.05, 100.0, grid, spec, kinds=(kind,))
            assert table.column(f"{kind}_{mth}") == curve.column(kind), mth
        sweep = simulate_curve(UNIT, 0.05, grid, sim)
        lo, hi = sweep.column(f"{kind}_lo"), sweep.column(f"{kind}_hi")
        assert table.column("mc_stderr") == [
            (h - l) / (2.0 * 1.96) for l, h in zip(lo, hi)
        ]


def test_ruinprob_command_na_at_equilibrium(config_path, tmp_path):
    out = tmp_path / "rp.csv"
    rc = main(
        [
            "ruinprob",
            "--config",
            config_path,
            "--u",
            "40",
            "--t",
            "200",
            "--c-start",
            "0.9",
            "--c-stop",
            "1.1",
            "--c-step",
            "0.1",
            "--method",
            "exact,cramer",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    table = CurveTable.read_csv(out)
    rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
    # the normal approximation is undefined exactly at c* = 1
    assert rows[1.0]["ruin_cramer"] is None
    assert rows[0.9]["ruin_cramer"] is not None
    assert 0.0 < rows[1.0]["ruin_exact"] < 1.0
    assert table.metadata["warnings"]


def test_ruinprob_command_equals_library_curve(config_path, tmp_path):
    grid = [0.5, 1.0, 1.5]
    out = tmp_path / "rp.csv"
    argv = ["ruinprob", "--config", config_path, "--u", "10", "--t", "100",
            "--c-start", "0.5", "--c-stop", "1.5", "--c-step", "0.5",
            "--method", "exact,ig,cramer,mc", "--paths", "1000", "--seed", "5",
            "--out", str(out)]
    assert main(argv) == 0
    table = CurveTable.read_csv(out)
    methods = ("exact", "ig", "cramer", "mc")
    curve = ruin_curve(UNIT, 10.0, 100.0, grid, methods, SimConfig(1000, 5, 100.0))
    assert table.columns == ["c"] + [f"ruin_{m}" for m in methods] + ["mc_stderr"]
    assert table.column("c") == grid
    for mth in methods:
        assert table.column(f"ruin_{mth}") == curve.column(mth), mth
    assert table.column("mc_stderr") == curve.column("mc_stderr")
    # the normal approximation is undefined at c* = 1, and only there
    keys = [w.partition(": ")[0] for w in table.metadata["warnings"]]
    assert keys == ["cramer@c=1"]
    assert table.metadata["warnings"] == curve.metadata["warnings"]


def test_reproduce_writes_csv_and_sidecar(config_path, tmp_path):
    out = tmp_path / "repro"
    rc = main(["reproduce", "table1", "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.iterdir())
    assert "table1_sidecar.json" in files
    assert any(name.endswith(".csv") for name in files)
    sidecar = json.loads((out / "table1_sidecar.json").read_text())
    assert sidecar


def test_usage_errors_exit_2(config_path, tmp_path):
    assert main(["capital", "--config", config_path]) == 2  # no grid
    assert (
        main(
            [
                "capital",
                "--config",
                config_path,
                "--c-start",
                "1",
                "--c-stop",
                "1",
                "--c-step",
                "1",
                "--method",
                "bogus",
            ]
        )
        == 2
    )
    assert main(["ruinprob", "--config", config_path, "--c-start", "1", "--c-stop", "1", "--c-step", "1"]) == 2  # no --u
    # an alpha shared by every cell is checked up front, not logged per cell
    grid = ["--c-start", "1", "--c-stop", "1.5", "--c-step", "0.5"]
    assert main(["capital", "--config", config_path, "--alpha", "0.7", *grid]) == 2
    # so are a capital, horizon or rate shared by every ruinprob cell
    ruin = ["ruinprob", "--config", config_path]
    for bad in (["--u", "nan"], ["--u", "-5"], ["--u", "10", "--t", "nan"],
                ["--u", "10", "--method", "exact,clt"]):
        assert main([*ruin, *bad, *grid]) == 2
    assert main([*ruin, "--u", "10", "--c-start", "-0.1", "--c-stop", "0.5",
                 "--c-step", "0.1"]) == 2
    assert main([*ruin, "--u", "10", "--method", "mc", *grid]) == 0
    for bad_grid in (["--c-start", "nan", "--c-stop", "1", "--c-step", "0.5"],
                     ["--c-start", "0", "--c-stop", "1", "--c-step", "0"]):
        assert main(["capital", "--config", config_path, *bad_grid]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["constants", "--config", missing]) == 2
    # a flag the subcommand does not read is rejected, not echoed into # flags
    assert main(["constants", "--config", config_path, "--t", "5"]) == 2
    assert main(["reproduce", "table1", "--alpha", "0.01"]) == 2
    assert main(["reproduce", "table1", "--config", config_path]) == 2
    assert main(["reproduce", "fig99"]) == 2  # an unknown preset
    assert main([*ruin, "--u", "10", "--alpha", "0.1", *grid]) == 2
    # the ultimate capital has one route, whatever the method list says
    ultimate = ["capital", "--config", config_path, "--kind", "ultimate", *grid]
    assert main([*ultimate, "--method", "ig"]) == 2
    assert main([*ultimate, "--method", "exact,ig,clt,mc"]) == 2
    assert main([*ultimate, "--method", "exact", "--out", str(tmp_path / "u.csv")]) == 0
    # --paths and --seed are read only by the mc method
    for command in (["capital", "--config", config_path], ultimate, [*ruin, "--u", "10"]):
        for extra in (["--paths", "500"], ["--seed", "3"]):
            assert main([*command, *extra, *grid]) == 2
            assert main([*command, *extra, "--method", "exact,ig", *grid]) == 2
    assert main(["capital", "--config", config_path, "--paths", "1000", "--method", "ig,mc",
                 *grid, "--out", str(tmp_path / "mc.csv")]) == 0
    # a method list is nonempty and names each method once
    for command in (["capital", "--config", config_path], [*ruin, "--u", "10"]):
        for methods in ("", ",", "exact,exact", "exact, ig,exact"):
            assert main([*command, "--method", methods, *grid]) == 2, (command[0], methods)
    # the config file holds the model; every run setting is a flag, so a
    # config with any other key is exit 2, whatever the key's value
    mc_grid = ["--method", "mc", *grid]
    model = UNIT_CONFIG["model"]
    settings = {"alpha": 0.01, "alpah": 0.01, "t": 200, "u": 10, "kind": "var",
                "methods": "exact", "c_grid": {"start": 1, "stop": 1.5, "step": 0.5},
                "sim": {"n_paths": 1000, "seed": 3}, "models": [model]}
    path = tmp_path / "bad.json"
    for argv in (["capital", *grid], ["capital", *mc_grid],
                 ["ruinprob", "--u", "10", *mc_grid], ["constants"]):
        path.write_text(json.dumps(UNIT_CONFIG))
        assert main([argv[0], "--config", str(path), *argv[1:],
                     "--out", str(tmp_path / "ok.csv")]) == 0, argv
        for key, value in settings.items():
            path.write_text(json.dumps({**UNIT_CONFIG, key: value}))
            assert main([argv[0], "--config", str(path), *argv[1:]]) == 2, (argv, key)
    # a model or models entry of the wrong JSON type, or with a key nothing reads
    for cfg, argv in (
        ({"model": {"t_law": {"family": "exponential", "rate": "one"},
                    "y_law": model["y_law"]}}, ["capital", *grid]),
        ({"model": 3}, ["ruinprob", "--u", "10", *grid]),
        ({"models": 3}, ["constants"]),
        ({"models": [3]}, ["constants"]),
        ({"model": {**model, "nmae": "unit"}}, ["capital", *grid]),
        ({"model": {**model, "name": "unit"}}, ["ruinprob", "--u", "10", *grid]),
        ({"model": {**model, "seed": 3}}, ["constants"]),
        ({"models": [model, {**model, "nmae": "unit"}]}, ["constants"]),
        ({"models": [{**model, "name": 5}]}, ["constants"]),
    ):
        path.write_text(json.dumps(cfg))
        assert main([argv[0], "--config", str(path), *argv[1:]]) == 2, cfg
    # constants also reads a name in each model
    path.write_text(json.dumps({"models": [{**model, "name": "unit"}]}))
    assert main(["constants", "--config", str(path), "--out", str(tmp_path / "k.csv")]) == 0
    assert CurveTable.read_csv(tmp_path / "k.csv").metadata["models"] == ["unit"]



def test_usage_errors_print_one_error_line(config_path, tmp_path, capsys):
    grid = ["--c-start", "1", "--c-stop", "1.5", "--c-step", "0.5"]
    path = tmp_path / "cfg.json"
    model = UNIT_CONFIG["model"]
    heavy = {"t_law": model["t_law"], "y_law": {"family": "pareto", "shape": 1.5, "scale": 1.0}}
    cases = [
        (["capital", "--config", config_path, "--kind", "ultimate", "--t", "nan", *grid], None,
         2, "error: t must be a real number (finite, > 0), got nan"),
        (["capital", "--config", config_path, "--c-start", "0", "--c-stop", "1e300",
          "--c-step", "1e-300"], None, 2, "error: the grid 0.0 to 1e+300 by 1e-300 has more"),
        (["capital", "--config", str(path), *grid], {}, 2, "error: config missing field: 'model'"),
        (["capital", "--config", str(path), *grid], {"model": {"t_law": model["t_law"]}},
         2, "error: config missing field: 'y_law'"),
        (["capital", "--config", str(path), *grid], {"model": 3},
         2, "error: config 'model' must be an object, got 3"),
        (["capital", "--config", str(path), *grid],
         {"model": {"t_law": {"family": "weibull"}, "y_law": model["y_law"]}},
         2, "error: bad model config: unknown family 'weibull'"),
        (["constants", "--config", str(path)], {"model": heavy},
         4, "model incompatibility: Y law: pareto variance requires shape > 2"),
    ]
    for argv, cfg, code, line in cases:
        if cfg is not None:
            path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith(line) and err.count("\n") == 1, (argv, err)


def test_ruinprob_ig_cell_with_infinite_shape_is_na(config_path, tmp_path):
    out = tmp_path / "rp.csv"
    assert main(["ruinprob", "--config", config_path, "--u", "1e308", "--t", "200",
                 "--method", "ig", "--c-start", "0.5", "--c-stop", "0.5", "--c-step", "1",
                 "--out", str(out)]) == 0
    table = CurveTable.read_csv(out)
    assert table.rows == [[0.5, None]]
    assert table.metadata["warnings"][0].startswith("ig@c=0.5: inverse Gaussian shape")


def test_capital_clt_column_that_overflows_is_na(tmp_path):
    # c* = 1e10 and t = 1e300: (c* - c) t overflows, and each cell was written as inf
    path = tmp_path / "model.json"
    laws = {"t_law": {"family": "exponential", "rate": 1.0},
            "y_law": {"family": "exponential", "rate": 1e-10}}
    path.write_text(json.dumps({"model": laws}))
    out = tmp_path / "cap.csv"
    assert main(["capital", "--config", str(path), "--kind", "var", "--method", "clt",
                 "--t", "1e300", "--c-start", "0", "--c-stop", "1", "--c-step", "1",
                 "--out", str(out)]) == 0
    table = CurveTable.read_csv(out)
    assert table.rows == [[0.0, None], [1.0, None]]
    assert table.metadata["warnings"][0].startswith("clt@c=0: CLT capital")

def test_each_subcommand_takes_only_the_flags_it_reads():
    grid = {"--c-start", "--c-stop", "--c-step", "--method", "--paths", "--seed", "--out"}
    expected = {
        "constants": {"--config", "--out"},
        "reproduce": {"--paths", "--seed", "--out"},
        "capital": {"--config", "--alpha", "--t", "--kind", *grid},
        "ruinprob": {"--config", "--t", "--u", *grid},
    }
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    got = {
        name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert got == expected


def test_incompatible_model_cells_are_na_not_fatal(tmp_path):
    cfg = {
        "model": {
            "t_law": {"family": "mixture2", "rate1": 1.0, "rate2": 2.0, "weight": 0.6666666666666666},
            "y_law": {"family": "pareto", "shape": 4.0, "scale": 0.35},
        }
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cap.csv"
    rc = main(
        [
            "capital",
            "--config",
            str(path),
            "--kind",
            "nonruin",
            "--t",
            "200",
            "--c-start",
            "1.0",
            "--c-stop",
            "1.0",
            "--c-step",
            "1.0",
            "--method",
            "exact,ig",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    table = CurveTable.read_csv(out)
    got = dict(zip(table.columns, table.rows[0]))
    assert got["nonruin_exact"] is None
    assert got["nonruin_ig"] is not None


def test_stdout_output(config_path, capsys):
    rc = main(["constants", "--config", config_path, "--out", "-"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "c_star" in text


def test_ultimate_capital_with_high_shape_erlang_claims(tmp_path):
    # c* = 9.6; the Lundberg solve near the Erlang(5, 60) abscissa used to
    # end in a traceback (exit 1) at every c > c*
    cfg = {"model": {"t_law": {"family": "exponential", "rate": 0.8},
                     "y_law": {"family": "erlang", "rate": 5.0, "shape": 60}}}
    path = tmp_path / "erlang.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "u.csv"
    assert main(["capital", "--config", str(path), "--kind", "ultimate", "--c-start", "10",
                 "--c-stop", "12", "--c-step", "1", "--out", str(out)]) == 0
    table = CurveTable.read_csv(out)
    assert table.rows[-1] == [12.0, pytest.approx(0.5 * (72.99 + 84.84), abs=1e-2)]
    assert all(row[1] > 0.0 for row in table.rows)
