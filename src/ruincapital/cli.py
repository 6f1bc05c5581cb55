"""Command-line front end.

Subcommands:

* ``constants``: derived model constants (c*, M, D^2, ...) for one or more
  configured models;
* ``reproduce <preset>``: emit the CSV files and verification sidecar for
  a named reference figure or table;
* ``capital``: capitals on a premium-rate grid for the requested methods;
* ``ruinprob``: finite-horizon ruin probabilities on a premium-rate grid,
  one ``capital.ruin_curve``.

Each subcommand takes only the flags it reads (``_FLAGS`` holds their
help text) and only the config keys it reads (``_CONFIG_KEYS``, and
``_SECTION_KEYS`` inside the ``c_grid`` and ``sim`` sections); any other
flag or key is a usage error, and so are ``--paths`` and ``--seed``
without the ``mc`` method.  ``capital --kind ultimate`` has one route, so
it takes no method but the default ``exact``.
Configuration comes from a JSON file (``--config``) and/or flags; flags
override file values.  Output is CSV with '#'-prefixed metadata comment
lines.  Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 model
incompatibility.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, capital, presets
from .capital import SolveSpec
from .dist import distribution_from_config
from .errors import (
    BackendIncompatibleError,
    BracketError,
    ConstantsUnavailableError,
    DomainError,
    IntegrationError,
    NoAdjustmentCoefficientError,
    UnsupportedDistributionError,
)
from .model import RiskModel, c_grid_range
from .montecarlo import SimConfig
from .table import CurveTable

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INCOMPATIBLE = 4

# capital method -> SolveSpec backend
_BACKENDS = {"exact": "exact_exp", "ig": "inverse_gaussian", "clt": "clt", "mc": "monte_carlo"}
# the config keys each subcommand reads, and the keys read inside a section
_CONFIG_KEYS = {
    "constants": ("model", "models"),
    "capital": ("model", "alpha", "t", "kind", "methods", "c_grid", "sim"),
    "ruinprob": ("model", "t", "u", "methods", "c_grid", "sim"),
}
_SECTION_KEYS = {"c_grid": ("start", "stop", "step"), "sim": ("n_paths", "seed")}


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_config(args) -> dict:
    """The ``--config`` object; a usage error for a key that ``args.command`` never reads."""
    path = args.config
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read config: {exc}", EXIT_USAGE) from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"config is not valid JSON: {exc}", EXIT_USAGE) from exc
    if not isinstance(cfg, dict):
        raise _CliError("config root must be an object", EXIT_USAGE)
    for name, allowed in [(None, _CONFIG_KEYS[args.command]), *_SECTION_KEYS.items()]:
        entry = cfg if name is None else _section(name, cfg.get(name, {}))
        unread = [key for key in entry if key not in allowed]
        if unread:
            where = "config" if name is None else f"config {name!r}"
            raise _CliError(
                f"{where} has keys {unread} that {args.command} never reads; "
                f"it reads {list(allowed)}",
                EXIT_USAGE,
            )
    return cfg


def _section(name: str, value, kind=dict):
    """``value`` of config entry ``name``; a usage error unless it has the JSON type ``kind``."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise _CliError(f"config {name!r} must be {noun}, got {value!r}", EXIT_USAGE)
    return value


def _model_from_config(cfg: dict) -> RiskModel:
    try:
        spec = _section("model", cfg["model"])
        t_law = distribution_from_config(spec["t_law"])
        y_law = distribution_from_config(spec["y_law"])
    except KeyError as exc:
        raise _CliError(f"config missing field: {exc}", EXIT_USAGE) from exc
    except DomainError as exc:
        raise _CliError(f"bad model config: {exc}", EXIT_USAGE) from exc
    return RiskModel(t_law, y_law)


def _merged(cfg: dict, key: str, flag_value, default=None):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def _number(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise _CliError(f"{name} must be a number, got {value!r}", EXIT_USAGE) from None


def _c_grid(cfg: dict, args) -> list[float]:
    grid = dict(_section("c_grid", cfg.get("c_grid", {})))
    if args.c_start is not None:
        grid["start"] = args.c_start
    if args.c_stop is not None:
        grid["stop"] = args.c_stop
    if args.c_step is not None:
        grid["step"] = args.c_step
    try:
        ends = [_number(f"c_grid {key}", grid[key]) for key in ("start", "stop", "step")]
    except KeyError as exc:
        raise _CliError(
            "premium grid incomplete: need --c-start/--c-stop/--c-step or "
            "a c_grid config section",
            EXIT_USAGE,
        ) from exc
    return c_grid_range(*ends)


def _sim_config(cfg: dict, args, t: float, methods: list):
    """The Monte Carlo settings when ``mc`` is among the methods, else None.

    ``--paths`` and ``--seed`` are a usage error without ``mc``.
    """
    if "mc" not in methods:
        if args.paths is not None or args.seed is not None:
            raise _CliError("--paths and --seed are read only with method mc", EXIT_USAGE)
        return None
    sim = _section("sim", cfg.get("sim", {}))
    n_paths = args.paths if args.paths is not None else sim.get("n_paths", 1000)
    seed = args.seed if args.seed is not None else sim.get("seed", 20240817)
    return SimConfig(n_paths=n_paths, seed=seed, t=t)


def _emit(table: CurveTable, out_path) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(table.to_text())
    else:
        table.write_csv(out_path)


def _echo_config(table: CurveTable, cfg: dict, args_dict: dict) -> None:
    table.metadata["config"] = cfg
    table.metadata["flags"] = {
        k: v for k, v in args_dict.items() if v is not None and k != "func"
    }
    table.metadata["version"] = __version__


def cmd_constants(args) -> int:
    cfg = _load_config(args)
    if "models" in cfg and "model" in cfg:
        raise _CliError("config has both 'model' and 'models'; constants reads one", EXIT_USAGE)
    if "models" in cfg:
        entries = _section("models", cfg["models"], list)
    elif "model" in cfg:
        entries = [cfg["model"]]
    else:
        raise _CliError("config must contain 'model' or 'models'", EXIT_USAGE)
    named = []
    for i, spec in enumerate(entries):
        m = _model_from_config({"model": spec})
        label = spec.get("name", f"model{i + 1}")
        named.append((label, m))
    try:
        table = presets.constants_table(named)
    except ConstantsUnavailableError as exc:
        raise _CliError(str(exc), EXIT_INCOMPATIBLE) from exc
    _echo_config(table, cfg, vars(args))
    _emit(table, args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    n_paths = args.paths if args.paths is not None else 1000
    seed = args.seed if args.seed is not None else 20240817
    try:
        files, sidecar = presets.run_preset(args.preset, n_paths=n_paths, seed=seed)
    except DomainError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    outdir = Path(args.out) if args.out else Path.cwd()
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, table in files.items():
        table.metadata.setdefault("preset", args.preset)
        table.metadata.setdefault("version", __version__)
        path = outdir / f"{args.preset}_{name}.csv"
        table.write_csv(path)
        written.append(str(path))
    sidecar_path = outdir / f"{args.preset}_sidecar.json"
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(str(sidecar_path))
    for path in written:
        print(path)
    return EXIT_OK


def _parse_methods(cfg, args) -> list:
    raw = _merged(cfg, "methods", args.method, "exact")
    if isinstance(raw, str):
        raw = [s.strip() for s in raw.split(",") if s.strip()]
    return _section("methods", raw, list)


def cmd_capital(args) -> int:
    cfg = _load_config(args)
    m = _model_from_config(cfg)
    alpha = _number("alpha", _merged(cfg, "alpha", args.alpha, 0.05))
    t = _number("t", _merged(cfg, "t", args.t, 200.0))
    kind = _merged(cfg, "kind", args.kind, "nonruin")
    if kind not in ("var", "nonruin", "ultimate"):
        raise _CliError(f"unknown capital kind {kind!r}", EXIT_USAGE)
    methods = _parse_methods(cfg, args)
    # the ultimate capital has one route: a closed form or an enclosure
    allowed = ["exact"] if kind == "ultimate" else list(_BACKENDS)
    if any(mth not in allowed for mth in methods):
        raise _CliError(f"{kind} capital methods are among {allowed}, got {methods}", EXIT_USAGE)
    grid = _c_grid(cfg, args)

    columns = ["c"] + [f"{kind}_{mth}" for mth in methods]
    if "mc" in methods:
        columns.append("mc_stderr")
    warnings_log: list[str] = []
    table = CurveTable(
        columns=columns,
        metadata={"alpha": alpha, "t": t, "kind": kind, "warnings": warnings_log},
    )
    sim = _sim_config(cfg, args, t, methods)
    if sim is not None:
        table.metadata["seed"] = sim.seed
        table.metadata["n_paths"] = sim.n_paths
    data = []
    stderr = [None] * len(grid)
    for mth in methods:
        spec = SolveSpec(backend=_BACKENDS[mth], sim=sim)
        curve = capital.capital_curve(m, alpha, t, grid, spec, kinds=(kind,))
        data.append(curve.column(kind))
        # capital_curve logs "<kind>@c=..."; NA reasons are keyed by method
        warnings_log += [mth + w[len(kind):] for w in curve.metadata["warnings"]]
        if mth == "mc":
            stderr = curve.metadata.get("mc_stderr", {}).get(kind, stderr)
    if "mc" in methods:
        data.append(stderr)
    for i, c in enumerate(grid):
        table.append([c] + [col[i] for col in data])
    _echo_config(table, cfg, vars(args))
    _emit(table, args.out)
    return EXIT_OK


def cmd_ruinprob(args) -> int:
    cfg = _load_config(args)
    m = _model_from_config(cfg)
    t = _number("t", _merged(cfg, "t", args.t, 200.0))
    u = _merged(cfg, "u", args.u)
    if u is None:
        raise _CliError("ruinprob requires --u (initial capital)", EXIT_USAGE)
    u = _number("u", u)
    methods = _parse_methods(cfg, args)
    grid = _c_grid(cfg, args)
    sim = _sim_config(cfg, args, t, methods)
    table = capital.ruin_curve(m, u, t, grid, methods, sim)
    table.columns = [f"ruin_{col}" if col in methods else col for col in table.columns]
    _echo_config(table, cfg, vars(args))
    _emit(table, args.out)
    return EXIT_OK


_FLAGS = {
    "--config": dict(help="JSON configuration file"),
    "--alpha": dict(type=float, help="target probability level"),
    "--t": dict(type=float, help="time horizon"),
    "--kind": dict(help="var, nonruin or ultimate (default nonruin)"),
    "--u": dict(type=float, help="initial capital"),
    "--c-start": dict(type=float, help="grid start"),
    "--c-stop": dict(type=float, help="grid stop"),
    "--c-step": dict(type=float, help="grid step"),
    "--method": dict(help="comma-separated: exact, ig, mc and clt (capital) or cramer (ruinprob)"),
    "--paths": dict(type=int, help="Monte Carlo path count"),
    "--seed": dict(type=int, help="Monte Carlo seed"),
    "--out": dict(help="output file ('-' for stdout) or directory"),
}
_CURVE_FLAGS = ("--c-start", "--c-stop", "--c-step", "--method", "--paths", "--seed", "--out")


def _add_flags(p, *names):
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruincapital",
        description="risk capitals and ruin probabilities for compound "
        "renewal models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="derived model constants")
    _add_flags(p, "--config", "--out")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("reproduce", help="reference figure/table presets")
    p.add_argument("preset", help=f"one of: {', '.join(presets.PRESET_IDS)}")
    _add_flags(p, "--paths", "--seed", "--out")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("capital", help="capital curves on a premium grid")
    _add_flags(p, "--config", "--alpha", "--t", "--kind", *_CURVE_FLAGS)
    p.set_defaults(func=cmd_capital)

    p = sub.add_parser("ruinprob", help="ruin probabilities on a premium grid")
    _add_flags(p, "--config", "--t", "--u", *_CURVE_FLAGS)
    p.set_defaults(func=cmd_ruinprob)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (IntegrationError, BracketError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (
        BackendIncompatibleError,
        UnsupportedDistributionError,
        ConstantsUnavailableError,
        NoAdjustmentCoefficientError,
    ) as exc:
        print(f"model incompatibility: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
