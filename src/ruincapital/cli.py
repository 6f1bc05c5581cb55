"""Command-line front end.

Subcommands:

* ``constants``: derived model constants (c*, M, D^2, ...) for one or more
  configured models;
* ``reproduce <preset>``: emit the CSV files and verification sidecar for
  a named reference figure or table;
* ``capital``: capitals on a premium-rate grid for the requested methods;
* ``ruinprob``: finite-horizon ruin probabilities on a premium-rate grid,
  one ``capital.ruin_curve``.

The JSON file of ``--config`` holds the ``model`` (``models`` for
``constants``), and every run setting is a flag.  Each subcommand takes
only the flags it reads (``_FLAGS`` holds their help text); any other flag,
config key or ``model`` key is a usage error, and so are ``--paths`` and
``--seed`` without the ``mc`` method.  ``capital --kind ultimate`` has one
route, so it takes no method but the default ``exact``.  Output is CSV
with '#'-prefixed metadata comment lines.  Exit codes: 0 success, 2 usage
error, 3 numeric failure, 4 model incompatibility.
"""

from __future__ import annotations

import argparse
import functools
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


def _load_config(args) -> dict:
    """The ``--config`` object; a usage error for any key but the model's."""
    path = args.config
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DomainError("config root must be an object")
    allowed = ["model", "models"] if args.command == "constants" else ["model"]
    unread = [key for key in cfg if key not in allowed]
    if unread:
        raise DomainError(
            f"config has keys {unread}; it holds only {allowed}, "
            "and every run setting is a flag"
        )
    return cfg


def _section(name: str, value, kind=dict):
    """``value`` of config entry ``name``; a usage error unless it has the JSON type ``kind``."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise DomainError(f"config {name!r} must be {noun}, got {value!r}")
    return value


def _model_from_config(cfg: dict, keys=("t_law", "y_law")) -> RiskModel:
    """The model of ``cfg["model"]``; a usage error for a key there outside ``keys``."""
    try:
        spec = _section("model", cfg["model"])
        unread = [key for key in spec if key not in keys]
        if unread:
            raise DomainError(f"config 'model' has keys {unread}; it reads {list(keys)}")
        laws = spec["t_law"], spec["y_law"]
    except KeyError as exc:
        raise DomainError(f"config missing field: {exc}") from exc
    try:
        t_law, y_law = map(distribution_from_config, laws)
    except DomainError as exc:
        raise DomainError(f"bad model config: {exc}") from exc
    return RiskModel(t_law, y_law)


def _c_grid(args) -> list[float]:
    ends = (args.c_start, args.c_stop, args.c_step)
    if None in ends:
        raise DomainError("premium grid incomplete: need --c-start, --c-stop and --c-step")
    return c_grid_range(*ends)


def _sim_config(args, t: float, methods: list):
    """The Monte Carlo settings when ``mc`` is among the methods, else None.

    ``--paths`` and ``--seed`` are a usage error without ``mc``.
    """
    if "mc" not in methods:
        if args.paths is not None or args.seed is not None:
            raise DomainError("--paths and --seed are read only with method mc")
        return None
    n_paths = presets.DEFAULT_PATHS if args.paths is None else args.paths
    seed = presets.DEFAULT_SEED if args.seed is None else args.seed
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
        raise DomainError("config has both 'model' and 'models'; constants reads one")
    if "models" in cfg:
        entries = _section("models", cfg["models"], list)
    elif "model" in cfg:
        entries = [cfg["model"]]
    else:
        raise DomainError("config must contain 'model' or 'models'")
    named = []
    for i, spec in enumerate(entries):
        m = _model_from_config({"model": spec}, keys=("t_law", "y_law", "name"))
        label = spec.get("name", f"model{i + 1}")
        if not isinstance(label, str):
            raise DomainError(f"model name must be a string, got {label!r}")
        named.append((label, m))
    table = presets.constants_table(named)
    _echo_config(table, cfg, vars(args))
    _emit(table, args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    n_paths = presets.DEFAULT_PATHS if args.paths is None else args.paths
    seed = presets.DEFAULT_SEED if args.seed is None else args.seed
    files, sidecar = presets.run_preset(args.preset, n_paths=n_paths, seed=seed)
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


def _parse_methods(args) -> list:
    """The ``--method`` list; a usage error when it is empty or names a method twice."""
    raw = "exact" if args.method is None else args.method
    methods = [s.strip() for s in raw.split(",") if s.strip()]
    if not methods or len(set(methods)) < len(methods):
        raise DomainError(f"--method needs one or more distinct methods, got {raw!r}")
    return methods


def cmd_capital(args) -> int:
    cfg = _load_config(args)
    m = _model_from_config(cfg)
    alpha = 0.05 if args.alpha is None else args.alpha
    t = 200.0 if args.t is None else args.t
    kind = "nonruin" if args.kind is None else args.kind
    if kind not in ("var", "nonruin", "ultimate"):
        raise DomainError(f"unknown capital kind {kind!r}")
    methods = _parse_methods(args)
    # the ultimate capital has one route: the adjustment-coefficient enclosure
    allowed = ["exact"] if kind == "ultimate" else list(_BACKENDS)
    if any(mth not in allowed for mth in methods):
        raise DomainError(f"{kind} capital methods are among {allowed}, got {methods}")
    grid = _c_grid(args)
    sim = _sim_config(args, t, methods)

    metadata = {"alpha": alpha, "t": t, "kind": kind, "warnings": []}
    if sim is not None:
        metadata.update(seed=sim.seed, n_paths=sim.n_paths)
    columns = {"c": grid}
    stderr = [None] * len(grid)
    for mth in methods:
        spec = SolveSpec(backend=_BACKENDS[mth], sim=sim)
        curve = capital.capital_curve(m, alpha, t, grid, spec, kinds=(kind,))
        columns[f"{kind}_{mth}"] = curve.column(kind)
        # capital_curve logs "<kind>@c=..."; NA reasons are keyed by method
        metadata["warnings"] += [mth + w[len(kind):] for w in curve.metadata["warnings"]]
        if mth == "mc":
            stderr = curve.metadata.get("mc_stderr", {}).get(kind, stderr)
    if "mc" in methods:
        columns["mc_stderr"] = stderr
    table = CurveTable.from_columns(columns, metadata)
    _echo_config(table, cfg, vars(args))
    _emit(table, args.out)
    return EXIT_OK


def cmd_ruinprob(args) -> int:
    cfg = _load_config(args)
    m = _model_from_config(cfg)
    t = 200.0 if args.t is None else args.t
    if args.u is None:
        raise DomainError("ruinprob requires --u (initial capital)")
    methods = _parse_methods(args)
    grid = _c_grid(args)
    sim = _sim_config(args, t, methods)
    table = capital.ruin_curve(m, args.u, t, grid, methods, sim)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    ``parse_args`` keeps no state between calls (each returns a new
    namespace).  A build costs about a millisecond, mostly in argparse's
    help formatter, so the parser is built once per process, and not at
    import.
    """
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
