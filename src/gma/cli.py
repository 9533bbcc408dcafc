"""Command-line experiment harness.

Subcommands: landscape, single-user, multi-user, sweep, compare. Each reads
an optional JSON config (sections: scenario, optimizer, grid, experiment;
unknown keys and malformed values are rejected), applies CLI overrides,
writes a CSV plus a .meta.json sidecar, and prints a short summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .arrays import _as_int, _is_real
from .experiments import (SCHEMES, landscape, run_compare, run_metadata,
                          run_sweep, write_landscape_csv, write_metadata,
                          write_records_csv)
from .optim import GridSpec, OptimizerSettings
from .scenario import ScenarioParams, sample_scenario


class ConfigError(ValueError):
    pass


def _build(cls, section: dict, what: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    coerced = {k: tuple(v) if isinstance(v, list) else v
               for k, v in section.items()}
    return cls(**coerced)


_EXPERIMENT_KEYS = {"seeds", "schemes", "region_multiples", "element_counts",
                    "oracle_step", "ma_restarts"}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - {"scenario", "optimizer", "grid", "experiment"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    exp = config.get("experiment", {})
    bad = set(exp) - _EXPERIMENT_KEYS
    if bad:
        raise ConfigError(f"unknown experiment keys: {sorted(bad)}")
    return config


def _add_common_flags(sub):
    sub.add_argument("--config", help="JSON config path")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--seeds", type=int, help="number of trials")
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--scheme", help="comma-separated schemes (gma,fpa,ma,oracle); "
                     "oracle is a dense grid search, not a bound")
    sub.add_argument("--grid-step", type=float, help="search grid step in meters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gma-sim",
        description="Group-movable-antenna position/sparsity experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("landscape", "metric over the full (position, sparsity) grid"),
        ("single-user", "single-user optimizer (surrogate ascent) over trials"),
        ("multi-user", "multi-user alternating search over trials"),
        ("sweep", "movable-region and array-size sweep"),
        ("compare", "scheme comparison (gma/fpa/ma, oracle grid search) over trials"),
    ):
        _add_common_flags(subs.add_parser(name, help=text))
    return parser


def _setup(args):
    config = load_config(args.config)
    params = _build(ScenarioParams, config.get("scenario", {}), "scenario")
    settings = _build(OptimizerSettings, config.get("optimizer", {}), "optimizer")
    grid = _build(GridSpec, config.get("grid", {}), "grid")
    exp = dict(config.get("experiment", {}))
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    if args.seeds is not None:
        exp["seeds"] = args.seeds
    if args.scheme is not None:
        exp["schemes"] = [s.strip() for s in args.scheme.split(",") if s.strip()]
    if args.grid_step is not None:
        grid = replace(grid, step=args.grid_step)
    return params, settings, grid, exp


def _experiment_values(exp: dict) -> dict:
    """The experiment section with every value checked.

    seeds, ma_restarts and oracle_step get their defaults; a list that is
    not given stays absent, so that the command picks its own default.
    """
    trials = _as_int(exp.get("seeds", 1), "seeds")
    if trials < 1:
        raise ConfigError(f"seeds must be at least 1, got {trials}")
    restarts = _as_int(exp.get("ma_restarts", 0), "ma_restarts")
    if restarts < 0:
        raise ConfigError(f"ma_restarts must be at least 0, got {restarts}")
    step = exp.get("oracle_step")
    if step is not None and not (_is_real(step) and step > 0):
        raise ConfigError(
            f"oracle_step must be a finite number above 0, got {step!r}")
    checked = {"seeds": trials, "ma_restarts": restarts, "oracle_step": step}
    for key, ok, what in (
            ("schemes", lambda v: v in SCHEMES, f"among {SCHEMES}"),
            ("region_multiples", lambda v: _is_real(v) and v >= 0,
             "finite numbers of at least 0"),
            ("element_counts", lambda v: type(v) is int, "integers")):
        if key not in exp:
            continue
        values = exp[key]
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"{key} must be a non-empty list, got {values!r}")
        for v in values:
            if not ok(v):
                raise ConfigError(f"{key} entries must be {what}, got {v!r}")
        if len(set(values)) != len(values):
            raise ConfigError(f"{key} lists a value twice: {list(values)}")
        checked[key] = tuple(values)
    return checked


def _force_single_user(params: ScenarioParams) -> ScenarioParams:
    p = np.atleast_1d(np.asarray(params.p_tx_dbm, dtype=np.float64))
    return replace(params, K=1, p_tx_dbm=float(p[0]))


def _print_scheme_means(records):
    by_scheme: dict[str, list[float]] = {}
    for rec in records:
        by_scheme.setdefault(rec.scheme, []).append(rec.metric)
    for scheme, vals in by_scheme.items():
        print(f"{scheme}: mean metric {np.mean(vals):.6g} over {len(vals)} trials")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, settings, grid, exp = _setup(args)
        exp = _experiment_values(exp)
        trials = exp["seeds"]
        out = args.out if args.out is not None else f"gma_{args.command.replace('-', '_')}.csv"
        meta_extra = {"command": args.command, "trials": trials,
                      "master_seed": params.seed}

        if args.command == "landscape":
            scenario = sample_scenario(params, trial=0)
            result = landscape(scenario, grid_step=grid.resolve_step(
                scenario.cfg.wavelength))
            write_landscape_csv(result, out)
            write_metadata(out, run_metadata(params, settings, grid, meta_extra))
            print(f"landscape: max {result.metric_max:.6g}, "
                  f"min {result.metric_min:.6g}, "
                  f"gap {result.gap:.3f} {result.gap_units}")
            print(f"wrote {out}")
            return 0

        if args.command == "sweep":
            multiples = exp.get("region_multiples", (1, 2, 4, 8))
            counts = exp.get("element_counts", (32, 64, 128))
            schemes = exp.get("schemes", ("gma", "fpa"))
            records = run_sweep(params, settings, grid, trials,
                                region_multiples=multiples,
                                element_counts=counts, schemes=schemes)
            write_records_csv(records, out)
            write_metadata(out, run_metadata(params, settings, grid, meta_extra))
            _print_scheme_means(records)
            print(f"wrote {out} ({len(records)} records)")
            return 0

        single_user_sca = args.command == "single-user"
        if single_user_sca:
            params = _force_single_user(params)
            default_schemes = ("gma",)
        elif args.command == "multi-user":
            default_schemes = ("gma",)
        else:  # compare
            default_schemes = ("gma", "fpa", "ma")
        schemes = exp.get("schemes", default_schemes)
        records = run_compare(params, settings, grid, trials, schemes=schemes,
                              oracle_step=exp["oracle_step"],
                              single_user_sca=single_user_sca,
                              ma_restarts=exp["ma_restarts"])
        write_records_csv(records, out)
        write_metadata(out, run_metadata(params, settings, grid, meta_extra))
        _print_scheme_means(records)
        print(f"wrote {out} ({len(records)} records)")
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
