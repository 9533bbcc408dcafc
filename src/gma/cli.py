"""Command-line experiment harness.

Subcommands: landscape, single-user, multi-user, sweep, compare. Each reads
an optional JSON config (sections: scenario, optimizer, grid, experiment;
unknown keys, malformed values and experiment values the command does not
read are rejected), lays the CLI flags over it, writes a CSV plus a
.meta.json sidecar that records every value the run read, and prints a
short summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .experiments import (COMPARE_SCHEMES, SWEEP_SCHEMES, ExperimentSettings,
                          landscape, run_compare, run_metadata, run_sweep,
                          write_landscape_csv, write_metadata,
                          write_records_csv)
from .optim import GridSpec, OptimizerSettings
from .scenario import ScenarioParams, sample_scenario

_SECTIONS = {"scenario": ScenarioParams, "optimizer": OptimizerSettings,
             "grid": GridSpec, "experiment": ExperimentSettings}
# each command's schemes when none are given
_DEFAULT_SCHEMES = {"single-user": ("gma",), "multi-user": ("gma",),
                    "compare": COMPARE_SCHEMES, "sweep": SWEEP_SCHEMES}
# the experiment values each command reads; giving any other is an error
_TRIAL_VALUES = ("seeds", "schemes", "oracle_step", "ma_restarts")
_READS = {"landscape": (),
          "sweep": tuple(f.name for f in fields(ExperimentSettings))}


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
    unknown = set(config) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, section in config.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name} must be a JSON object")
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
        ("single-user", "single-user alternating search over trials"),
        ("multi-user", "multi-user alternating search over trials"),
        ("sweep", "movable-region and array-size sweep"),
        ("compare", "scheme comparison (gma/fpa/ma, oracle grid search) over trials"),
    ):
        _add_common_flags(subs.add_parser(name, help=text))
    return parser


def _setup(args):
    """(params, settings, grid, experiment): each config section with its
    command-line flags laid over it, built into its dataclass."""
    config = load_config(args.config)
    schemes = None
    if args.scheme is not None:
        schemes = [s.strip() for s in args.scheme.split(",") if s.strip()]
    flags = {"scenario": {"seed": args.seed}, "grid": {"step": args.grid_step},
             "experiment": {"seeds": args.seeds, "schemes": schemes}}
    built = []
    for name, cls in _SECTIONS.items():
        section = dict(config.get(name, {}))
        section.update((k, v) for k, v in flags.get(name, {}).items()
                       if v is not None)
        built.append(_build(cls, section, name))
    return built


def _force_single_user(params: ScenarioParams) -> ScenarioParams:
    p = np.atleast_1d(np.asarray(params.p_tx_dbm, dtype=np.float64))
    return replace(params, K=1, p_tx_dbm=float(p[0]))


def _print_scheme_means(records):
    by_scheme: dict[str, list] = {}
    for rec in records:
        by_scheme.setdefault(rec.scheme, []).append(rec)
    for scheme, recs in by_scheme.items():
        print(f"{scheme}: mean metric {np.mean([r.metric for r in recs]):.6g} "
              f"over {len(recs)} trials")
    if "gma" in by_scheme and "oracle" in by_scheme:
        single = records[0].K == 1
        gaps = [10.0 * np.log10(o.metric / g.metric) if single else o.metric - g.metric
                for g, o in zip(by_scheme["gma"], by_scheme["oracle"])]
        print(f"oracle - gma gap per trial ({'dB' if single else 'bits/s/Hz'}): "
              f"median {np.median(gaps):.4f}, max {max(gaps):.4f}, "
              f"{sum(gap > 0.01 for gap in gaps)} of {len(gaps)} above 0.01")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, settings, grid, exp = _setup(args)
        reads = _READS.get(args.command, _TRIAL_VALUES)
        unset = ExperimentSettings()
        for f in fields(exp):
            if f.name not in reads and getattr(exp, f.name) != getattr(unset, f.name):
                raise ConfigError(
                    f"{args.command} does not read the experiment value {f.name}")
        if exp.schemes is None:
            exp = replace(exp, schemes=_DEFAULT_SCHEMES.get(args.command))
        out = args.out if args.out is not None else f"gma_{args.command.replace('-', '_')}.csv"
        meta_extra = {"command": args.command, "trials": exp.seeds,
                      "master_seed": params.seed,
                      "experiment": {name: getattr(exp, name) for name in reads}}

        if args.command == "landscape":
            scenario = sample_scenario(params, trial=0)
            result = landscape(scenario, grid_step=grid.step)
            write_landscape_csv(result, out)
            write_metadata(out, run_metadata(params, settings, grid, meta_extra))
            print(f"landscape: max {result.metric_max:.6g}, "
                  f"min {result.metric_min:.6g}, "
                  f"gap {result.gap:.3f} {result.gap_units}")
            print(f"wrote {out}")
            return 0

        if args.command == "sweep":
            records = run_sweep(params, settings, grid, exp.seeds,
                                region_multiples=exp.region_multiples,
                                element_counts=exp.element_counts,
                                schemes=exp.schemes,
                                oracle_step=exp.oracle_step,
                                ma_restarts=exp.ma_restarts)
        else:
            single_user_sca = args.command == "single-user"
            if single_user_sca:
                params = _force_single_user(params)
            records = run_compare(params, settings, grid, exp.seeds,
                                  schemes=exp.schemes,
                                  oracle_step=exp.oracle_step,
                                  single_user_sca=single_user_sca,
                                  ma_restarts=exp.ma_restarts)
        write_records_csv(records, out)
        write_metadata(out, run_metadata(params, settings, grid, meta_extra))
        _print_scheme_means(records)
        print(f"wrote {out} ({len(records)} records)")
        return 0
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
