"""Experiment orchestration: landscape scans, scheme comparisons, region
sweeps, CSV emission, and run metadata.

CSV rows carry one trial-scheme result each and reproduce bit-identically
for a given configuration and seed, except for the wall_ms timing column.
A sidecar JSON file records every default and modeling decision (bandwidth,
path-gain model, fixed-array position, RNG scheme) plus a timestamp, so the
CSV itself stays deterministic.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .arrays import ArrayConfig, _as_int, _is_real
from .baselines import (exhaustive_search, fpa_metric, gma_element_positions,
                        layout_metric, ma_optimize)
from .combining import PointScores, metric_profiles, objective_metric
from .multiuser import optimize_multiuser, scan
from .optim import GridSpec, OptimizerSettings, position_grid
from .scenario import (PATH_GAIN_MODEL, RNG_SCHEME, Scenario, ScenarioParams,
                       sample_scenario)
from .sca import optimize_single_user

CSV_COLUMNS = ("seed", "scheme", "K", "M", "N", "Y_over_D", "eta_max",
               "y_star", "eta_star", "metric", "evals", "wall_ms")
SCHEMES = ("gma", "fpa", "ma", "oracle")
COMPARE_SCHEMES = ("gma", "fpa", "ma")
SWEEP_SCHEMES = ("gma", "fpa")
REGION_MULTIPLES = (1, 2, 4, 8)
ELEMENT_COUNTS = (32, 64, 128)
COMPACT_D_MAX_ELEMENTS = 32  # reference compact array for region sweeps
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class ExperimentSettings:
    """A run's trial count, schemes and sweep axes. schemes None means the
    command's own default, oracle_step None wavelength/1000."""

    seeds: int = 1
    schemes: tuple[str, ...] | None = None
    region_multiples: tuple[float, ...] = REGION_MULTIPLES
    element_counts: tuple[int, ...] = ELEMENT_COUNTS
    oracle_step: float | None = None
    ma_restarts: int = 0

    def __post_init__(self):
        for name, least in (("seeds", 1), ("ma_restarts", 0)):
            value = _as_int(getattr(self, name), name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            object.__setattr__(self, name, value)
        step = self.oracle_step
        if step is not None and not (_is_real(step) and step > 0):
            raise ValueError(
                f"oracle_step must be a finite number above 0, got {step!r}")
        for name, ok, what in (
                ("schemes", lambda v: v in SCHEMES, f"among {SCHEMES}"),
                ("region_multiples", lambda v: _is_real(v) and v >= 0,
                 "finite numbers of at least 0"),
                ("element_counts", lambda v: type(v) is int, "integers")):
            values = getattr(self, name)
            if values is None and name == "schemes":
                continue
            if not isinstance(values, (list, tuple)) or not values:
                shown = list(values) if isinstance(values, tuple) else values
                raise ValueError(
                    f"{name} must be a non-empty list, got {shown!r}")
            for v in values:
                if not ok(v):
                    raise ValueError(f"{name} entries must be {what}, got {v!r}")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} lists a value twice: {list(values)}")
            object.__setattr__(self, name, tuple(values))


@dataclass(frozen=True)
class LandscapeResult:
    """Full (y, eta) metric table with its spread summary."""

    y_values: np.ndarray
    eta_values: tuple[int, ...]
    metric: np.ndarray  # shape (len(eta_values), len(y_values))
    metric_max: float
    metric_min: float
    gap: float
    gap_units: str

    def rows(self):
        for i, eta in enumerate(self.eta_values):
            for j, y in enumerate(self.y_values):
                yield float(y), int(eta), float(self.metric[i, j])


def landscape(scenario: Scenario,
              grid_step: float | None = None) -> LandscapeResult:
    """Evaluate the metric over the full product of the region's positions
    (a grid_step grid, wavelength/16 by default) and feasible sparsities.

    The gap is reported in dB for a single user (SNR) and in bits/s/Hz for
    several (sum rate).
    """
    cfg = scenario.cfg
    step = GridSpec(grid_step).resolve_step(cfg.wavelength)
    y_grid = position_grid(cfg.y_min, cfg.y_max, step)
    eta_set = cfg.feasible_etas()
    if not eta_set:
        raise ValueError("movable region admits no feasible sparsity level")
    table = np.empty((len(eta_set), y_grid.size))
    for i, (eta, vals) in enumerate(metric_profiles(
            y_grid, eta_set, scenario.users, scenario.powers, cfg)):
        table[i] = vals
        table[i, y_grid > cfg.position_bounds(eta)[1]] = np.nan
    vmax = float(np.nanmax(table))
    vmin = float(np.nanmin(table))
    if scenario.K == 1:
        gap = 10.0 * np.log10(vmax / vmin) if vmin > 0 else np.inf
        units = "dB"
    else:
        gap = vmax - vmin
        units = "bits/s/Hz"
    return LandscapeResult(y_values=y_grid, eta_values=tuple(eta_set),
                           metric=table, metric_max=vmax, metric_min=vmin,
                           gap=float(gap), gap_units=units)


@dataclass(frozen=True)
class TrialRecord:
    """One scheme's result on one trial; layout is kept for MA re-evaluation.

    seed holds the trial index (Scenario.trial), which the CSV writes in its
    seed column; the master seed is Scenario.seed, recorded in the sidecar.
    wall_ms times the scheme's own work. On a sweep row it leaves out the
    trial's shared lattice scan and the points that an earlier problem of
    the same trial scored into the memo (see run_sweep).
    """

    seed: int
    scheme: str
    K: int
    M: int
    N: int
    Y_over_D: float
    eta_max: int
    y_star: float
    eta_star: int | None
    metric: float
    evals: int
    wall_ms: float
    layout: tuple[float, ...] | None = None

    def csv_row(self) -> list:
        row = [self.seed, self.scheme, self.K, self.M, self.N, self.Y_over_D,
               self.eta_max, self.y_star,
               "" if self.eta_star is None else self.eta_star,
               self.metric, self.evals, self.wall_ms]
        return [str(v) for v in row]


def reevaluate_record(record: TrialRecord, params: ScenarioParams) -> float:
    """Metric recomputed from the stored configuration and trial seed."""
    scenario = sample_scenario(params, record.seed)
    if record.scheme == "ma":
        return layout_metric(np.asarray(record.layout), scenario.users,
                             scenario.powers, scenario.cfg)
    return objective_metric(record.y_star, record.eta_star, scenario.users,
                            scenario.powers, scenario.cfg)


def run_trial_schemes(scenario: Scenario, schemes,
                      settings: OptimizerSettings, grid: GridSpec,
                      oracle_step: float | None = None,
                      single_user_sca: bool = False,
                      extra_candidates=(), ma_restarts: int = 0,
                      lattice=None,
                      scores: PointScores | None = None) -> list[TrialRecord]:
    """Run the requested schemes on one scenario.

    K picks the GMA search: sca.optimize_single_user for one user, whose
    Gram terms the oracle reuses (its wall_ms leaves them out), and
    optimize_multiuser for several; single_user_sca only asserts K = 1.
    lattice, when given, is the multi-user GMA's scan result for this
    scenario (see optimize_multiuser). scores is the trial's memo of the
    scenario's (y, eta) values, which the multi-user GMA and FPA read; None
    makes one for this call, dropped when it returns. The MA benchmark
    warm-starts from the group-array solution's element positions when one
    was computed, which pins the ordering MA >= GMA >= FPA per trial.
    """
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if single_user_sca and "gma" in schemes and scenario.K != 1:
        raise ValueError("the SCA optimizer handles a single user")
    cfg, users, powers = scenario.cfg, scenario.users, scenario.powers
    scores = PointScores.over(users, powers, scores)
    levels: dict = {}  # one user's Gram terms, shared by gma and oracle
    records = []
    gma_solution = None
    for scheme in schemes:
        t0 = time.perf_counter()
        layout = None
        if scheme == "gma":
            if scenario.K == 1:
                sol = optimize_single_user(
                    users[0], settings, cfg, p_bar=float(powers.p_bar[0]),
                    grid=grid, extra_candidates=extra_candidates, _levels=levels)
                # stored through the shared kernel: re-evaluates bit-identically
                metric = objective_metric(sol.y_star, sol.eta_star, users, powers, cfg)
            else:
                sol = optimize_multiuser(users, powers, cfg, grid, settings,
                                         extra_candidates=extra_candidates,
                                         lattice=lattice, scores=scores)
                metric = sol.objective
            gma_solution = sol
            y, eta, evals = sol.y_star, sol.eta_star, sol.evals
        elif scheme == "fpa":
            y, eta, evals = cfg.y_min, 1, 1
            metric = fpa_metric(users, powers, cfg, scores)
        elif scheme == "ma":
            init = None
            if gma_solution is not None:
                init = gma_element_positions(gma_solution.y_star,
                                             gma_solution.eta_star, cfg)
            ma, metric, evals = ma_optimize(users, powers, cfg, grid, settings,
                                            init=init, restarts=ma_restarts)
            y, eta, layout = float(ma.positions[0]), None, tuple(ma.positions)
        else:  # oracle
            step = oracle_step if oracle_step is not None else cfg.wavelength / 1000.0
            y, eta, _, evals = exhaustive_search(users, powers, cfg, step,
                                                 _levels=levels)
            # record through the shared kernel for bit-identical re-evaluation
            metric = objective_metric(y, eta, users, powers, cfg)
        wall = (time.perf_counter() - t0) * 1e3
        records.append(TrialRecord(
            seed=scenario.trial, scheme=scheme, K=scenario.K, M=cfg.M, N=cfg.N,
            Y_over_D=(cfg.y_max - cfg.y_min) / cfg.physical_aperture,
            eta_max=cfg.eta_max, y_star=y, eta_star=eta, metric=metric,
            evals=evals, wall_ms=wall, layout=layout))
    return records


def run_compare(params: ScenarioParams, settings: OptimizerSettings,
                grid: GridSpec, trials: int, schemes=COMPARE_SCHEMES,
                oracle_step: float | None = None,
                single_user_sca: bool = False,
                ma_restarts: int = 0) -> list[TrialRecord]:
    """Run the scheme comparison over independent trials."""
    records = []
    for t in range(trials):
        scenario = sample_scenario(params, t)
        records.extend(run_trial_schemes(
            scenario, schemes, settings, grid, oracle_step=oracle_step,
            single_user_sca=single_user_sca, ma_restarts=ma_restarts))
    return records


def run_sweep(params: ScenarioParams, settings: OptimizerSettings,
              grid: GridSpec, trials: int,
              region_multiples=REGION_MULTIPLES,
              element_counts=ELEMENT_COUNTS,
              schemes=SWEEP_SCHEMES, oracle_step: float | None = None,
              ma_restarts: int = 0) -> list[TrialRecord]:
    """Sweep the movable-region size and the physical element count.

    Regions are multiples of the compact reference aperture (32-element
    array), anchored at zero, so the evaluated grids nest as the region
    grows. With gma, each run also receives the gma solutions found for the
    next-smaller region and element count as injected candidates; together
    these make the per-trial metric monotone along both sweep axes.
    oracle_step and ma_restarts reach every problem's run_trial_schemes.

    The problems of a trial share their users and powers, so on several
    users one multiuser.scan per trial scores all their lattices, and each
    GMA run starts from its share. After the scan, the trial's problems share one
    combining.PointScores memo, so a (y, eta) point is scored once per
    trial; it is dropped when the trial ends. A row's wall_ms therefore
    leaves out both the shared scan and the points an earlier problem of
    the trial scored, while its evals still counts every point it compared.
    """
    d = params.d
    d_max = (COMPACT_D_MAX_ELEMENTS - 1) * d
    multiples = sorted(region_multiples)
    counts = sorted(element_counts)
    cfgs = [(m, mult, replace(params, M=m, region=(0.0, mult * d_max)).array_config())
            for m in counts for mult in multiples]
    records = []
    for t in range(trials):
        solutions: dict[tuple[int, float], tuple[float, int]] = {}
        # sample_scenario's draws depend on neither M nor the region: every
        # cell is the trial's one draw with the cell's own array
        drawn = sample_scenario(replace(params, M=counts[0],
                                        region=(0.0, multiples[0] * d_max)), t)
        cells = [(m, mult, replace(drawn, cfg=cfg)) for m, mult, cfg in cfgs]
        lattices = [None] * len(cells)
        first = cells[0][2]
        if "gma" in schemes and first.K > 1:
            lattices = scan([(sc.cfg.feasible_etas(), sc.cfg) for *_, sc in cells],
                            grid.resolve_step(params.wavelength), first.users,
                            first.powers)
        scores = PointScores(first.users, first.powers)
        for (m, mult, scenario), lattice in zip(cells, lattices):
            extra = []
            m_idx, r_idx = counts.index(m), multiples.index(mult)
            if r_idx > 0 and "gma" in schemes:
                extra.append(solutions[(m, multiples[r_idx - 1])])
            if m_idx > 0 and "gma" in schemes:
                extra.append(solutions[(counts[m_idx - 1], mult)])
            recs = run_trial_schemes(scenario, schemes, settings, grid,
                                     oracle_step=oracle_step,
                                     extra_candidates=extra,
                                     ma_restarts=ma_restarts, lattice=lattice,
                                     scores=scores)
            for r in recs:
                if r.scheme == "gma":
                    solutions[(m, mult)] = (r.y_star, r.eta_star)
            records.extend(recs)
    return records


def write_records_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.csv_row())


def write_landscape_csv(result: LandscapeResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("y", "eta", "metric"))
        for y, eta, metric in result.rows():
            writer.writerow((str(y), str(eta), str(metric)))


def run_metadata(params: ScenarioParams, settings: OptimizerSettings,
                 grid: GridSpec, extra: dict | None = None) -> dict:
    """Everything needed to interpret and reproduce a CSV."""
    payload = {
        "package_version": __version__,
        "git_sha": git_sha(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # bit-identical re-evaluation holds per numpy build and machine
        "environment": _environment(),
        "scenario": _jsonable(asdict(params)),
        "optimizer": _jsonable(asdict(settings)),
        "grid": _jsonable(asdict(grid)),
        "decisions": {
            "bandwidth_hz": params.bandwidth_hz,
            "path_gain_model": PATH_GAIN_MODEL,
            "fpa_position": "bottom of the movable region (y_min)",
            "rng_scheme": RNG_SCHEME,
            "region_default": "[0, 8*(M-1)*d] when not set",
            "Y_over_D_definition": "(y_max - y_min) / ((M-1)*d)",
            "metric_units": "linear SNR for K=1, bits/s/Hz otherwise",
            "csv_determinism": "all columns reproducible except wall_ms",
            "csv_seed_column": "trial index; the master seed is scenario.seed",
        },
    }
    if extra:
        payload.update(extra)
    return payload


def _environment() -> dict:
    """Python, numpy and BLAS builds, machine, and the BLAS thread settings."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {var: os.environ.get(var) for var in THREAD_VARIABLES}}


def git_sha(root: Path | None = None) -> str | None:
    """HEAD of the git checkout at root, by default the one that holds this
    package, read from .git without running git; None outside a checkout
    (an installed package, an exported tree)."""
    if root is None:
        root = Path(__file__).resolve().parents[2]
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_metadata(csv_path, payload: dict) -> None:
    with open(str(csv_path) + ".meta.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj
