"""Run one benchmark workload and print its result as JSON on the last line.

    python3 benchmarks/run.py --workload compare --seed 1 --seconds 33 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` as it stands, nothing is installed. One process runs trials back to
back (a closed loop with one client), cycling through a pool of inputs drawn
from `--seed`, until `--seconds` have passed and the pool has been run once.
BLAS threads are pinned (to one, at most `nproc`) before numpy loads.

`--trace 0` reports the end-to-end metrics, measured with no wrappers
installed. Their times are in reference seconds, scaled by a fixed loop
that tracks the host's drifting speed (see spin()). `--trace 1` alternates untraced and traced trials on the same
inputs and reports the per-layer metrics from the spans of the traced ones,
plus the tracing overhead. Every record is checked either way; a trial that
raises or fails a check counts as failed, and the run still finishes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7
# One BLAS thread: trials call BLAS on small matrices from a single client,
# and a second OpenBLAS thread doubled CPU use without making trials faster.
BLAS_THREADS = 1
PROBE_TIMEOUT_S = 60
# The host's speed drifts by a third over minutes, and a fixed pure-Python
# loop slows down with it. Times are reported in reference seconds: measured
# seconds times SPIN_REF_S over the run's median time of that loop.
SPIN_LOOPS = 200_000
SPIN_REF_S = 0.016

END_TO_END_UNITS = {
    "setup_s": "s",
    "trial_s.p50": "s",
    "trials_per_s": "1/s",
    "rate_gma": "bits/s/Hz",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "combining.batch_sinr.calls": "count",
    "combining.batch_sinr.rows": "count",
    "combining.batch_sinr.mmse_rows": "count",
    "combining.batch_sinr.self_s": "s",
    "combining.batch_sinr.self_frac": "ratio",
    "combining.batch_sinr.rows_per_s": "1/s",
    "combining.batch_sinr.rows_per_call": "count",
    "combining.batch_sinr.bytes_computed": "B",
    "combining.metric_profiles.rows": "count",
    "combining.metric_profiles.self_s": "s",
    "combining.objective_metric.calls": "count",
    "combining.objective_metric.self_s": "s",
    "arrays.gain_weighted_shifts.self_s": "s",
    "arrays.channel_profile.self_s": "s",
    "multiuser.optimize_multiuser.calls": "count",
    "multiuser.optimize_multiuser.self_s": "s",
    "multiuser.sparsity_search.calls": "count",
    "multiuser.sparsity_search.self_s": "s",
    "multiuser.evals": "count",
    "multiuser.rounds": "count",
    "multiuser.useful_round_frac": "ratio",
    "sca.optimize_position_sca.calls": "count",
    "sca.optimize_position_sca.self_s": "s",
    "sca.snr_profile.calls": "count",
    "sca.snr_profile.rows": "count",
    "sca.snr_profile.self_s": "s",
    "sca.optimize_sparsity.self_s": "s",
    "sca.iters": "count",
    "sca.evals": "count",
    "sca.useful_round_frac": "ratio",
    "baselines.ma_optimize.self_s": "s",
    "baselines.layout_channel_stack.calls": "count",
    "baselines.layout_channel_stack.rows": "count",
    "baselines.layout_channel_stack.self_s": "s",
    "baselines.exhaustive_search.calls": "count",
    "baselines.exhaustive_search.self_s": "s",
    "baselines.fpa_metric.self_s": "s",
    "baselines.oracle_gap_db": "dB",
    "experiments.run_trial_schemes.self_s": "s",
    "experiments.write_records_csv.self_s": "s",
    "experiments.write_records_csv.bytes": "B",
    "scenario.sample_scenario.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, configure and sample the inputs, then exit "
                             "(what setup_s times)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads() -> int:
    """Pin BLAS threads to at most nproc; must run before numpy is imported."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_package() -> None:
    """Put the checkout's src/ and this directory on sys.path and import gma
    from there; raise SystemExit(2) when the checkout has no package."""
    src = ROOT / "src"
    if not (src / "gma" / "__init__.py").is_file():
        print(f"error: no gma package under {src}; run from a source checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import gma
    if Path(gma.__file__).resolve().parent != (src / "gma").resolve():
        print(f"error: imported gma from {gma.__file__}, not from {src}",
              file=sys.stderr)
        raise SystemExit(2)


def setup_probe(args) -> tuple[float, float]:
    """One fresh process that imports, configures and samples the inputs of
    this run. Returns its wall time from spawn to exit, less the spin() it
    runs before exiting, and that spin() time. The spin runs in the probe's
    own process because the probe may run on another core than this one."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    spun = float(proc.stdout.split()[-1])
    return elapsed - spun, spun


class Run:
    """Trial loop state: timings, failure counts and first-pass records."""

    def __init__(self, workload, pool, out_dir: Path, settings, grid):
        self.workload, self.pool, self.out_dir = workload, pool, out_dir
        self.settings, self.grid = settings, grid
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[int, list] = {}  # pool index -> records of its first run

    def trial(self, j: int, tracer=None):
        """Run pool entry j once and check it; returns (seconds, records),
        or (None, None) when the trial raised."""
        import workloads as wl
        from tracing import TRIAL
        entry = self.pool[j]
        try:
            if tracer is None:
                dt, records = self._timed(entry)
                self._write(records, entry, j)
            else:
                with tracer.installed():
                    with tracer.span(TRIAL):
                        dt, records = self._timed(entry)
                    self._write(records, entry, j)
        except Exception as exc:  # a failing trial is counted, not fatal
            self._fail_all(f"trial {j} raised {type(exc).__name__}: {exc}")
            return None, None
        verdicts = wl.check_records(self.workload, entry, records)
        verdicts = [a or b for a, b in zip(verdicts, wl.check_csv(
            records, self._csv(j), self._csv(j) + ".meta.json", entry.params))]
        rows = wl.comparable_rows(records)
        if j in self.first:
            ref = wl.comparable_rows(self.first[j])
            verdicts = [v or (None if r == s else "differs from an earlier run "
                              "of the same input")
                        for v, r, s in zip(verdicts, rows, ref)]
        else:
            self.first[j] = records
        self._count(verdicts, records)
        return dt, records

    def _timed(self, entry):
        t0 = time.perf_counter()
        records = self.workload.run_trial(entry, self.settings, self.grid)
        return time.perf_counter() - t0, records

    def _csv(self, j: int) -> str:
        return str(self.out_dir / f"trial_{j}.csv")

    def _write(self, records, entry, j: int) -> None:
        from gma import experiments
        path = self._csv(j)
        experiments.write_records_csv(records, path)
        experiments.write_metadata(path, experiments.run_metadata(
            entry.params, self.settings, self.grid,
            {"command": self.workload.name, "trials": 1,
             "master_seed": entry.params.seed}))

    def _fail_all(self, why: str) -> None:
        self.attempted += self.workload.records_per_trial
        self.failed += self.workload.records_per_trial
        self.errors.append(why)
        print(f"error: {why}", file=sys.stderr)

    def _count(self, verdicts, records) -> None:
        self.attempted += len(verdicts)
        for v, rec in zip(verdicts, records):
            if v is not None:
                self.failed += 1
                self.errors.append(f"{rec.scheme} seed {rec.seed}: {v}")
                print(f"error: {self.errors[-1]}", file=sys.stderr)

    def scheme_values(self, scheme: str) -> list[list[float]]:
        """Per pool entry, the metrics of one scheme (first runs only)."""
        return [[r.metric for r in recs if r.scheme == scheme]
                for _, recs in sorted(self.first.items())]


def _mean(values):
    return statistics.fmean(values) if values else math.nan


def _percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def spin() -> float:
    """Wall time of SPIN_LOOPS turns of a fixed pure-Python loop, which
    does not touch the program: a probe of the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(SPIN_LOOPS):
        acc += k * k
    return time.perf_counter() - t0


def untraced_run(run: Run, seconds: float, probe) -> tuple[list, list, float, list]:
    """Trials until `seconds` of loop time have passed and the pool has run
    once; returns the trial times, the set-up probes, the loop's wall time
    and the spin() times. The SETUP_PROBES set-up probes are spread over the
    run, between trials, so their median samples the same stretch of machine
    time as the trials do. A spin() follows every trial. Probes and spins
    count neither against `seconds` nor in the wall time."""
    times, setups, spins = [], [probe()], [spin()]
    start = time.perf_counter()
    deadline = start + seconds
    aside_s = 0.0
    i, P = 0, len(run.pool)
    while i < P or (times and time.perf_counter() + statistics.median(times)
                    <= deadline):
        dt, records = run.trial(i % P)
        if records is not None:
            times.append(dt)
        i += 1
        t0 = time.perf_counter()
        spins.append(spin())
        done = (t0 - start - aside_s) / seconds
        if len(setups) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * done)):
            setups.append(probe())
        aside = time.perf_counter() - t0
        aside_s += aside
        deadline += aside
    wall_s = time.perf_counter() - start - aside_s
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    return times, setups, wall_s, spins


def traced_run(run: Run, seconds: float, tracer):
    """Pairs of (untraced, traced) trials on one input, alternating which
    goes first; returns both timing lists."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    k, P = 0, len(run.pool)
    while k == 0 or (plain and time.perf_counter() + statistics.median(plain)
                     + statistics.median(traced) <= deadline):
        j = k % P
        order = (None, tracer) if k % 2 == 0 else (tracer, None)
        got = {}
        for tr in order:
            dt, records = run.trial(j, tr)
            got[tr is not None] = (dt, records)
        k += 1
        (dp, rp), (dt, rt) = got[False], got[True]
        # the second run of input j was already checked against the first
        if rp is not None and rt is not None:
            plain.append(dp)
            traced.append(dt)
    return plain, traced


def end_to_end(run: Run, times, setups, wall_s: float, spins) -> tuple[dict, dict]:
    """The end-to-end metrics, times in reference seconds, and the `info`
    figures, which give the times as measured."""
    import workloads as wl
    w = run.workload
    gma_rates = [_mean([wl.rate_bits(w, m) for m in vals])
                 for vals in run.scheme_values("gma")]
    spin_s = statistics.median(spins)
    scale = SPIN_REF_S / spin_s
    setup_s = statistics.median(e for e, _ in setups)
    trial_s = statistics.median(times) if times else math.nan
    per_s = len(times) / wall_s if times else math.nan
    metrics = {
        "setup_s": statistics.median(e * SPIN_REF_S / sp for e, sp in setups),
        "trial_s.p50": trial_s * scale,
        "trials_per_s": per_s / scale,
        "rate_gma": _mean(gma_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"trials": len(times), "pool_size": len(run.pool),
            "failed_frac": run.failed / run.attempted if run.attempted else math.nan,
            "spin_s": spin_s, "spins": len(spins), "setup_s.measured": setup_s,
            "trial_s.p50.measured": trial_s, "trials_per_s.measured": per_s}
    if len(times) >= 100:
        info["trial_s.p90.measured"] = _percentile(times, 90)
    info.update(_scheme_summary(run))
    return metrics, info


def _scheme_summary(run: Run) -> dict:
    """Mean metric of every scheme, and the single-user oracle's gap to GMA."""
    w = run.workload
    out = {}
    for scheme in w.schemes:
        vals = [v for vs in run.scheme_values(scheme) for v in vs]
        if w.single_user:
            out[f"snr_{scheme}_db"] = _mean([10 * math.log10(v) for v in vals])
        else:
            out[f"rate_{scheme}"] = _mean(vals)
    if "oracle" in w.schemes and w.single_user:
        gma = [v[0] for v in run.scheme_values("gma")]
        oracle = [v[0] for v in run.scheme_values("oracle")]
        out["oracle_gap_db"] = _mean([10 * math.log10(o / g)
                                      for o, g in zip(oracle, gma)])
    return out


def per_layer(run: Run, tracer, plain, traced) -> dict:
    from tracing import layer_metrics
    metrics = layer_metrics(tracer.spans)
    p_plain, p_traced = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_frac"] = (p_traced - p_plain) / p_plain
    summary = _scheme_summary(run)
    metrics["baselines.oracle_gap_db"] = summary.get("oracle_gap_db", 0.0)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    import_package()
    import envinfo
    import workloads as wl
    from gma.optim import GridSpec, OptimizerSettings
    from tracing import Tracer

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    settings, grid = OptimizerSettings(), GridSpec()
    if args.setup_only:
        workload.build_pool(args.seed)
        print(spin())
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is None:
        pool = workload.build_pool(args.seed)
    else:
        with tracer.installed(), tracer.span("setup"):
            pool = workload.build_pool(args.seed)
    out_dir = Path(tempfile.mkdtemp(prefix=".bench_out-", dir=ROOT))
    try:
        run = Run(workload, pool, out_dir, settings, grid)
        t0 = time.perf_counter()
        try:
            workload.warm_up(pool[0], settings, grid)
        except Exception as exc:  # the first timed trial will fail and count
            run.errors.append(f"warm-up raised {type(exc).__name__}: {exc}")
        warm_up_s = time.perf_counter() - t0
        if tracer is None:
            times, setups, wall_s, spins = untraced_run(
                run, args.seconds, lambda: setup_probe(args))
            metrics, info = end_to_end(run, times, setups, wall_s, spins)
            info["warm_up_s"] = warm_up_s
            units = END_TO_END_UNITS
        else:
            plain, traced = traced_run(run, args.seconds, tracer)
            if not plain:
                raise RuntimeError("no traced trial completed")
            metrics = per_layer(run, tracer, plain, traced)
            info = {"pairs": len(plain), "trial_s.p50_untraced": statistics.median(plain),
                    "trial_s.p50_traced": statistics.median(traced),
                    "spans": len(tracer.spans)}
            units = PER_LAYER_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    bad = [k for k in units if not math.isfinite(metrics[k])]
    if bad:
        run.errors.append(f"non-finite metrics: {bad}")
    print("env " + json.dumps(envinfo.fingerprint(ROOT, threads, args.seed, len(pool))))
    print("info " + json.dumps(info))
    for message in run.errors[:20]:
        print(f"failure: {message}")
    result = {
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k] if math.isfinite(metrics[k]) else None,
                        "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
