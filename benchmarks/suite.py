"""Run every workload over several seeds, and compare two saved result sets.

    python3 benchmarks/suite.py run [--seeds 1-10] [--workloads compare,sweep]
                                    [--trace 0|1] [--seconds N] [--out FILE]
    python3 benchmarks/suite.py compare BASE.json[,BASE2.json...] NEW.json[,...]

`run` calls benchmarks/run.py once per (workload, seed), one at a time,
prints every metric of every workload by name and unit with its median,
quartiles and spread (interquartile range over median) against the bound
in BENCHMARK.json, and optionally saves all results as JSON. `compare`
pairs the results of the two sides by (workload, seed): the k-th result of
a pair key on one side goes with the k-th on the other. Per workload and
metric it prints the median of the per-pair changes from BASE to NEW, their
quartiles, and whether the median change stays within the bound.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        tag, _, payload = line.partition(" ")
        if tag in ("env", "info"):
            out[tag] = json.loads(payload)
    out.update(workload=workload, seed=seed, trace=trace)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bounds() -> dict:
    return {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def metric_values(res) -> dict[str, float]:
    """A result's metrics, its failed share and its `info` quality figures."""
    out = {name: m["value"] for name, m in res["metrics"].items()
           if m["value"] is not None}
    out["failed_frac"] = res["failed"] / res["attempted"]
    for name, value in res.get("info", {}).items():
        if name.startswith(("rate_", "snr_", "oracle_gap", "spin_s")) or \
                name.endswith(".measured"):
            out["info:" + name] = value
    return out


def by_workload(results):
    table: dict[str, dict[str, list]] = {}
    for res in results:
        metrics = table.setdefault(res["workload"], {})
        for name, value in metric_values(res).items():
            metrics.setdefault(name, []).append(value)
    return table


def summarize(results) -> None:
    spec = bounds()
    for workload, metrics in by_workload(results).items():
        runs = sum(r["workload"] == workload for r in results)
        ok = all(r["correct"] for r in results if r["workload"] == workload)
        print(f"\n{workload}: {runs} runs, all correct: {ok}")
        print(f"  {'metric':42s} {'unit':>10s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, values in metrics.items():
            m = spec.get(name, {})
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <- spread above a third of the bound"
            print(f"  {name:42s} {m.get('unit', ''):>10s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.2%} {'' if bound is None else bound:>6}{flag}")


def paired(base, new) -> dict[str, list[tuple[dict, dict]]]:
    """Per workload, (base, new) result pairs with the same seed. Results
    without a partner on the other side are reported and left out."""
    def keyed(results):
        out: dict[tuple, list] = {}
        for res in results:
            out.setdefault((res["workload"], res["seed"]), []).append(res)
        return out
    b_keyed, n_keyed = keyed(base), keyed(new)
    pairs: dict[str, list] = {}
    for key in sorted(b_keyed.keys() | n_keyed.keys()):
        b, n = b_keyed.get(key, []), n_keyed.get(key, [])
        if len(b) != len(n):
            print(f"{key[0]} seed {key[1]}: {len(b)} base and {len(n)} new "
                  f"results, {abs(len(b) - len(n))} left unpaired")
        pairs.setdefault(key[0], []).extend(zip(b, n))
    return pairs


def compare(base, new) -> int:
    spec = bounds()
    worse_any = False
    by_pairs = paired(base, new)
    if not any(by_pairs.values()):
        print("no (workload, seed) in common between the two sides")
        return 2
    for workload, pairs in by_pairs.items():
        if not pairs:
            continue
        print(f"\n{workload}: {len(pairs)} pairs")
        print(f"  {'metric':42s} {'unit':>10s} {'base p50':>12s} {'new p50':>12s} "
              f"{'change':>8s} {'q1':>8s} {'q3':>8s}")
        values = [(metric_values(b), metric_values(n)) for b, n in pairs]
        for name in values[0][0]:
            changes = [(n[name] - b[name]) / abs(b[name]) if b[name]
                       else (0.0 if n[name] == b[name] else math.inf)
                       for b, n in values if name in b and name in n]
            if not changes:
                continue
            m = spec.get(name, {})
            q1, change, q3 = quartiles(changes)
            verdict = ""
            if "bound" in m:
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    verdict = "WORSE than bound"
                    worse_any = True
                else:
                    verdict = "within bound"
            b_med = statistics.median(b[name] for b, n in values if name in b)
            n_med = statistics.median(n[name] for b, n in values if name in n)
            print(f"  {name:42s} {m.get('unit', ''):>10s} {b_med:12.6g} {n_med:12.6g} "
                  f"{change:+8.2%} {q1:+8.2%} {q3:+8.2%} {verdict}")
    return 1 if worse_any else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("base", help="comma-separated result files of the base side")
    c.add_argument("new", help="comma-separated result files of the new side")
    args = parser.parse_args(argv)

    if args.cmd == "compare":
        def load(files):
            return [r for f in files.split(",") for r in json.loads(Path(f).read_text())]
        return compare(load(args.base), load(args.new))
    results = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            res = run_one(workload, seed, args.seconds, args.trace)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
            if args.out:
                Path(args.out).write_text(json.dumps(results, indent=1))
    summarize(results)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
