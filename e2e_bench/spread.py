#!/usr/bin/env python3
"""Run-to-run spread of the e2e_bench metrics, measured the way the
benchmark's bounds are judged.

Run from the repository root.

  python3 e2e_bench/spread.py seeds [--seeds 1-10] [--workloads a,b] [--out FILE]

    Runs the BENCHMARK.json command once per (workload, seed), as a
    regression check does, and reports for every end-to-end metric the
    quartile spread (q3 - q1) / median of its values next to its bound.

  python3 e2e_bench/spread.py repeat [--seed 1] [--sets 2] [--runs 3]

    Runs the whole suite (`-- --seed S`, no --workload) `sets` x `runs`
    times with one seed, and writes e2e_bench/results/repeatability.json
    (per-set medians and quartiles, and whether the set medians agree
    within each bound) and results/baseline-seed<S>.json (the medians of
    the first set).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = ROOT / "e2e_bench" / "results"
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
    }


def run(args):
    started = time.monotonic()
    proc = subprocess.run(BENCH["command"] + args, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{' '.join(args)}: exit {proc.returncode}")
    return proc.stdout, elapsed


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def seeds_mode(opts):
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in BENCH["workloads"]]
    seconds = str(BENCH["run_seconds"])
    report = {"seeds": parse_seeds(opts.seeds), "seconds": BENCH["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in workloads:
        values, walls = {}, []
        for seed in report["seeds"]:
            out, elapsed = run(["--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"])
            line = json.loads(out.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect run\n{out}")
            walls.append(elapsed)
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s", flush=True)
        entry = {"run_wall_s": summary(walls), "metrics": {}}
        for name, vals in values.items():
            s = summary(vals)
            s["bound"] = BOUNDS[name]["bound"]
            entry["metrics"][name] = s
            gated = name != "setup_s"
            flag = ""
            if gated and s["spread"] > s["bound"]:
                flag = "OVER BOUND"
            elif gated and s["spread"] > s["bound"] / 3:
                flag = "over a third of the bound"
            if gated:
                worst = max(worst, s["spread"] / s["bound"])
            print(f"  {workload:<14} {name:<20} median {s['median']:<14.6g} spread {100 * s['spread']:6.2f} %"
                  f"  bound {100 * s['bound']:.0f} %  {flag}")
        report["workloads"][workload] = entry
    print(f"worst spread / bound: {worst:.2f}")
    if opts.out:
        Path(opts.out).write_text(json.dumps(report, indent=2) + "\n")


def repeat_mode(opts):
    run_file = RESULTS / f"run-seed{opts.seed}.json"
    sets = []
    for s in range(opts.sets):
        invocations = []
        for r in range(opts.runs):
            _, elapsed = run(["--seed", str(opts.seed)])
            doc = json.loads(run_file.read_text())
            invocations.append(doc)
            print(f"set {s + 1} run {r + 1}: {elapsed:.1f} s", flush=True)
        sets.append(invocations)

    identical = True
    reference = {w["workload"]: w for w in sets[0][0]["workloads"]}
    for invocations in sets:
        for doc in invocations:
            for w in doc["workloads"]:
                ref = reference[w["workload"]]
                same = (w["correct"] and w["fingerprints"] == ref["fingerprints"] and w["digest"] == ref["digest"]
                        and w["simulated"] == ref["simulated"] and w["error_rate"] == ref["error_rate"] == 0)
                identical &= same

    per_set = []
    for invocations in sets:
        table = {}
        for name in reference:
            rows = [next(w for w in doc["workloads"] if w["workload"] == name) for doc in invocations]
            table[name] = {m: summary([r["end_to_end"][m]["value"] for r in rows]) for m in BOUNDS}
        per_set.append(table)

    comparison, within = {}, True
    for name in reference:
        comparison[name] = {}
        for m, spec in BOUNDS.items():
            first, second = per_set[0][name][m]["median"], per_set[-1][name][m]["median"]
            change = second / first - 1
            ok = abs(change) < spec["bound"]
            within &= ok
            comparison[name][m] = {"median_first": first, "median_last": second, "change": change,
                                   "bound": spec["bound"], "within_bound": ok}
            print(f"  {name:<14} {m:<20} {100 * change:+6.2f} % (bound {100 * spec['bound']:.0f} %)"
                  f" {'ok' if ok else 'OUTSIDE'}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "repeatability.json").write_text(json.dumps({
        "seed": opts.seed,
        "seconds": BENCH["run_seconds"],
        "sets": opts.sets,
        "runs_per_set": opts.runs,
        "fingerprints_simulated_and_errors_identical": identical,
        "set_medians_within_bounds": within,
        "per_set": per_set,
        "comparison": comparison,
    }, indent=2) + "\n")
    (RESULTS / f"baseline-seed{opts.seed}.json").write_text(json.dumps({
        "seed": opts.seed,
        "seconds": BENCH["run_seconds"],
        "source": "median of the first set in repeatability.json",
        "workloads": {name: {m: per_set[0][name][m]["median"] for m in BOUNDS} for name in reference},
    }, indent=2) + "\n")
    print(f"identical fingerprints/simulated/errors: {identical}; set medians within bounds: {within}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("seeds")
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--workloads")
    s.add_argument("--out")
    r = sub.add_parser("repeat")
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--sets", type=int, default=2)
    r.add_argument("--runs", type=int, default=3)
    opts = parser.parse_args()
    if opts.mode == "seeds":
        seeds_mode(opts)
    else:
        repeat_mode(opts)


if __name__ == "__main__":
    main()
