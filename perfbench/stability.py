#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/stability.py --workloads ingest,mixed --seeds 1-10 \
        [--seconds S] [--builds DIR_A,DIR_B] [--out FILE]

Runs perfbench/run.py once per (workload, seed) from the root of each
checkout named by --builds (default: the current directory), alternating
the checkouts from one seed to the next, and prints for every metric its
median, quartiles (statistics.quantiles, n=4), min, max and the
quartile spread as a share of the median -- per checkout and pooled.
With --out, writes the same summary and every raw result as JSON.

With --trajectory FILE --label TEXT, also makes one traced run per
workload (first seed, first checkout) and appends a point to FILE: the
label, the machine (nproc, CPU model), the OCaml version, the line
count of lib/, the end-to-end medians and quartiles and the traced
per-layer table.
"""
import argparse
import datetime
import glob
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_one(root, workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("run failed: %s seed %d in %s (exit %d)" % (workload, seed, root, proc.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("nan"), "n": len(values)}


def machine(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True).stdout.strip() or "unknown"
    lines = 0
    for path in glob.glob(os.path.join(root, "lib", "**", "*.ml*"), recursive=True):
        if path.endswith((".ml", ".mli")):
            with open(path) as f:
                lines += sum(1 for _ in f)
    return {"nproc": os.cpu_count(), "cpu": cpu, "ocaml": ocaml, "lib_lines": lines}


def append_point(path, label, root, seconds, report, seed):
    point = {"label": label, "date": datetime.date.today().isoformat(), "seconds": seconds}
    point.update(machine(root))
    point["workloads"] = {}
    for workload, data in report["workloads"].items():
        e2e = {}
        for name, per in data["metrics"].items():
            s = per.get("pooled", per[root])
            e2e[name] = {k: s[k] for k in ("median", "q1", "q3", "min", "max", "n")}
            e2e[name]["unit"] = per["unit"]
        traced = run_one(root, workload, seed, seconds, 1)
        point["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": {k: v for k, v in traced["metrics"].items()},
            "traced_seed": seed,
        }
    try:
        with open(path) as f:
            trajectory = json.load(f)
    except FileNotFoundError:
        trajectory = {"points": []}
    trajectory["points"].append(point)
    with open(path, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="ingest,mixed")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--builds", default=".")
    ap.add_argument("--out")
    ap.add_argument("--trajectory")
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]
    builds = args.builds.split(",")
    report = {"seconds": seconds, "builds": builds, "workloads": {}}
    for workload in args.workloads.split(","):
        raw = {b: [] for b in builds}
        for i, seed in enumerate(parse_seeds(args.seeds)):
            # alternate which checkout runs first from one seed to the next
            order = builds if i % 2 == 0 else list(reversed(builds))
            for b in order:
                r = run_one(b, workload, seed, seconds, 0)
                r["seed"] = seed
                raw[b].append(r)
                if not r["correct"] or r["failed"]:
                    raise SystemExit("incorrect result: %s seed %d in %s" % (workload, seed, b))
                print("%s seed %d %s: %.0f s, %d attempted" % (workload, seed, b, r["wall_s"], r["attempted"]),
                      file=sys.stderr)
        names = list(raw[builds[0]][0]["metrics"].keys())
        per = {}
        for name in names:
            per[name] = {b: summarize([r["metrics"][name]["value"] for r in raw[b]]) for b in builds}
            if len(builds) > 1:
                per[name]["pooled"] = summarize([r["metrics"][name]["value"] for b in builds for r in raw[b]])
            per[name]["unit"] = raw[builds[0]][0]["metrics"][name]["unit"]
        report["workloads"][workload] = {"metrics": per, "runs": raw}
        print("== %s" % workload)
        for name in names:
            cells = " | ".join("%s: med %.4g q1 %.4g q3 %.4g min %.4g max %.4g spread %.1f%%" % (
                os.path.basename(os.path.abspath(b)) or b, s["median"], s["q1"], s["q3"], s["min"], s["max"],
                100 * s["spread"]) for b, s in ((b, per[name][b]) for b in builds))
            print("  %-20s %s" % (name, cells))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    if args.trajectory:
        append_point(args.trajectory, args.label, builds[0], seconds, report, parse_seeds(args.seeds)[0])


if __name__ == "__main__":
    main()
