"""Run the benchmark over several seeds and summarise it as a results file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/NAME.json

For each workload: one untraced run per seed, then one traced run on the
first seed. The file records every run's end-to-end metrics, their
medians and quartiles with the spread (q3 - q1) / median next to the
bound in BENCHMARK.json, the traced run's per-layer metrics and shares,
the environment, and a digest of ``src/rails`` so the numbers can be tied
to the code that produced them.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return [line[2:] for line in lines[:-1]], json.loads(lines[-1])


def _src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "rails")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)

    doc = {
        "src_digest": _src_digest(),
        "run_seconds": seconds,
        "seeds": seeds,
        "environment": {"cpu_model": _cpu_model(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    for name in names:
        runs = []
        for seed in seeds:
            t0 = time.monotonic()
            info, result = _run(name, seed, seconds, 0)
            counts = next(line for line in info if line.startswith("counts "))
            runs.append({
                "seed": seed,
                "counts": json.loads(counts[len("counts "):]),
                "wall_s": time.monotonic() - t0,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "info": info,
            })
            print(f"{name} seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        env = next(line for line in runs[0]["info"] if line.startswith("env "))
        doc["environment"].update(json.loads(env[4:]))
        summary = {}
        for metric in runs[0]["metrics"]:
            s = summarise([r["metrics"][metric] for r in runs])
            s["bound"] = bounds[metric]
            summary[metric] = s
        info, result = _run(name, seeds[0], seconds, 1)
        doc["workloads"][name] = {
            "end_to_end": summary,
            "runs": runs,
            "traced": {
                "seed": seeds[0],
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "info": info,
            },
        }
        for metric, s in summary.items():
            print(f"{name:18s} {metric:14s} median {s['median']:.6g} "
                  f"spread {s['spread'] if s['spread'] is not None else float('nan'):.4f} "
                  f"bound {s['bound']}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
