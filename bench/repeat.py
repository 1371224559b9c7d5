"""Run the benchmark once per seed and report the spread of each metric.

    python3 bench/repeat.py --workload china-study china-cli lattice-fit \\
        --seeds 1-10 [--out DIR]

Runs ``bench/run.py`` untraced from the checkout root, one seed after
another, with the command and ``run_seconds`` of ``BENCHMARK.json``.  For
each metric it prints the median of the per-run values and their quartile
spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound.
``--out`` writes every run's record, result and the summary to
``DIR/<workload>.json``; ``bench/baseline`` was written this way.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(l.split(" ", 1)[1]) for l in lines
                   if l.startswith("record: ")), None)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}")
    return record, json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--out")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in args.workload:
        summarize(bench, workload, args.seeds, args.out)
    return 0


def summarize(bench, workload, seeds, out):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for seed in seeds:
        record, result = run_once(bench, workload, seed)
        runs.append({"record": record, "result": result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed {result['failed']}/{result['attempted']} {values}", flush=True)

    summary = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        summary[name] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread,
                         "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{workload} {name:<40} median {med:.6g} {first['unit']}  "
              f"spread {spread:.3f}{flag}")
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        Path(out, f"{workload}.json").write_text(json.dumps(
            {"workload": workload, "runs": runs, "summary": summary}, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
