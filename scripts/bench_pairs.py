#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py --parent ../base --change . --workload gru-train --seeds 1-10

For each seed, each checkout's own ``perfbench/run.py`` runs once as a
subprocess, the two in alternating order from pair to pair so that a slow
spell on a shared machine falls on both sides. The end-to-end metrics and
their directions are read from the change's ``BENCHMARK.json``. Printed per
metric: every pair's values and change/parent ratio, the medians and
quartiles of each side, the median difference, and how many pairs the change
won. ``BENCH_<workload>.json`` in the change checkout records the per-pair
values, both checkouts' git SHAs (``git rev-parse HEAD``, plus whether the
tree had uncommitted changes) and the environment perfbench reports.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def git_state(root: str) -> dict:
    def git(*argv):
        res = subprocess.run(["git", "-C", root, *argv], capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else None
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each side's own src/
    res = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=root, env=env, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"perfbench failed in {root} (seed {seed}, exit {res.returncode}):\n"
                 f"{res.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = os.path.join(root, ".perfbench", f"{workload}-seed{seed}-trace0.json")
    with open(report, encoding="utf-8") as fh:
        result["environment"] = json.load(fh)["environment"]
    return result


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the base commit")
    p.add_argument("--change", required=True, help="checkout with the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 1,3,5")
    args = p.parse_args()

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    seconds = bench.get("run_seconds", 30)

    pairs = []
    for n, seed in enumerate(args.seeds):
        order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
        runs = {side: run_once(roots[side], args.workload, seed, seconds) for side in order}
        pair = {"seed": seed, "order": list(order)}
        for side in ("parent", "change"):
            r = runs[side]
            pair[side] = {m["name"]: r["metrics"][m["name"]]["value"] for m in metrics}
            pair[side + "_failed"] = r["failed"]
        pairs.append(pair)
        print(f"seed {seed}: " + "  ".join(
            f"{m['name']} {pair['parent'][m['name']]:.4g} -> {pair['change'][m['name']]:.4g}"
            for m in metrics if pair["parent"][m["name"]] is not None
            and pair["change"][m["name"]] is not None), flush=True)

    summary = {}
    print(f"\n{args.workload}, {len(pairs)} pairs")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        both = [(pr["parent"][name], pr["change"][name]) for pr in pairs
                if pr["parent"][name] is not None and pr["change"][name] is not None]
        if not both:
            continue
        par, chg = [a for a, _ in both], [b for _, b in both]
        wins = sum((b > a) if higher else (b < a) for a, b in both)
        q1, q3 = quartiles(par)
        s = {
            "ratios": [b / a if a else None for a, b in both],
            "parent_median": statistics.median(par), "parent_quartiles": [q1, q3],
            "change_median": statistics.median(chg), "change_quartiles": list(quartiles(chg)),
            "median_difference": statistics.median(b - a for a, b in both),
            "wins": wins, "pairs": len(both), "better": m["better"],
        }
        summary[name] = s
        print(f"  {name:26s} parent {s['parent_median']:.4g} [{q1:.4g}, {q3:.4g}]  "
              f"change {s['change_median']:.4g} [{s['change_quartiles'][0]:.4g}, "
              f"{s['change_quartiles'][1]:.4g}]  median diff {s['median_difference']:+.4g} "
              f"(parent IQR {q3 - q1:.4g})  wins {wins}/{len(both)}  ratios "
              + " ".join(f"{x:.2f}" if x is not None else "-" for x in s["ratios"]))

    doc = {
        "workload": args.workload,
        "seconds": seconds,
        "parent": {"git": git_state(roots["parent"]),
                   "environment": runs["parent"]["environment"]},
        "change": {"git": git_state(roots["change"]),
                   "environment": runs["change"]["environment"]},
        "pairs": pairs,
        "summary": summary,
    }
    path = os.path.join(roots["change"], f"BENCH_{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
