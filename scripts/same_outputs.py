#!/usr/bin/env python3
"""Check that two checkouts write the same outputs, byte for byte.

    python3 scripts/same_outputs.py --parent ../base --change .

For each variant, each checkout's own ``scripts/run_pipeline.py`` runs the
smoke pipeline (ingest, pretrain, baseline pop, train-cities, apply-eval,
new-item, export-embeddings), then its own ``tailrec`` runs ``sweep`` over τ
and κ and ``baseline --name fomc``. Both sides run in the same directory, one
after the other, because the config records the paths and the checkpoints
hash the config. Every output but ``manifest_*.json`` (wall times) is then
compared. Exits 1 and lists the files that differ or exist on one side only.
"""

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile

SWEEPS = [("sweep", "--parameter", "tau", "--values", "0.3,0.5,0.7"),
          ("sweep", "--parameter", "kappa", "--values", "1,2,5,10"),
          ("baseline", "--name", "fomc")]


def run(root: str, argv: list, env: dict) -> None:
    res = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                         capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"{' '.join(argv)} failed in {root} (exit {res.returncode}):\n"
                 f"{res.stderr[-2000:]}")


def outputs(root: str, variant: str, work: str) -> None:
    """Run the pipeline of ``root``'s checkout into ``work``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run(root, [os.path.join("scripts", "run_pipeline.py"), "--out", work,
               "--variant", variant], env)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for argv in SWEEPS:
        run(root, ["-m", "tailrec", "--config", os.path.join(work, "config.json"), *argv], env)


def compare(a: str, b: str) -> tuple[int, list[str]]:
    """-> (outputs compared, names that differ or exist on one side only)."""
    names = lambda d: {n for n in os.listdir(d) if not n.startswith("manifest_")}
    left, right = names(a), names(b)
    diff = (left ^ right) | {n for n in left & right if not filecmp.cmp(
        os.path.join(a, n), os.path.join(b, n), shallow=False)}
    return len(left | right), sorted(diff)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the base commit")
    p.add_argument("--change", required=True, help="checkout with the change")
    p.add_argument("--work", help="scratch directory (default: a fresh temporary one)")
    args = p.parse_args()

    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="same_outputs_"))
    bad = []
    for variant in ("gru", "transformer"):
        runs = {}
        for side in ("parent", "change"):
            here = os.path.join(work, "run", variant)
            shutil.rmtree(here, ignore_errors=True)
            outputs(os.path.abspath(getattr(args, side)), variant, here)
            runs[side] = os.path.join(work, side, variant)
            shutil.rmtree(runs[side], ignore_errors=True)
            os.makedirs(os.path.dirname(runs[side]), exist_ok=True)
            os.rename(here, runs[side])
        n, diff = compare(runs["parent"], runs["change"])
        print(f"{variant}: {n - len(diff)} of {n} outputs identical"
              + (f"; differ: {', '.join(diff)}" if diff else ""))
        bad += [f"{variant}/{name}" for name in diff]
    print(f"outputs in {work}")
    if bad:
        print("different: " + " ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
