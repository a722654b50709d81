#!/usr/bin/env python3
"""Print the acceptance repair deltas of one variant over a grid of seeds.

For each pretrain seed the base model is pretrained once on the acceptance
corpus (tests/conftest.py), for each phase-2 seed the inference function is
trained once and the tail rows repaired, and for each negative draw the
paired before/after evaluation runs once. Each grid row gives the HR@10
delta after repair for the tail, head and head-with-tail-in-sequence groups:
the quantities ``test_tail_repair_direction_*`` and
``test_head_predictions_with_tail_context_gru`` assert on at the default
seeds (pretrain 5, phase 2 3, draw 4).

    python3 scripts/acceptance_seeds.py --variant transformer --pretrain-seeds 5,6,7
    python3 scripts/acceptance_seeds.py --variant gru --phase2-seeds 0,1,2,3 --draws 4,5,6,7

The package is imported from PYTHONPATH when it is found there, else from
this checkout's src/, so one grid can be run against another checkout's
code. A variant at acceptance scale takes minutes per pretrain seed.
"""

import argparse
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.append(os.path.join(ROOT, "src"))

from conftest import (  # noqa: E402
    PHASE2_SEED,
    PRETRAIN_SEED,
    build_acceptance_corpus,
    candidate_matrix,
    paired_reports,
    pretrain_base,
    repair_base,
)

GROUPS = [("tail", "tail"), ("head", "head"), ("hwt", "head_with_tail_in_sequence")]


def seeds(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--variant", choices=["gru", "transformer"], default="transformer")
    p.add_argument("--pretrain-seeds", type=seeds, default=[PRETRAIN_SEED])
    p.add_argument("--phase2-seeds", type=seeds, default=[PHASE2_SEED])
    p.add_argument("--draws", type=seeds, default=[4], help="negative-candidate draws")
    args = p.parse_args()

    import tailrec

    print(f"# {args.variant}, package {os.path.dirname(os.path.abspath(tailrec.__file__))}")
    corpus = build_acceptance_corpus()
    candidates = {k: candidate_matrix(corpus, k) for k in args.draws}
    header = ["pretrain", "phase2", "draw"]
    for short, _ in GROUPS:
        header += [f"{short}_before", f"{short}_after", f"{short}_delta"]
    print("\t".join(header), flush=True)
    for ps in args.pretrain_seeds:
        t0 = time.time()
        base = pretrain_base(args.variant, corpus, seed=ps)
        print(f"# pretrain seed {ps}: {time.time() - t0:.0f} s", flush=True)
        for qs in args.phase2_seeds:
            repair = repair_base(corpus, base, phase2_seed=qs)
            for k in args.draws:
                reports = paired_reports(corpus, base, repair, candidates[k])
                row = [str(ps), str(qs), str(k)]
                for _, group in GROUPS:
                    before = reports["before"][group]["hr10"]
                    after = reports["after"][group]["hr10"]
                    row += [f"{before:.4f}", f"{after:.4f}", f"{after - before:+.4f}"]
                print("\t".join(row), flush=True)


if __name__ == "__main__":
    main()
