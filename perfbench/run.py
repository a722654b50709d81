"""tailrec benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload gru-train --seed 1 --seconds 30 --trace 0

Runs the real ``tailrec.cli.main`` in this process on a corpus generated
from ``--seed``, in a fresh output directory per pass, and times each command
from outside the program. A pass repeats until ``--seconds`` would be
exceeded (at least two passes, so same-seed outputs can be compared). Every
command's outputs are checked; the last stdout line is the JSON result. With
``--trace 1`` the program's layer functions are wrapped (see tracing.py) and
the per-layer metrics are reported instead of the end-to-end ones.

BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import corpus as corpora  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMON_PRETRAIN = dict(max_len=20, d=32, n_blocks=2, n_heads=2, batch_size=128,
                       n_negatives=100, warmup_steps=100)
TAU = 0.5
KAPPAS = [1, 2, 5, 10]
TAUS = [0.3, 0.5, 0.7]

# Why each workload exists is recorded in BENCHMARK.json. Epochs are short so
# that a 30-second run holds two or three passes, whose median discards a
# pass slowed by a burst of load on a shared machine. One apply-eval takes
# about a second on the train workloads, too short to time by itself on a
# shared machine, so each pass repeats it and eval_cases_per_s is timed over
# all the repeats.
EVAL_REPEATS = 3
TRAIN_TIMED = [["ingest"], ["pretrain"], ["train-cities"]] + [["apply-eval"]] * EVAL_REPEATS
WORKLOADS = {
    "gru-train": dict(
        variant="gru", users=1000, items=300, pretrain_epochs=2, cities_epochs=2, new_items=0,
        setup=[], timed=TRAIN_TIMED),
    "cloze-train": dict(
        variant="transformer", users=1000, items=300, pretrain_epochs=4, cities_epochs=2,
        new_items=0,
        setup=[], timed=TRAIN_TIMED),
    "repair-sweep": dict(
        variant="gru", users=2000, items=500, pretrain_epochs=1, cities_epochs=2, new_items=8,
        setup=[["ingest"], ["pretrain"], ["train-cities"]],
        timed=[["apply-eval"],
               ["sweep", "--parameter", "kappa", "--values", ",".join(map(str, KAPPAS))],
               ["sweep", "--parameter", "tau", "--values", ",".join(map(str, TAUS))],
               ["new-item"],
               ["baseline", "--name", "fomc"]]),
}
SETUP_REPEATS = {"gru-train": 9, "cloze-train": 9, "repair-sweep": 3}
EVAL_COMMANDS = {"apply-eval", "sweep", "new-item", "baseline"}
# Quality varies too much between corpora to bound as a metric, but a
# speed-up that breaks learning or ranking falls to random ranking over the
# 1 + n_negatives candidates; anything under 1.5x random fails the run.
CANDIDATES = 1 + COMMON_PRETRAIN["n_negatives"]
RANDOM_MRR = sum(1.0 / r for r in range(1, CANDIDATES + 1)) / CANDIDATES
RANDOM_HR10 = 10 / CANDIDATES
QUALITY_FLOOR = 1.5
ARTIFACTS = ("store.json", "checkpoint_{v}.json", "cities_{v}.json")


# ------------------------------------------------------------ commands


class Call:
    def __init__(self, argv, out, seconds, rc, outputs, log):
        self.argv = argv
        self.out = out
        self.label = " ".join(argv)
        self.seconds = seconds
        self.rc = rc
        self.outputs = outputs  # file name -> path, written or rewritten by this call
        self.log = log
        self.problems: list[str] = [] if rc == 0 else [f"exit code {rc}"]


def _listing(out: str) -> dict:
    return {e.name: (e.stat().st_mtime_ns, e.stat().st_size) for e in os.scandir(out)}


def run_command(cli_main, config: str, out: str, argv: list[str], tracer=None) -> Call:
    """One CLI call, timed from outside; its stdout and stderr are captured."""
    before = _listing(out)
    buf = io.StringIO()
    span = None
    if tracer is not None:
        tracer.new_command()
        span = tracer.open(f"cli.{argv[0]}")
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli_main(["--config", config, "--out", out, *argv])
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, not a failed benchmark
        rc = -1
        buf.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if span is not None:
        tracer.close(span)
    after = _listing(out)
    outputs = {name: os.path.join(out, name) for name, stamp in after.items()
               if before.get(name) != stamp and not name.startswith(("manifest_", "."))}
    return Call(argv, out, seconds, rc, outputs, buf.getvalue()[-2000:])


# -------------------------------------------------------------- checks


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _non_finite(doc) -> bool:
    if isinstance(doc, float):
        return not math.isfinite(doc)
    if isinstance(doc, dict):
        return any(_non_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_non_finite(v) for v in doc)
    return False


def _csv_non_finite(path: str) -> bool:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            for cell in line.strip().split(","):
                try:
                    if not math.isfinite(float(cell)):
                        return True
                except ValueError:
                    pass
    return False


class Checker:
    """Output checks; each failure is charged to the call that wrote the file.

    - the command exits non-zero;
    - a JSON or CSV output holds a non-finite number;
    - a head row of the repaired table differs from the base checkpoint's
      row (the repair contract);
    - an output's sha256 differs from the same command's output in an
      earlier pass with the same seed (same-seed determinism; in a traced
      run this also shows that wrapping changed nothing);
    - the program's own counts disagree with the corpus facts the
      throughputs are computed from;
    - the best validation MRR or the repaired head HR@10 is under
      ``QUALITY_FLOOR`` times that of random ranking.
    """

    def __init__(self, corpus, facts, variant):
        self.corpus = corpus
        self.facts = facts
        self.variant = variant
        self.head_ids, _ = corpora.partition(corpus, TAU)
        self.hashes: dict[tuple[str, str], str] = {}
        self.calls: list[Call] = []

    def check(self, call: Call) -> None:
        self.calls.append(call)
        if call.rc != 0:
            return
        for name, path in sorted(call.outputs.items()):
            digest = _sha256(path)
            first = self.hashes.setdefault((call.label, name), digest)
            if first != digest:
                call.problems.append(f"{name}: sha256 differs from an earlier same-seed pass")
            if name.endswith((".json", ".jsonl")):
                with open(path, encoding="utf-8") as fh:
                    doc = (json.load(fh) if name.endswith(".json")
                           else [json.loads(line) for line in fh if line.strip()])
                if _non_finite(doc):
                    call.problems.append(f"{name}: non-finite number")
                self._contract(call, name, doc)
            elif name.endswith(".csv") and _csv_non_finite(path):
                call.problems.append(f"{name}: non-finite number")

    def _contract(self, call: Call, name: str, doc: dict) -> None:
        out, v = call.out, self.variant
        if name == "store.json":
            if doc["item_ids"] != self.corpus.item_ids or doc["users"] != self.corpus.users:
                call.problems.append("store.json: catalog or users differ from the corpus")
        elif name == f"cities_{v}.json":
            usable = self.facts["head_items"] - len(doc["meta"]["skipped_items"])
            if usable != self.facts["usable_head_targets"]:
                call.problems.append(f"{name}: {usable} usable targets, corpus has "
                                     f"{self.facts['usable_head_targets']}")
        elif name == f"metrics_{v}.jsonl":
            best = max(row["val_mrr"] for row in doc)
            if best < QUALITY_FLOOR * RANDOM_MRR:
                call.problems.append(f"{name}: best val_mrr {best:.4f} is near random ranking")
        elif name == f"report_after_{v}.json":
            groups = doc["groups"]
            if groups["all"]["support"] != self.facts["users"]:
                call.problems.append(f"{name}: ranked {groups['all']['support']} users")
            if groups["head"]["hr10"] < QUALITY_FLOOR * RANDOM_HR10:
                call.problems.append(f"{name}: head hr10 {groups['head']['hr10']:.4f} "
                                     "is near random ranking")
        elif name == f"new_item_report_{v}.json":
            if doc["overall"]["n_test_cases"] != self.facts["new_item_cases"]:
                call.problems.append(f"{name}: {doc['overall']['n_test_cases']} cases, corpus "
                                     f"has {self.facts['new_item_cases']}")
        elif name == f"applied_{v}.json":
            with open(os.path.join(out, f"checkpoint_{v}.json"), encoding="utf-8") as fh:
                base = json.load(fh)["params"]["table.weights"]
            with open(os.path.join(out, "store.json"), encoding="utf-8") as fh:
                item_ids = json.load(fh)["item_ids"]
            head = [i for i, item in enumerate(item_ids) if item in self.head_ids]
            base_rows = np.asarray(base, dtype=np.float64)[head]
            repaired = np.asarray(doc["params"]["table.weights"], dtype=np.float64)[head]
            changed = (base_rows.view(np.uint64) != repaired.view(np.uint64)).any(axis=1).sum()
            if changed:
                call.problems.append(f"{name}: {changed} head rows differ from the base")

    @property
    def failed(self) -> list[Call]:
        return [c for c in self.calls if c.problems]


# ------------------------------------------------------------ workload


def _write_config(inputs: str, seed: int, spec: dict) -> str:
    config = os.path.join(inputs, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({
            "dataset": {"path": os.path.join(inputs, "log.csv")},
            "variant": spec["variant"],
            "seed": seed,
            "tau": TAU,
            "pretrain": {**COMMON_PRETRAIN, "epochs": spec["pretrain_epochs"]},
            "cities": {"epochs": spec["cities_epochs"]},
            "evaluate": {"n_negatives": COMMON_PRETRAIN["n_negatives"]},
            "new_item": {"contexts": os.path.join(inputs, "new_item_contexts.json")},
        }, fh, indent=1)
    return config


def _quality(out: str, variant: str) -> dict:
    q = {}
    metrics = os.path.join(out, f"metrics_{variant}.jsonl")
    if os.path.exists(metrics):
        with open(metrics, encoding="utf-8") as fh:
            q["val_mrr"] = max(json.loads(line)["val_mrr"] for line in fh if line.strip())
    curve = os.path.join(out, f"curve_{variant}.csv")
    if os.path.exists(curve):
        with open(curve, encoding="utf-8") as fh:
            q["cities_final_distance"] = float(fh.read().split()[-1].split(",")[1])
    after = os.path.join(out, f"report_after_{variant}.json")
    if os.path.exists(after):
        with open(os.path.join(out, f"report_before_{variant}.json"), encoding="utf-8") as fh:
            b = json.load(fh)["groups"]
        with open(after, encoding="utf-8") as fh:
            a = json.load(fh)["groups"]
        q["head_hr10_after"] = a["head"]["hr10"]
        q["tail_hr10_after"] = a["tail"]["hr10"]
        # the two directional checks the acceptance suite records as failing
        q["tail_hr10_delta"] = a["tail"]["hr10"] - b["tail"]["hr10"]
        q["head_with_tail_hr10_delta"] = (a["head_with_tail_in_sequence"]["hr10"]
                                          - b["head_with_tail_in_sequence"]["hr10"])
    new = os.path.join(out, f"new_item_report_{variant}.json")
    if os.path.exists(new):
        with open(new, encoding="utf-8") as fh:
            q["new_item_hr10"] = json.load(fh)["overall"]["hr10"]
    return q


def _cases(argv: list[str], facts: dict) -> int:
    """Ranked test cases one command produces: every evaluate pass ranks each
    user once, and each new-item test case is ranked once."""
    if argv[0] == "apply-eval":
        return 2 * facts["users"]  # before and after
    if argv[0] == "sweep":
        return len(argv[4].split(",")) * facts["users"]
    if argv[0] == "baseline":
        return facts["users"]
    if argv[0] == "new-item":
        return facts["new_item_cases"]
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    spec = WORKLOADS[name]
    v = spec["variant"]
    inputs = os.path.join(work, "input")
    os.makedirs(inputs)

    from tailrec.cli import main as cli_main

    # --------------------------------------------------------- set-up
    setup_times, setup_calls = [], []
    for rep in range(SETUP_REPEATS[name]):
        t0 = time.perf_counter()
        corpus = corpora.generate(seed, spec["users"], spec["items"], min_len=5, max_len=15,
                                  n_new=spec["new_items"],
                                  omega1=COMMON_PRETRAIN["max_len"] - 1)
        payload = os.path.join(inputs, "new_item_contexts.json") if spec["new_items"] else None
        corpora.write_inputs(corpus, os.path.join(inputs, "log.csv"), payload)
        config = _write_config(inputs, seed, spec)
        out = os.path.join(work, f"setup-{rep}")
        os.makedirs(out)
        calls = [run_command(cli_main, config, out, argv) for argv in spec["setup"]]
        setup_times.append(time.perf_counter() - t0)
        setup_calls.append((out, calls))

    facts = corpora.facts(corpus, v, COMMON_PRETRAIN["max_len"], TAU)
    checker = Checker(corpus, facts, v)
    for _, calls in setup_calls:
        for c in calls:
            checker.check(c)
    artifacts_dir = setup_calls[-1][0]
    quality = _quality(artifacts_dir, v)

    # ---------------------------------------------------------- timed
    tracer = None
    passes: list[dict] = []
    traced: list[dict] = []
    t_start = time.perf_counter()
    while not checker.failed:  # a failed set-up leaves nothing to time
        out = os.path.join(work, f"pass-{len(passes) + len(traced)}")
        os.makedirs(out)
        if spec["setup"]:
            for artifact in ARTIFACTS:
                shutil.copy(os.path.join(artifacts_dir, artifact.format(v=v)), out)
        gc.collect()
        t0 = time.perf_counter()
        calls = []
        for argv in spec["timed"]:
            calls.append(run_command(cli_main, config, out, argv, tracer))
            if calls[-1].rc != 0:
                break
        wall = time.perf_counter() - t0
        for c in calls:
            checker.check(c)
        (traced if tracer else passes).append({"wall": wall, "calls": calls})
        if len(passes) + len(traced) == 1:
            quality.update(_quality(out, v))
        shutil.rmtree(out)
        done = passes + traced
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p["wall"] for p in done)
        if trace and tracer is None:
            # one untraced pass gives the wall time tracing is compared with
            tracer = Tracer()
            tracer.install()
            continue
        if len(done) >= 2 and elapsed + typical > seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    # -------------------------------------------------------- metrics
    if spec["setup"]:
        samples = [c for _, calls in setup_calls for c in calls if c.rc == 0]
    else:
        samples = [c for p in passes for c in p["calls"] if c.rc == 0]
    pre = [c.seconds for c in samples if c.argv[0] == "pretrain"]
    cit = [c.seconds for c in samples if c.argv[0] == "train-cities"]
    eval_rates = []
    for p in passes:
        ev = [c for c in p["calls"] if c.argv[0] in EVAL_COMMANDS and c.rc == 0]
        if ev:
            eval_rates.append(sum(_cases(c.argv, facts) for c in ev) / sum(c.seconds for c in ev))
    med = lambda xs: statistics.median(xs) if xs else float("nan")  # noqa: E731
    e2e = {
        "setup_s": med(setup_times),
        "wall_s": med([p["wall"] for p in passes]),
        "pretrain_examples_per_s": med([facts["train_examples_per_epoch"]
                                        * spec["pretrain_epochs"] / s for s in pre]),
        "cities_items_per_s": med([facts["usable_head_targets"] * spec["cities_epochs"] / s
                                   for s in cit]),
        "eval_cases_per_s": med(eval_rates),
    }
    layer = {}
    if tracer is not None:
        layer = tracer.layer_metrics(per=max(1, len(traced)))
        layer["trace.wall_s"] = med([p["wall"] for p in traced])
        layer["trace.untraced_wall_s"] = med([p["wall"] for p in passes])
        layer["trace.overhead"] = layer["trace.wall_s"] / layer["trace.untraced_wall_s"] - 1.0
    command_seconds: dict[str, list[float]] = {}
    for p in passes + traced:
        for c in p["calls"]:
            command_seconds.setdefault(c.label, []).append(c.seconds)
    return {
        "e2e": e2e,
        "layer": layer,
        "quality": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": {**facts, "pretrain_epochs": spec["pretrain_epochs"],
                  "cities_epochs": spec["cities_epochs"],
                  "ranked_cases_per_pass": sum(_cases(a, facts) for a in spec["timed"])},
        "samples": {"setup": len(setup_times), "passes": len(passes), "traced_passes": len(traced),
                    "pretrain": len(pre), "train_cities": len(cit)},
        "command_seconds": command_seconds,
        "attempted": len(checker.calls),
        "failed": [{"call": c.label, "problems": c.problems, "log": c.log}
                   for c in checker.failed],
        "tracer": tracer,
    }


# ---------------------------------------------------------------- main


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "tailrec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(fh.read())
    return {
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "tailrec", "cli.py")):
        print("benchmark cannot run: src/tailrec is not in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        definition = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    results = os.path.join(ROOT, ".perfbench")
    os.makedirs(results, exist_ok=True)
    work = os.path.join(results, f"work-{os.getpid()}")
    try:
        r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    values = r["layer"] if args.trace else r["e2e"]
    metrics = {m["name"]: {"value": values.get(m["name"], float("nan")), "unit": m["unit"]}
               for m in wanted}
    correct = not r["failed"] and all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None  # keeps the result line valid JSON when a run failed
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tracer = r.pop("tracer")
    if tracer is not None:
        tracer.dump(stem + "-spans.json")
    keep = ("facts", "quality", "peak_rss_mb", "samples", "command_seconds", "failed", "e2e",
            "layer")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "loop": "closed: one client, each command starts after the previous returns",
              **{k: r[k] for k in keep}}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value'] if m['value'] is None else format(m['value'], '14.6g')} "
              f"{m['unit']}")
    for k, val in sorted(r["quality"].items()):
        print(f"{'quality.' + k:40s} {val:14.6g}")
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": len(r["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
