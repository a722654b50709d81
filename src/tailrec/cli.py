"""Operator-facing pipeline.

Batch subcommands over one output directory:

    ingest -> pretrain -> train-cities -> apply-eval
    plus: baseline, sweep, new-item, export-embeddings

Everything is driven by a single JSON config (unknown keys rejected) and a
global seed; artifacts are plain JSON/CSV with lineage recorded in a
per-command manifest. Exit codes: 0 ok, 2 bad config, 3 bad data/artifacts,
4 training failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from contextlib import contextmanager, suppress

import numpy as np

from .data import (
    Catalog,
    ContextWindow,
    UserSequence,
    build_sequences,
    extract_context_sets,
    ingest,
    partition_head_tail,
    sample_negatives,
    split_leave_one_out,
)
from .artifacts import read_json, write_json, write_text
from .errors import ConfigError, DataError, TrainingError
from .evaluate import (
    ModelRanker,
    _group_metrics,
    build_test_candidates,
    evaluate,
    make_baseline,
    rank_cases,
)
from .model import (
    catalog_hash,
    load_checkpoint,
    named_parameters,
    params_fingerprint,
    save_checkpoint,
)
from .pretrain import PretrainConfig, pretrain
from .repair import (
    FewShotConfig,
    InferenceTrainConfig,
    apply_embeddings,
    infer_embeddings,
    infer_new_items,
    inference_fingerprint,
    load_inference_function,
    save_inference_function,
    train_inference_function,
)

__all__ = ["main", "load_config", "DEFAULT_CONFIG"]


DEFAULT_CONFIG = {
    "dataset": {"path": "", "format": "csv", "min_actions": 5},
    "variant": "gru",
    "seed": 0,
    "out": "runs/default",
    "tau": 0.5,
    "pretrain": {
        "max_len": 50,
        "d": 64,
        "n_blocks": 2,
        "n_heads": 2,
        "dropout_rate": 0.1,
        "mask_probability": 0.2,
        "learning_rate": 0.001,
        "warmup_steps": 100,
        "l2_coefficient": 0.0001,
        "epochs": 50,
        "batch_size": 128,
        "n_negatives": 100,
    },
    "cities": {
        "epochs": 50,
        "learning_rate": 0.001,
        "warmup_steps": 100,
        "l2_coefficient": 0.0001,
        "dropout_rate": 0.1,
        "n_agg_blocks": 2,
        "n_agg_heads": 4,
        "kappa_max": 10,
        "omega1": None,
        "omega2": None,
        "context_batch_cap": 64,
        "few_shot": True,
        "target_set": "head",
        "phi_alpha_init": "pretrained",
        "phi_alpha_frozen": True,
    },
    "evaluate": {
        "n_negatives": 100,
        "seed": None,  # None -> global seed
        "negative_source": "full",
        "batch_size": 256,
    },
    "baseline": {"name": "pop"},
    "sweep": {"parameter": "tau", "values": [0.3, 0.5, 0.7]},
    "new_item": {"contexts": ""},
}


# ----------------------------------------------------------- config


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    unknown = set(user) - set(defaults)
    if unknown:
        names = ", ".join(sorted(prefix + k for k in unknown))
        raise ConfigError(f"unknown config key(s): {names}")
    out = {}
    for key, dv in defaults.items():
        if isinstance(dv, dict):
            uv = user.get(key, {})
            if not isinstance(uv, dict):
                raise ConfigError(f"config key {prefix}{key} must be an object")
            out[key] = _merge(dv, uv, f"{prefix}{key}.")
        else:
            out[key] = user.get(key, dv)
    return out


def _validate(cfg: dict) -> None:
    """Cheap structural checks that must fire before any data is touched."""
    if cfg["variant"] not in ("gru", "transformer"):
        raise ConfigError(f"variant must be gru or transformer, got {cfg['variant']!r}")
    tau = cfg["tau"]
    if not isinstance(tau, (int, float)) or not 0.0 < tau < 1.0:
        raise ConfigError(f"tau must lie strictly between 0 and 1, got {tau}")
    if cfg["cities"]["kappa_max"] < 1:
        raise ConfigError(f"kappa_max must be >= 1, got {cfg['cities']['kappa_max']}")
    if cfg["pretrain"]["max_len"] < 2:
        raise ConfigError(f"max_len must be >= 2, got {cfg['pretrain']['max_len']}")
    if cfg["cities"]["target_set"] not in ("head", "all"):
        raise ConfigError(f"target_set must be head or all, got {cfg['cities']['target_set']!r}")
    if cfg["cities"]["phi_alpha_init"] not in ("pretrained", "scratch"):
        raise ConfigError(f"phi_alpha_init must be pretrained or scratch")
    if cfg["dataset"]["format"] not in ("csv", "jsonl"):
        raise ConfigError(f"dataset.format must be csv or jsonl, got {cfg['dataset']['format']!r}")
    if cfg["sweep"]["parameter"] not in ("tau", "kappa"):
        raise ConfigError(f"sweep.parameter must be tau or kappa, got {cfg['sweep']['parameter']!r}")
    if not isinstance(cfg["sweep"]["values"], list) or not cfg["sweep"]["values"]:
        raise ConfigError("sweep.values must be a non-empty list")


def load_config(args) -> dict:
    user = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
    cfg = _merge(DEFAULT_CONFIG, user)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "variant", None) is not None:
        cfg["variant"] = args.variant
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    if cfg["evaluate"]["seed"] is None:
        cfg["evaluate"]["seed"] = cfg["seed"]
    _validate(cfg)
    return cfg


def _config_hash(cfg: dict) -> str:
    # identifies the computation, so the output directory is excluded:
    # same-seed runs into different folders must produce identical artifacts
    payload = {k: v for k, v in cfg.items() if k != "out"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ------------------------------------------------------- artifacts


def _store_path(cfg):
    return os.path.join(cfg["out"], "store.json")


def _ckpt_path(cfg):
    return os.path.join(cfg["out"], f"checkpoint_{cfg['variant']}.json")


def _fn_path(cfg):
    return os.path.join(cfg["out"], f"cities_{cfg['variant']}.json")


def save_store(path: str, catalog: Catalog, sequences, dataset_hash: str, stats: dict) -> None:
    doc = {
        "version": 1,
        "dataset_hash": dataset_hash,
        "item_ids": catalog.item_ids,
        "users": [s.user for s in sequences],
        "sequences": [s.items.tolist() for s in sequences],
        "stats": stats,
    }
    write_json(path, doc)


def load_store(path: str):
    """-> (catalog, split, store doc). Rebuilds popularity and the
    leave-one-out split from the persisted per-user index sequences."""
    doc = read_json(path, "dataset store")
    if doc.get("version") != 1:
        raise DataError(f"{path}: unsupported store version {doc.get('version')!r}")
    missing = [k for k in ("dataset_hash", "item_ids", "users", "sequences") if k not in doc]
    if missing:
        raise DataError(f"{path}: store has no {', '.join(missing)}")
    item_ids, users = doc["item_ids"], doc["users"]
    if not all(isinstance(doc[k], list) for k in ("item_ids", "users", "sequences")):
        raise DataError(f"{path}: item_ids, users and sequences must be lists")
    if len(users) != len(doc["sequences"]):
        raise DataError(f"{path}: {len(users)} users but {len(doc['sequences'])} sequences")
    n = len(item_ids)
    if not all(isinstance(i, str) for i in item_ids) or len(set(item_ids)) != n:
        raise DataError(f"{path}: item_ids must be distinct strings")
    sequences = []
    for user, items in zip(users, doc["sequences"]):
        try:
            arr = np.asarray(items if isinstance(items, list) else None)
        except ValueError:  # ragged nesting
            arr = None
        if arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise DataError(f"{path}: the sequence of user {user!r} is not a list of item indices")
        if arr.size and not (arr.min() >= 0 and arr.max() < n):
            raise DataError(f"{path}: user {user!r} has an item index outside [0, {n})")
        sequences.append(UserSequence(user=user, items=arr.astype(np.int64)))
    flat = np.concatenate([s.items for s in sequences]) if sequences else np.zeros(0, np.int64)
    full_pop = np.bincount(flat, minlength=n)
    catalog = Catalog(
        item_ids=item_ids,
        index_of={i: k for k, i in enumerate(item_ids)},
        full_popularity=full_pop,
        train_popularity=np.zeros(n, dtype=np.int64),
        test_popularity=np.zeros(n, dtype=np.int64),
    )
    split = split_leave_one_out(catalog, sequences)
    return catalog, split, doc


def _dataset_hash(path: str, format: str, min_actions: int) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}")
    h.update(json.dumps({"format": format, "min_actions": min_actions}).encode())
    return h.hexdigest()


def _lock_owner_is_dead(path: str) -> bool:
    """True when the lock file names a pid that no longer runs. An unreadable
    or half-written lock counts as held: its owner may be writing it now."""
    try:
        with open(path, encoding="utf-8") as fh:
            pid = int(fh.read())
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        pass
    return False


@contextmanager
def _lock(outdir: str):
    """One command at a time per output directory. A lock left behind by a
    process that has died is taken over."""
    path = os.path.join(outdir, ".lock")
    held = ConfigError(f"output directory is locked by another run (remove {path} if stale)")
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        fd = os.open(path, flags)
    except FileExistsError:
        if not _lock_owner_is_dead(path):
            raise held
        with suppress(FileNotFoundError):
            os.unlink(path)
        try:
            fd = os.open(path, flags)
        except FileExistsError:
            raise held
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        with suppress(FileNotFoundError):
            os.unlink(path)


def _write_manifest(cfg, command, inputs: dict, outputs: list, started: str) -> str:
    path = os.path.join(cfg["out"], f"manifest_{command}.json")
    write_json(path, {
        "command": command,
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "inputs": inputs,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    return path


def _load_base(cfg, checkpoint: str | None):
    catalog, split, store = load_store(_store_path(cfg))
    path = checkpoint or _ckpt_path(cfg)
    model, meta, kind, _ = load_checkpoint(path, expected_catalog_hash=catalog_hash(catalog.item_ids))
    if model.config.variant != cfg["variant"]:
        raise DataError(
            f"{path} holds a {model.config.variant} model but the config says {cfg['variant']}"
        )
    return catalog, split, store, model, path


def _sorted_sets(sets_by_item: dict) -> list:
    return [cs for _, cs in sorted(sets_by_item.items())]


def _fewshot(cfg) -> FewShotConfig:
    c = cfg["cities"]
    return FewShotConfig(
        kappa_max=c["kappa_max"],
        few_shot=bool(c["few_shot"]),
        omega1=c["omega1"],
        omega2=c["omega2"],
    )


def _paired_evaluation(cfg, split, catalog, max_len: int):
    """-> run(ranker, partition): the evaluation report on the fixed test
    candidates drawn from ``cfg["evaluate"]``, so every ranker a command
    compares meets the same negatives."""
    ev = cfg["evaluate"]
    candidates = build_test_candidates(
        split, catalog, ev["n_negatives"],
        np.random.default_rng([ev["seed"], 4]), ev["negative_source"])

    def run(ranker, partition):
        return evaluate(ranker, split, partition, catalog, n_negatives=ev["n_negatives"],
                        max_len=max_len, batch_size=ev["batch_size"], candidates=candidates)
    return run


def _report_doc(report: dict, cfg, lineage: dict) -> dict:
    return {
        "groups": report,
        "settings": {
            "variant": cfg["variant"],
            "tau": cfg["tau"],
            "n_negatives": cfg["evaluate"]["n_negatives"],
            "negative_source": cfg["evaluate"]["negative_source"],
            "seed": cfg["evaluate"]["seed"],
        },
        "lineage": lineage,
    }


def _write_csv(path, header: list, rows) -> None:
    """A CSV (header, then rows; CRLF line ends), written atomically."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    write_text(path, buf.getvalue())


def _delta_report(before: dict, after: dict) -> dict:
    out = {}
    for group, metrics in before.items():
        out[group] = {}
        for key, value in metrics.items():
            if key == "support":
                out[group][key] = value
            else:
                out[group][key] = after[group][key] - value
    return out


# -------------------------------------------------------- commands


def cmd_ingest(cfg, args):
    ds = cfg["dataset"]
    if not ds["path"]:
        raise ConfigError("dataset.path is required for ingest")
    rows, malformed = ingest(ds["path"], format=ds["format"])
    catalog, sequences = build_sequences(rows, min_actions=ds["min_actions"])
    split_leave_one_out(catalog, sequences)  # validates 3+ actions per user

    n_actions = int(sum(len(s.items) for s in sequences))
    stats = {
        "n_users": len(sequences),
        "n_items": catalog.n_items,
        "n_actions": n_actions,
        "avg_actions_per_user": round(n_actions / len(sequences), 4),
        "density": round(n_actions / (len(sequences) * catalog.n_items), 6),
        "malformed_rows": malformed,
    }
    dhash = _dataset_hash(ds["path"], ds["format"], ds["min_actions"])
    store = _store_path(cfg)
    save_store(store, catalog, sequences, dhash, stats)

    print(f"dataset hash {dhash}")
    print(f"users   {stats['n_users']}")
    print(f"items   {stats['n_items']}")
    print(f"actions {stats['n_actions']}")
    print(f"avg actions/user {stats['avg_actions_per_user']}")
    print(f"density {stats['density']}")
    if malformed:
        print(f"warning: {malformed} malformed row(s) skipped", file=sys.stderr)
    return {"dataset": dhash}, [store]


def cmd_pretrain(cfg, args):
    catalog, split, store = load_store(_store_path(cfg))
    pc = PretrainConfig(variant=cfg["variant"], seed=cfg["seed"], **cfg["pretrain"])

    initial, offset = None, 0
    if getattr(args, "resume_from", None):
        initial, meta0, kind, _ = load_checkpoint(
            args.resume_from, expected_catalog_hash=catalog_hash(catalog.item_ids))
        if initial.config.variant != cfg["variant"]:
            raise DataError(f"{args.resume_from} holds a {initial.config.variant} model")
        offset = int(meta0.get("epochs_completed", 0))

    model, history = pretrain(split, catalog, pc, initial_model=initial, epoch_offset=offset)

    ckpt = _ckpt_path(cfg)
    meta = {
        "dataset_hash": store["dataset_hash"],
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "epochs_completed": offset + pc.epochs,
        "best_val_mrr": max((h["val_mrr"] for h in history), default=0.0),
    }
    save_checkpoint(ckpt, model, catalog_hash(catalog.item_ids), kind="pretrained", meta=meta)
    metrics_path = os.path.join(cfg["out"], f"metrics_{cfg['variant']}.jsonl")
    write_text(metrics_path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in history))

    if history:
        last = history[-1]
        print(f"epoch {last['epoch']}: loss {last['train_loss']:.4f} "
              f"val hr10 {last['val_hr10']:.4f} mrr {last['val_mrr']:.4f}")
    print(f"checkpoint fingerprint {params_fingerprint(named_parameters(model))}")
    return {"store": store["dataset_hash"]}, [ckpt, metrics_path]


def cmd_train_cities(cfg, args):
    catalog, split, store, model, ckpt = _load_base(cfg, getattr(args, "checkpoint", None))
    part = partition_head_tail(catalog, cfg["tau"])
    if cfg["cities"]["target_set"] == "all":
        targets = list(range(catalog.n_items))
    else:
        targets = [int(i) for i in part.head_set]

    few = _fewshot(cfg)
    w1, w2 = few.resolved_windows(cfg["variant"], model.config.max_len)
    sets = _sorted_sets(extract_context_sets(split, targets, w1, w2))

    c = cfg["cities"]
    tc = InferenceTrainConfig(
        epochs=c["epochs"], learning_rate=c["learning_rate"], warmup_steps=c["warmup_steps"],
        l2_coefficient=c["l2_coefficient"], dropout_rate=c["dropout_rate"],
        n_agg_blocks=c["n_agg_blocks"], n_agg_heads=c["n_agg_heads"], seed=cfg["seed"],
        phi_alpha_init=c["phi_alpha_init"], phi_alpha_frozen=bool(c["phi_alpha_frozen"]),
        context_batch_cap=c["context_batch_cap"],
    )
    fn, curve, skipped = train_inference_function(model, sets, few, tc)

    source = params_fingerprint(named_parameters(model))
    fn_file = _fn_path(cfg)
    save_inference_function(fn_file, fn, source, catalog_hash=catalog_hash(catalog.item_ids), meta={
        "dataset_hash": store["dataset_hash"],
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "target_set": c["target_set"],
        "few_shot": bool(c["few_shot"]),
        "skipped_items": skipped,
        "curve": curve,
    })
    curve_path = os.path.join(cfg["out"], f"curve_{cfg['variant']}.csv")
    _write_csv(curve_path, ["epoch", "mean_sq_distance"],
               [[i, repr(v)] for i, v in enumerate(curve)])

    if curve:
        print(f"distance {curve[0]:.4f} -> {curve[-1]:.4f} over {len(curve)} epochs"
              + (f" ({len(skipped)} targets skipped)" if skipped else ""))
    print(f"inference function fingerprint {inference_fingerprint(fn)}")
    return {"store": store["dataset_hash"], "checkpoint": source}, [fn_file, curve_path]


def _load_fn_for(cfg, args, model):
    path = getattr(args, "cities", None) or _fn_path(cfg)
    source = params_fingerprint(named_parameters(model))
    fn, meta, _, _ = load_inference_function(path, expected_source_fingerprint=source)
    return fn, meta, path, source


def cmd_apply_eval(cfg, args):
    catalog, split, store, model, ckpt = _load_base(cfg, getattr(args, "checkpoint", None))
    fn, fn_meta, fn_file, source = _load_fn_for(cfg, args, model)
    part = partition_head_tail(catalog, cfg["tau"])

    tail_sets = _sorted_sets(
        extract_context_sets(split, [int(i) for i in part.tail_set], fn.omega1, fn.omega2))
    ev = cfg["evaluate"]
    inferred = infer_embeddings(
        fn, model, tail_sets, part,
        rng=np.random.default_rng([ev["seed"], 9]),
        context_batch_cap=cfg["cities"]["context_batch_cap"],
    )
    repaired = apply_embeddings(model, inferred)
    inferred_items = [e.item for e in inferred if e.provenance == "inferred"]

    applied_path = os.path.join(cfg["out"], f"applied_{cfg['variant']}.json")
    save_checkpoint(applied_path, repaired, catalog_hash(catalog.item_ids), kind="applied", meta={
        "dataset_hash": store["dataset_hash"],
        "base_fingerprint": source,
        "fn_fingerprint": inference_fingerprint(fn),
        "inferred_items": inferred_items,
    })

    run = _paired_evaluation(cfg, split, catalog, model.config.max_len)
    before = run(ModelRanker(model), part)
    after = run(ModelRanker(repaired), part)

    lineage = {
        "dataset_hash": store["dataset_hash"],
        "base_checkpoint": source,
        "inference_function": inference_fingerprint(fn),
        "inferred_rows": len(inferred_items),
    }
    out = cfg["out"]
    paths = {
        "before": os.path.join(out, f"report_before_{cfg['variant']}.json"),
        "after": os.path.join(out, f"report_after_{cfg['variant']}.json"),
        "delta": os.path.join(out, f"report_delta_{cfg['variant']}.json"),
    }
    write_json(paths["before"], _report_doc(before, cfg, lineage))
    write_json(paths["after"], _report_doc(after, cfg, lineage))
    write_json(paths["delta"], _report_doc(_delta_report(before, after), cfg, lineage))

    for name, rep in (("before", before), ("after", after)):
        print(f"{name:6s} all {rep['all']['hr10']:.4f}  head {rep['head']['hr10']:.4f}  "
              f"tail {rep['tail']['hr10']:.4f}  (hr10)")
    d = _delta_report(before, after)
    print(f"delta  all {d['all']['hr10']:+.4f}  head {d['head']['hr10']:+.4f}  "
          f"tail {d['tail']['hr10']:+.4f}  (hr10)")
    return {"store": store["dataset_hash"], "checkpoint": source,
            "inference_function": inference_fingerprint(fn)}, \
           [applied_path, *paths.values()]


def cmd_baseline(cfg, args):
    catalog, split, store = load_store(_store_path(cfg))
    name = getattr(args, "name", None) or cfg["baseline"]["name"]
    part = partition_head_tail(catalog, cfg["tau"])

    base = None
    lineage = {"dataset_hash": store["dataset_hash"]}
    if name == "rerank":
        _, _, _, model, ckpt = _load_base(cfg, getattr(args, "checkpoint", None))
        base = ModelRanker(model)
        lineage["base_checkpoint"] = params_fingerprint(named_parameters(model))
    ranker = make_baseline(name, catalog, split, base=base)
    report = _paired_evaluation(cfg, split, catalog, cfg["pretrain"]["max_len"])(ranker, part)
    path = os.path.join(cfg["out"], f"baseline_{name}.json")
    write_json(path, _report_doc(report, cfg, lineage))
    print(f"{name}: all hr10 {report['all']['hr10']:.4f}  mrr {report['all']['mrr']:.4f}")
    return {"store": store["dataset_hash"]}, [path]


def cmd_sweep(cfg, args):
    catalog, split, store, model, ckpt = _load_base(cfg, getattr(args, "checkpoint", None))
    fn, fn_meta, fn_file, source = _load_fn_for(cfg, args, model)

    parameter = getattr(args, "parameter", None) or cfg["sweep"]["parameter"]
    if getattr(args, "values", None):
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"--values must be a comma-separated number list, got {args.values!r}")
    else:
        values = [float(v) for v in cfg["sweep"]["values"]]
    if parameter == "kappa" and any(v < 1 for v in values):
        raise ConfigError("kappa sweep values must be >= 1")
    if parameter == "tau" and any(not 0.0 < v < 1.0 for v in values):
        raise ConfigError("tau sweep values must lie strictly between 0 and 1")

    ev = cfg["evaluate"]
    run = _paired_evaluation(cfg, split, catalog, model.config.max_len)
    all_sets = extract_context_sets(split, range(catalog.n_items), fn.omega1, fn.omega2)
    cache = {}  # window vectors; every value indexes the windows of all_sets

    rows = []
    for v in sorted(values):
        if parameter == "tau":
            part_v = partition_head_tail(catalog, float(v))
            cap = cfg["cities"]["context_batch_cap"]
        else:
            part_v = partition_head_tail(catalog, cfg["tau"])
            cap = int(v)  # contexts available per tail item at inference
        tail_sets = [all_sets[int(i)] for i in part_v.tail_set]
        inferred = infer_embeddings(fn, model, tail_sets, part_v,
                                    rng=np.random.default_rng([ev["seed"], 9]),
                                    context_batch_cap=cap, cache=cache)
        repaired = apply_embeddings(model, inferred)
        report = run(ModelRanker(repaired), part_v)
        rows.append((float(v), report["all"]["hr10"]))
        print(f"{parameter}={v:g}: all hr10 {report['all']['hr10']:.4f}")

    path = os.path.join(cfg["out"], f"sweep_{parameter}_{cfg['variant']}.csv")
    _write_csv(path, ["value", "hr10_all"], [[repr(v), repr(hr)] for v, hr in rows])
    return {"store": store["dataset_hash"], "checkpoint": source,
            "inference_function": inference_fingerprint(fn)}, [path]


def _indices(ids, index_of: dict, what: str) -> list[int]:
    """Catalog indices of a list of item ids; a DataError names ``what``."""
    if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
        raise DataError(f"{what} must be a list of item ids")
    unknown = next((s for s in ids if s not in index_of), None)
    if unknown is not None:
        raise DataError(f"{what} references unknown item id {unknown!r}")
    return [index_of[s] for s in ids]


def _window_from_ids(payload_window: dict, index_of: dict) -> ContextWindow:
    if not isinstance(payload_window, dict):
        raise DataError("a context window must be an object with left/right id lists")
    left, right = (np.asarray(_indices(payload_window.get(side, []), index_of,
                                       f"context window side {side!r}"), dtype=np.int64)
                   for side in ("left", "right"))
    return ContextWindow(left=left, right=right, user_index=-1, position=len(left))


def _read_new_items(path: str, index_of: dict) -> list:
    """-> [(item id, windows, test histories as index lists)] from a new-item
    context file; a missing or mistyped field is a one-line DataError."""
    payload = read_json(path, "context file")
    if not isinstance(payload.get("items"), list):
        raise DataError(f"{path}: 'items' must be a list")
    out = []
    for entry in payload["items"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("item"), str):
            raise DataError(f"{path}: every entry of 'items' needs an 'item' id string")
        where = f"{path}: new item {entry['item']!r}"
        for key in ("windows", "test_cases"):
            if not isinstance(entry.get(key), list):
                raise DataError(f"{where}: '{key}' must be a list")
        if not entry["windows"]:
            raise DataError(f"{where} has no context windows")
        windows = [_window_from_ids(w, index_of) for w in entry["windows"]]
        histories = []
        for case in entry["test_cases"]:
            history = _indices(case.get("history") if isinstance(case, dict) else None,
                               index_of, f"{where}: test history")
            if not history:
                raise DataError(f"{where}: a test case has an empty 'history'")
            histories.append(history)
        out.append((entry["item"], windows, histories))
    return out


def cmd_new_item(cfg, args):
    catalog, split, store, model, ckpt = _load_base(cfg, getattr(args, "checkpoint", None))
    fn, fn_meta, fn_file, source = _load_fn_for(cfg, args, model)
    contexts_path = getattr(args, "contexts", None) or cfg["new_item"]["contexts"]
    if not contexts_path:
        raise ConfigError("new-item needs a context file (--contexts or new_item.contexts)")
    new_items = _read_new_items(contexts_path, catalog.index_of)

    ev = cfg["evaluate"]
    neg_rng = np.random.default_rng([ev["seed"], 5])
    entries, extended = infer_new_items(fn, model, [wins for _, wins, _ in new_items],
                                        seed=[ev["seed"], 9],
                                        context_batch_cap=cfg["cities"]["context_batch_cap"])
    ranker = ModelRanker(extended)
    results = []
    ranks_all = []
    for (item_id, windows, case_histories), emb in zip(new_items, entries):
        histories, cands = [], []
        for hist in case_histories:
            negatives = sample_negatives(
                np.asarray(hist, dtype=np.int64), catalog, ev["n_negatives"], neg_rng,
                source=ev["negative_source"])
            histories.append(np.asarray(hist[-extended.config.max_len:]))
            cands.append(np.concatenate([[emb.item], negatives]))
        if histories:
            # one case per call keeps each case's scores independent of the
            # other cases in the file (BLAS may round a batch differently)
            ranks = rank_cases(ranker, histories, np.stack(cands), batch_size=1)
            g = _group_metrics(ranks)
            results.append({
                "item": item_id,
                "index": emb.item,
                "n_windows": len(windows),
                "n_test_cases": g["support"],
                "hr10": g["hr10"],
                "mrr": g["mrr"],
            })
            ranks_all.append(ranks)

    if not ranks_all:
        raise DataError("context file contains no usable test cases")
    g = _group_metrics(np.concatenate(ranks_all))
    overall = {
        "n_items": len(entries),
        "n_test_cases": g["support"],
        "hr5": g["hr5"],
        "hr10": g["hr10"],
        "mrr": g["mrr"],
    }

    out = cfg["out"]
    report_path = os.path.join(out, f"new_item_report_{cfg['variant']}.json")
    write_json(report_path, {
        "overall": overall,
        "items": results,
        "lineage": {
            "dataset_hash": store["dataset_hash"],
            "base_checkpoint": source,
            "inference_function": inference_fingerprint(fn),
            "contexts": os.path.basename(contexts_path),
        },
    })
    emb_path = os.path.join(out, f"new_item_embeddings_{cfg['variant']}.csv")
    _write_csv(emb_path, ["item_id", "index", *[f"e{i}" for i in range(model.config.d)]],
               [[item_id, emb.item, *[repr(float(x)) for x in emb.vector]]
                for (item_id, _, _), emb in zip(new_items, entries)])

    print(f"{overall['n_items']} new items, {overall['n_test_cases']} test cases: "
          f"hr10 {overall['hr10']:.4f}  mrr {overall['mrr']:.4f}")
    return {"store": store["dataset_hash"], "checkpoint": source,
            "inference_function": inference_fingerprint(fn)}, [report_path, emb_path]


def cmd_export_embeddings(cfg, args):
    catalog, split, store = load_store(_store_path(cfg))
    path = getattr(args, "checkpoint", None) or _ckpt_path(cfg)
    model, meta, kind, _ = load_checkpoint(path, expected_catalog_hash=catalog_hash(catalog.item_ids))
    inferred = set(meta.get("inferred_items", []))

    out_path = os.path.join(cfg["out"], f"embeddings_{os.path.basename(path).rsplit('.', 1)[0]}.csv")
    weights = model.table.weights.values
    _write_csv(out_path, ["index", "item_id", "provenance", *[f"e{i}" for i in range(model.config.d)]],
               [[i, catalog.item_ids[i], "inferred" if i in inferred else "original",
                 *[repr(float(x)) for x in weights[i]]] for i in range(model.config.n_items)])
    print(f"wrote {model.config.n_items} rows to {out_path}")
    return {"store": store["dataset_hash"], "checkpoint": os.path.basename(path)}, [out_path]


COMMANDS = {
    "ingest": cmd_ingest,
    "pretrain": cmd_pretrain,
    "train-cities": cmd_train_cities,
    "apply-eval": cmd_apply_eval,
    "baseline": cmd_baseline,
    "sweep": cmd_sweep,
    "new-item": cmd_new_item,
    "export-embeddings": cmd_export_embeddings,
}


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS so a flag left unset on the subcommand does not overwrite the
    # value the root parser already parsed (flags work in either position)
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="override config seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--variant", choices=["gru", "transformer"], help="encoder variant")

    p = argparse.ArgumentParser(prog="tailrec", description=__doc__.splitlines()[0],
                                parents=[common])
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser("ingest", parents=[common], help="parse the interaction log into a dataset store")
    sp = sub.add_parser("pretrain", parents=[common], help="train the base recommender")
    sp.add_argument("--resume-from", dest="resume_from", help="continue from a checkpoint")
    sp = sub.add_parser("train-cities", parents=[common],
                        help="train the embedding-inference function on well-observed items")
    sp.add_argument("--checkpoint", help="base checkpoint (default: <out>/checkpoint_<variant>.json)")
    sp = sub.add_parser("apply-eval", parents=[common],
                        help="inject inferred embeddings and evaluate before/after")
    sp.add_argument("--checkpoint")
    sp.add_argument("--cities", help="inference-function file (default: <out>/cities_<variant>.json)")
    sp = sub.add_parser("baseline", parents=[common], help="evaluate a non-learned ranker")
    sp.add_argument("--name", choices=["pop", "spop", "fomc", "rerank"])
    sp.add_argument("--checkpoint", help="needed for rerank")
    sp = sub.add_parser("sweep", parents=[common], help="evaluate across tau or kappa values")
    sp.add_argument("--parameter", choices=["tau", "kappa"])
    sp.add_argument("--values", help="comma-separated values")
    sp.add_argument("--checkpoint")
    sp.add_argument("--cities")
    sp = sub.add_parser("new-item", parents=[common],
                        help="infer embeddings for unseen items from a context file")
    sp.add_argument("--contexts", help="JSON context/test-case payload")
    sp.add_argument("--checkpoint")
    sp.add_argument("--cities")
    sp = sub.add_parser("export-embeddings", parents=[common],
                        help="dump the embedding table (with provenance) to CSV")
    sp.add_argument("--checkpoint")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        os.makedirs(cfg["out"], exist_ok=True)
        with _lock(cfg["out"]):
            started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            inputs, outputs = COMMANDS[args.command](cfg, args)
            _write_manifest(cfg, args.command, inputs, outputs, started)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
