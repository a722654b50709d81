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
from dataclasses import fields

import numpy as np

from .data import (
    Catalog,
    ContextWindow,
    UserSequence,
    build_sequences,
    extract_context_sets,
    ingest,
    partition_head_tail,
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

BASELINES = ("pop", "spop", "fomc", "rerank")


def _defaults(cls, *omit) -> dict:
    """``cls``'s field defaults by name, without the fields named in ``omit``."""
    return {f.name: f.default for f in fields(cls) if f.name not in omit}


# The pretrain and cities sections are the fields of the dataclasses that
# check them; the seed and variant come from the top level.
DEFAULT_CONFIG = {
    "dataset": {"path": "", "format": "csv", "min_actions": 5},
    "variant": "gru",
    "seed": 0,
    "out": "runs/default",
    "tau": 0.5,
    "pretrain": _defaults(PretrainConfig, "variant", "seed"),
    "cities": {**_defaults(InferenceTrainConfig, "seed"), **_defaults(FewShotConfig),
               "target_set": "head"},
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
            uv = out[key] = user.get(key, dv)
            if not _same_type(uv, dv):
                raise ConfigError(f"config key {prefix}{key} must be {_TYPE_NAMES[type(dv)]}, "
                                  f"got {json.dumps(uv)}")
    return out


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list: "a list", type(None): "an integer or null"}


def _same_type(value, default) -> bool:
    """A value read from a config file has its default's type. An integer
    may stand where the default is a float or None; a bool is no integer."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if default is None:
        return value is None or isinstance(value, int)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def _validate(cfg: dict) -> None:
    """Checks of the keys no dataclass owns; ``load_config`` builds the
    dataclasses, which check the pretrain and cities sections."""
    tau = cfg["tau"]
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"tau must lie strictly between 0 and 1, got {tau}")
    if cfg["cities"]["target_set"] not in ("head", "all"):
        raise ConfigError(f"target_set must be head or all, got {cfg['cities']['target_set']!r}")
    if cfg["dataset"]["format"] not in ("csv", "jsonl"):
        raise ConfigError(f"dataset.format must be csv or jsonl, got {cfg['dataset']['format']!r}")
    if cfg["sweep"]["parameter"] not in ("tau", "kappa"):
        raise ConfigError(f"sweep.parameter must be tau or kappa, got {cfg['sweep']['parameter']!r}")
    if cfg["evaluate"]["negative_source"] not in ("full", "test"):
        raise ConfigError("evaluate.negative_source must be full or test, "
                          f"got {cfg['evaluate']['negative_source']!r}")
    if cfg["baseline"]["name"] not in BASELINES:
        raise ConfigError(f"baseline.name must be one of {', '.join(BASELINES)}, "
                          f"got {cfg['baseline']['name']!r}")
    values = cfg["sweep"]["values"]
    if not values or not all(_same_type(v, 0.0) for v in values):
        raise ConfigError(f"sweep.values must be a non-empty list of numbers, got {json.dumps(values)}")
    _check_sweep_values(cfg["sweep"]["parameter"], [float(v) for v in values])
    bounded = [("seed", cfg["seed"], 0), ("evaluate.seed", cfg["evaluate"]["seed"], 0),
               ("evaluate.batch_size", cfg["evaluate"]["batch_size"], 1),
               ("evaluate.n_negatives", cfg["evaluate"]["n_negatives"], 1)]
    for key, value, least in bounded:
        if value < least:
            raise ConfigError(f"{key} must be >= {least}, got {value}")


def _build(cls, section: dict, **given):
    """``cls`` from the keys of ``section`` that name its fields, plus ``given``."""
    return cls(**given, **{f.name: section[f.name] for f in fields(cls) if f.name not in given})


class Config(dict):
    """The merged config, plus its pretrain and cities sections built into
    the dataclasses that check them and that the commands use."""

    pretrain: PretrainConfig
    cities: InferenceTrainConfig
    few_shot: FewShotConfig


def load_config(args) -> Config:
    """The merged, checked config. Every config error is a ConfigError
    raised here, before any file but the config is read."""
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
    cfg = Config(_merge(DEFAULT_CONFIG, user))
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "variant", None) is not None:
        cfg["variant"] = args.variant
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    if cfg["evaluate"]["seed"] is None:
        cfg["evaluate"]["seed"] = cfg["seed"]
    _validate(cfg)
    command = getattr(args, "command", None)
    if command == "ingest" and not cfg["dataset"]["path"]:
        raise ConfigError("dataset.path is required for ingest")
    if command == "new-item" and not (getattr(args, "contexts", None) or cfg["new_item"]["contexts"]):
        raise ConfigError("new-item needs a context file (--contexts or new_item.contexts)")
    cfg.pretrain = _build(PretrainConfig, cfg["pretrain"], variant=cfg["variant"], seed=cfg["seed"])
    cfg.cities = _build(InferenceTrainConfig, cfg["cities"], seed=cfg["seed"])
    cfg.few_shot = _build(FewShotConfig, cfg["cities"])
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
    if not users:
        raise DataError(f"{path}: store has no users")
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
    full_pop = np.bincount(np.concatenate([s.items for s in sequences]), minlength=n)
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


def _write_manifest(cfg, command, inputs: dict, outputs: list, started: str,
                    seconds: float) -> None:
    """Lineage and wall time of one command. Timings live only here: every
    other output must stay byte-identical between same-seed runs. A baseline
    or sweep is named after the one file it wrote (``manifest_baseline_pop.json``)."""
    key = os.path.splitext(os.path.basename(outputs[0]))[0] if command in ("baseline", "sweep") else command
    write_json(os.path.join(cfg["out"], f"manifest_{key}.json"), {
        "command": command,
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "inputs": inputs,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": seconds,
    })


def _load_base(cfg, checkpoint: str | None):
    catalog, split, store = load_store(_store_path(cfg))
    path = checkpoint or _ckpt_path(cfg)
    model, meta, kind, _ = load_checkpoint(path, expected_catalog_hash=catalog_hash(catalog.item_ids))
    if model.config.variant != cfg["variant"]:
        raise DataError(
            f"{path} holds a {model.config.variant} model but the config says {cfg['variant']}"
        )
    return catalog, split, store, model, path


def _paired_evaluation(cfg, split, catalog, max_len: int):
    """-> run(ranker, partition): the evaluation report on the fixed test
    candidates drawn from ``cfg["evaluate"]``, so every ranker a command
    compares meets the same negatives."""
    ev = cfg["evaluate"]
    candidates = build_test_candidates(
        split.test, split.full_sequences(), catalog,
        ev["n_negatives"], np.random.default_rng([ev["seed"], 4]), ev["negative_source"])

    def run(ranker, partition):
        return evaluate(ranker, split, partition, catalog, candidates,
                        max_len=max_len, batch_size=ev["batch_size"])
    return run


def _repair_and_rank(cfg, fn, model, sets_by_item: dict, partition, cap: int, run,
                     cache: dict | None = None):
    """Infer the rows of ``partition``'s tail items from their context sets,
    reading at most ``cap`` contexts each, write them into a copy of
    ``model`` and rank the copy with ``run`` (``_paired_evaluation``).
    -> (inferred, repaired model, report). apply-eval's "after" report and
    each sweep row come from here, so the two agree at the same τ and cap."""
    inferred = infer_embeddings(
        fn, model, [sets_by_item[int(i)] for i in partition.tail_set], partition,
        rng=np.random.default_rng([cfg["evaluate"]["seed"], 9]),
        context_batch_cap=cap, cache=cache)
    repaired = apply_embeddings(model, inferred)
    return inferred, repaired, run(ModelRanker(repaired), partition)


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

    initial, offset = None, 0
    if getattr(args, "resume_from", None):
        initial, meta0, kind, _ = load_checkpoint(
            args.resume_from, expected_catalog_hash=catalog_hash(catalog.item_ids))
        if initial.config.variant != cfg["variant"]:
            raise DataError(f"{args.resume_from} holds a {initial.config.variant} model")
        offset = meta0.get("epochs_completed", 0)
        if type(offset) is not int or offset < 0:
            raise DataError(f"{args.resume_from}: meta.epochs_completed must be a whole number "
                            f">= 0, got {json.dumps(offset)}")

    model, history = pretrain(split, catalog, cfg.pretrain, initial_model=initial,
                              epoch_offset=offset)

    ckpt = _ckpt_path(cfg)
    meta = {
        "dataset_hash": store["dataset_hash"],
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "epochs_completed": offset + cfg.pretrain.epochs,
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

    w1, w2 = cfg.few_shot.resolved_windows(cfg["variant"], model.config.max_len)
    sets = [cs for _, cs in sorted(extract_context_sets(split, targets, w1, w2).items())]
    fn, curve, skipped = train_inference_function(model, sets, cfg.few_shot, cfg.cities)

    source = params_fingerprint(named_parameters(model))
    fn_file = _fn_path(cfg)
    save_inference_function(fn_file, fn, source, catalog_hash=catalog_hash(catalog.item_ids), meta={
        "dataset_hash": store["dataset_hash"],
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "target_set": cfg["cities"]["target_set"],
        "few_shot": cfg.few_shot.few_shot,
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
    run = _paired_evaluation(cfg, split, catalog, model.config.max_len)
    inferred, repaired, after = _repair_and_rank(
        cfg, fn, model, extract_context_sets(split, part.tail_set, fn.omega1, fn.omega2), part,
        cfg.cities.context_batch_cap, run)
    inferred_items = [e.item for e in inferred if e.provenance == "inferred"]

    applied_path = os.path.join(cfg["out"], f"applied_{cfg['variant']}.json")
    save_checkpoint(applied_path, repaired, catalog_hash(catalog.item_ids), kind="applied", meta={
        "dataset_hash": store["dataset_hash"],
        "base_fingerprint": source,
        "fn_fingerprint": inference_fingerprint(fn),
        "inferred_items": inferred_items,
    })

    before = run(ModelRanker(model), part)

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
    report = _paired_evaluation(cfg, split, catalog, cfg.pretrain.max_len)(ranker, part)
    path = os.path.join(cfg["out"], f"baseline_{name}.json")
    write_json(path, _report_doc(report, cfg, lineage))
    print(f"{name}: all hr10 {report['all']['hr10']:.4f}  mrr {report['all']['mrr']:.4f}")
    return {"store": store["dataset_hash"]}, [path]


def _check_sweep_values(parameter: str, values: list[float]) -> None:
    if parameter == "kappa" and any(v < 1 or not v.is_integer() for v in values):
        raise ConfigError(f"kappa sweep values must be whole numbers >= 1, got {values}")
    if parameter == "tau" and any(not 0.0 < v < 1.0 for v in values):
        raise ConfigError("tau sweep values must lie strictly between 0 and 1")


def cmd_sweep(cfg, args):
    parameter = getattr(args, "parameter", None) or cfg["sweep"]["parameter"]
    if getattr(args, "values", None):
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"--values must be a comma-separated number list, got {args.values!r}")
    else:
        values = [float(v) for v in cfg["sweep"]["values"]]
    _check_sweep_values(parameter, values)
    catalog, split, store, model, ckpt = _load_base(cfg, getattr(args, "checkpoint", None))
    fn, fn_meta, fn_file, source = _load_fn_for(cfg, args, model)

    run = _paired_evaluation(cfg, split, catalog, model.config.max_len)
    all_sets = extract_context_sets(split, range(catalog.n_items), fn.omega1, fn.omega2)
    cache = {}  # window vectors; every value indexes the windows of all_sets

    rows = []
    for v in sorted(values):
        if parameter == "tau":
            part_v = partition_head_tail(catalog, float(v))
            cap = cfg.cities.context_batch_cap
        else:
            part_v = partition_head_tail(catalog, cfg["tau"])
            cap = int(v)  # contexts available per tail item at inference
        _, _, report = _repair_and_rank(cfg, fn, model, all_sets, part_v, cap, run, cache)
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
    context file. A missing or mistyped field, or an item id that is already
    in the catalog or comes twice, is a one-line DataError."""
    payload = read_json(path, "context file")
    if not isinstance(payload.get("items"), list):
        raise DataError(f"{path}: 'items' must be a list")
    out, seen = [], set()
    for entry in payload["items"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("item"), str):
            raise DataError(f"{path}: every entry of 'items' needs an 'item' id string")
        where = f"{path}: new item {entry['item']!r}"
        if entry["item"] in index_of:
            raise DataError(f"{where} is already in the catalog")
        if entry["item"] in seen:
            raise DataError(f"{where} appears twice")
        seen.add(entry["item"])
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
    contexts_path = getattr(args, "contexts", None) or cfg["new_item"]["contexts"]
    catalog, split, store, model, ckpt = _load_base(cfg, getattr(args, "checkpoint", None))
    fn, fn_meta, fn_file, source = _load_fn_for(cfg, args, model)
    new_items = _read_new_items(contexts_path, catalog.index_of)

    ev = cfg["evaluate"]
    entries, extended = infer_new_items(fn, model, [wins for _, wins, _ in new_items],
                                        seed=[ev["seed"], 9],
                                        context_batch_cap=cfg.cities.context_batch_cap)
    cases = [(emb.item, hist) for (_, _, case_histories), emb in zip(new_items, entries)
             for hist in case_histories]
    if not cases:
        raise DataError("context file contains no usable test cases")
    candidates = build_test_candidates(
        [item for item, _ in cases], [hist for _, hist in cases], catalog, ev["n_negatives"],
        np.random.default_rng([ev["seed"], 5]), ev["negative_source"])
    # one case per call keeps each case's scores independent of the other
    # cases in the file (BLAS may round a batch differently)
    ranks = rank_cases(ModelRanker(extended),
                       [np.asarray(hist[-extended.config.max_len:]) for _, hist in cases],
                       candidates, batch_size=1)
    results, lo = [], 0
    for (item_id, windows, case_histories), emb in zip(new_items, entries):
        if case_histories:
            g = _group_metrics(ranks[lo:lo + len(case_histories)])
            lo += len(case_histories)
            results.append({
                "item": item_id,
                "index": emb.item,
                "n_windows": len(windows),
                "n_test_cases": g["support"],
                "hr10": g["hr10"],
                "mrr": g["mrr"],
            })

    g = _group_metrics(ranks)
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
    inferred = meta.get("inferred_items", [])
    if not isinstance(inferred, list) or not all(type(i) is int for i in inferred):
        raise DataError(f"{path}: meta.inferred_items must be a list of item indices")
    inferred = set(inferred)

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
    sp.add_argument("--name", choices=BASELINES)
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
            t0 = time.perf_counter()
            inputs, outputs = COMMANDS[args.command](cfg, args)
            _write_manifest(cfg, args.command, inputs, outputs, started, time.perf_counter() - t0)
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
