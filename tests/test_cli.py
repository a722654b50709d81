"""End-to-end checks of the command-line pipeline on a tiny corpus.

The module fixture runs ingest -> pretrain -> train-cities once; individual
tests exercise the downstream commands, the exit-code contract, and the
byte-level reproducibility of the artifacts.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tailrec.cli import DEFAULT_CONFIG, main
from tailrec.data import build_sequences, ingest
from tailrec.model import ModelConfig, catalog_hash, init_model, save_checkpoint
from tailrec.repair import load_inference_function
from tailrec.synthetic import new_item_artifacts, synthetic_interactions, write_log_csv

SEED = 4


def run(*argv):
    return main([str(a) for a in argv])


def write_config(path, **overrides):
    cfg = {
        "dataset": {"path": overrides.pop("dataset_path"), "min_actions": 4},
        "variant": "gru",
        "seed": SEED,
        "out": overrides.pop("out"),
        "tau": 0.5,
        "pretrain": {
            "max_len": 10, "d": 16, "n_blocks": 1, "n_heads": 2,
            "epochs": 2, "batch_size": 64, "n_negatives": 20,
            "warmup_steps": 10,
        },
        "cities": {"epochs": 2, "kappa_max": 5, "n_agg_heads": 4, "warmup_steps": 10},
        "evaluate": {"n_negatives": 20},
    }
    cfg.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rows = synthetic_interactions(n_users=120, n_items=60, zipf_s=1.2,
                                  transition_prob=0.7, min_len=4, max_len=10, seed=2)
    kept, payload = new_item_artifacts(rows, n_new=3, omega1=9, omega2=0,
                                       min_occurrences=4, seed=2)
    log = root / "log.csv"
    write_log_csv(log, kept)
    contexts = root / "contexts.json"
    contexts.write_text(json.dumps(payload))

    out = root / "run"
    config = write_config(root / "config.json", dataset_path=str(log), out=str(out))
    assert run("--config", config, "ingest") == 0
    assert run("--config", config, "pretrain") == 0
    assert run("--config", config, "train-cities") == 0
    return {"root": root, "config": str(config), "out": out, "log": log,
            "contexts": str(contexts), "kept": kept}


# ------------------------------------------------------ config contract


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"pertrain": {"epochs": 1}}))
    assert run("--config", path, "ingest") == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("patch", [
    {"tau": 0.0},
    {"tau": 1.0},
    {"tau": "half"},
    {"variant": "lstm"},
    {"cities": {"kappa_max": 0}},
    {"pretrain": {"max_len": 1}},
    {"sweep": {"values": []}},
])
def test_invalid_values_exit_2_before_touching_data(tmp_path, patch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(patch))
    assert run("--config", path, "ingest") == 2


def test_missing_config_file_exits_2(tmp_path):
    assert run("--config", tmp_path / "nope.json", "ingest") == 2


def test_cli_overrides_beat_config(workspace, tmp_path):
    # --out redirects everything; the new directory gets its own store
    alt = tmp_path / "alt"
    rc = run("--config", workspace["config"], "--out", alt, "ingest")
    assert rc == 0
    assert (alt / "store.json").exists()


def test_unknown_command_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_missing_artifacts_exit_3(tmp_path):
    cfg = write_config(tmp_path / "c.json", dataset_path="/nonexistent.csv",
                       out=str(tmp_path / "empty"))
    assert run("--config", cfg, "pretrain") == 3  # no store yet
    assert run("--config", cfg, "ingest") == 3    # dataset file missing


def test_lock_blocks_second_run(workspace, capsys):
    # the lock names a live process: this one
    lock = workspace["out"] / ".lock"
    lock.write_text(f"{os.getpid()}\n")
    try:
        assert run("--config", workspace["config"], "export-embeddings") == 2
        assert "locked" in capsys.readouterr().err
    finally:
        lock.unlink()
    # and the failed run must not have eaten the pre-existing lock
    assert not lock.exists()


@pytest.mark.parametrize("content", ["", "not a pid\n", "0\n", "-1\n"])
def test_unreadable_lock_counts_as_held(workspace, content):
    lock = workspace["out"] / ".lock"
    lock.write_text(content)
    try:
        assert run("--config", workspace["config"], "export-embeddings") == 2
        assert lock.read_text() == content
    finally:
        lock.unlink()


def test_lock_of_a_dead_process_is_taken_over(workspace, tmp_path):
    finished = subprocess.Popen([sys.executable, "-c", "pass"])
    finished.wait()
    (tmp_path / ".lock").write_text(f"{finished.pid}\n")
    assert run("--config", workspace["config"], "--out", tmp_path, "ingest") == 0
    assert (tmp_path / "store.json").exists()
    assert not (tmp_path / ".lock").exists()


# ------------------------------------------------------------ ingest


def test_ingest_stats_match_direct_recount(workspace):
    store = json.loads((workspace["out"] / "store.json").read_text())
    rows, malformed = ingest(str(workspace["log"]))
    catalog, seqs = build_sequences(rows, min_actions=4)
    stats = store["stats"]
    assert malformed == stats["malformed_rows"] == 0
    assert stats["n_users"] == len(seqs)
    assert stats["n_items"] == catalog.n_items
    n_actions = sum(len(s.items) for s in seqs)
    assert stats["n_actions"] == n_actions
    assert stats["avg_actions_per_user"] == round(n_actions / len(seqs), 4)
    assert stats["density"] == round(n_actions / (len(seqs) * catalog.n_items), 6)


def test_ingest_is_byte_deterministic(workspace, tmp_path):
    cfg = write_config(tmp_path / "c.json", dataset_path=str(workspace["log"]),
                       out=str(tmp_path / "a"))
    assert run("--config", cfg, "ingest") == 0
    first = (tmp_path / "a" / "store.json").read_bytes()
    assert first == (workspace["out"] / "store.json").read_bytes()


def test_malformed_rows_are_counted(tmp_path, capsys):
    log = tmp_path / "log.csv"
    body = (workspace_rows := synthetic_interactions(40, 30, min_len=4, max_len=8, seed=3))
    write_log_csv(log, workspace_rows)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write("only-two,fields\n")
        fh.write("u999,i001,not-a-number\n")
    cfg = write_config(tmp_path / "c.json", dataset_path=str(log), out=str(tmp_path / "o"))
    assert run("--config", cfg, "ingest") == 0
    store = json.loads((tmp_path / "o" / "store.json").read_text())
    assert store["stats"]["malformed_rows"] == 2
    assert "malformed" in capsys.readouterr().err


# ------------------------------------------------- pretrain / resume


def test_pretrain_artifacts(workspace):
    ckpt = json.loads((workspace["out"] / "checkpoint_gru.json").read_text())
    assert ckpt["kind"] == "pretrained"
    assert ckpt["meta"]["epochs_completed"] == 2
    lines = (workspace["out"] / "metrics_gru.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert [json.loads(l)["epoch"] for l in lines] == [0, 1]


def test_manifest_records_lineage(workspace):
    man = json.loads((workspace["out"] / "manifest_pretrain.json").read_text())
    assert man["command"] == "pretrain"
    assert man["seed"] == SEED
    assert sorted(man["outputs"]) == ["checkpoint_gru.json", "metrics_gru.jsonl"]
    store = json.loads((workspace["out"] / "store.json").read_text())
    assert man["inputs"]["store"] == store["dataset_hash"]


def test_resume_from_continues_epoch_numbering(workspace, tmp_path):
    out = tmp_path / "resume"
    cfg = write_config(tmp_path / "c.json", dataset_path=str(workspace["log"]), out=str(out))
    assert run("--config", cfg, "ingest") == 0
    assert run("--config", cfg, "pretrain") == 0
    assert run("--config", cfg, "pretrain",
               "--resume-from", out / "checkpoint_gru.json") == 0
    ckpt = json.loads((out / "checkpoint_gru.json").read_text())
    assert ckpt["meta"]["epochs_completed"] == 4
    lines = (out / "metrics_gru.jsonl").read_text().splitlines()
    assert [json.loads(l)["epoch"] for l in lines] == [2, 3]


# ------------------------------------------------------ train-cities


def test_train_cities_artifacts(workspace):
    fn, meta, source, chash = load_inference_function(
        str(workspace["out"] / "cities_gru.json"))
    assert meta["target_set"] == "head"
    assert len(meta["curve"]) == 2
    ckpt = json.loads((workspace["out"] / "checkpoint_gru.json").read_text())
    assert chash == ckpt["catalog_hash"]
    rows = (workspace["out"] / "curve_gru.csv").read_text().splitlines()
    assert rows[0] == "epoch,mean_sq_distance"
    assert len(rows) == 3
    # curve CSV round-trips the float exactly
    assert float(rows[1].split(",")[1]) == meta["curve"][0]


def test_lineage_mismatch_is_refused(workspace, tmp_path, capsys):
    # a checkpoint trained with a different seed is not the function's parent
    out2 = tmp_path / "other"
    cfg2 = write_config(tmp_path / "c2.json", dataset_path=str(workspace["log"]),
                        out=str(out2), seed=SEED + 1)
    assert run("--config", cfg2, "ingest") == 0
    assert run("--config", cfg2, "pretrain") == 0
    rc = run("--config", workspace["config"], "apply-eval",
             "--checkpoint", out2 / "checkpoint_gru.json")
    assert rc == 3
    assert "different base checkpoint" in capsys.readouterr().err


def test_variant_flag_mismatching_checkpoint_exits_3(workspace):
    assert run("--config", workspace["config"], "--variant", "transformer",
               "train-cities") == 3


def _without(text, *keys):
    doc = json.loads(text)
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    del inner[keys[-1]]
    return json.dumps(doc)


def _with_nan(text):
    doc = json.loads(text)
    doc["params"]["agg.out_b"][0] = float("nan")
    return json.dumps(doc)


def _with_overflowing_output(text):
    # finite weights whose product overflows: the last block emits all ones,
    # so every pooled window sums 1e308 per input dimension into each output
    doc = json.loads(text)
    params = doc["params"]
    last = max(int(k.split(".")[2]) for k in params if k.startswith("agg.blocks."))
    params[f"agg.blocks.{last}.ln2_gain"] = [0.0] * len(params[f"agg.blocks.{last}.ln2_gain"])
    params[f"agg.blocks.{last}.ln2_bias"] = [1.0] * len(params[f"agg.blocks.{last}.ln2_bias"])
    params["agg.out_w"] = [[1e308] * len(row) for row in params["agg.out_w"]]
    return json.dumps(doc)


# an overflow must end in the one-line message, not in a warning printed ahead of it
NO_RUNTIME_WARNING = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.mark.parametrize("command,flag,source,corrupt", [
    ("apply-eval", "--checkpoint", "checkpoint_gru.json", lambda t: t[: len(t) // 2]),
    ("apply-eval", "--checkpoint", "checkpoint_gru.json", lambda t: _without(t, "config")),
    ("apply-eval", "--cities", "cities_gru.json", lambda t: _without(t, "config", "omega1")),
    ("apply-eval", "--checkpoint", "cities_gru.json", lambda t: t),
    ("export-embeddings", "--checkpoint", "cities_gru.json", lambda t: t),
    ("apply-eval", "--cities", "cities_gru.json", _with_nan),
    pytest.param("apply-eval", "--cities", "cities_gru.json", _with_overflowing_output,
                 marks=NO_RUNTIME_WARNING),
    pytest.param("new-item", "--cities", "cities_gru.json", _with_overflowing_output,
                 marks=NO_RUNTIME_WARNING),
], ids=["truncated-checkpoint", "checkpoint-without-config", "function-without-omega1",
        "function-as-checkpoint-apply-eval", "function-as-checkpoint-export",
        "function-with-nan-weight", "function-inferring-infinite-rows",
        "function-inferring-infinite-new-items"])
def test_corrupted_artifact_exits_3_with_one_line(workspace, tmp_path, capsys,
                                                  command, flag, source, corrupt):
    bad = tmp_path / source
    bad.write_text(corrupt((workspace["out"] / source).read_text()))
    contexts = ["--contexts", workspace["contexts"]] if command == "new-item" else []
    capsys.readouterr()
    assert run("--config", workspace["config"], command, flag, bad, *contexts) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: ") and "\n" not in err


def test_old_layout_transformer_checkpoint_exits_3_with_one_line(workspace, tmp_path, capsys):
    # checkpoints written while the encoder appended a [mask] column carry a
    # positional table with max_len + 1 rows; the container refuses the shape
    item_ids = json.loads((workspace["out"] / "store.json").read_text())["item_ids"]
    model = init_model(ModelConfig("transformer", n_items=len(item_ids), d=16, n_blocks=1,
                                   n_heads=2, max_len=10), np.random.default_rng(0))
    path = tmp_path / "checkpoint_transformer.json"
    save_checkpoint(path, model, catalog_hash(item_ids), "pretrained")
    doc = json.loads(path.read_text())
    positional = doc["params"]["table.positional"]
    assert len(positional) == 10
    positional.append(positional[-1])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("--config", workspace["config"], "--variant", "transformer", "apply-eval",
               "--checkpoint", path) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: ") and "\n" not in err
    assert "table.positional has shape (11, 16), expected (10, 16)" in err


def _with(text, value, *keys):
    doc = json.loads(text)
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return json.dumps(doc)


STORE_CORRUPTIONS = {
    "no-users": lambda t: _without(t, "users"),
    "no-sequences": lambda t: _without(t, "sequences"),
    "no-dataset-hash": lambda t: _without(t, "dataset_hash"),
    "fewer-sequences-than-users": lambda t: _with(t, json.loads(t)["sequences"][1:],
                                                  "sequences"),
    "item-ids-not-a-list": lambda t: _with(t, "i00", "item_ids"),
    "duplicate-item-id": lambda t: _with(t, json.loads(t)["item_ids"][0], "item_ids", 1),
    "sequence-not-a-list": lambda t: _with(t, "0 1 2", "sequences", 0),
    "index-too-large": lambda t: _with(t, 10**6, "sequences", 0, 0),
    "negative-index": lambda t: _with(t, -1, "sequences", 0, 0),
    "fractional-index": lambda t: _with(t, 1.5, "sequences", 0, 0),
    "nested-index": lambda t: _with(t, [1, 2], "sequences", 0, 0),
}


@pytest.mark.parametrize("corrupt", STORE_CORRUPTIONS.values(), ids=STORE_CORRUPTIONS.keys())
def test_corrupted_store_exits_3_with_one_line(workspace, tmp_path, capsys, corrupt):
    out = tmp_path / "o"
    out.mkdir()
    (out / "store.json").write_text(corrupt((workspace["out"] / "store.json").read_text()))
    capsys.readouterr()
    assert run("--config", workspace["config"], "--out", out, "baseline", "--name", "pop") == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: ") and "\n" not in err


# --------------------------------------------------------- apply-eval


def test_apply_eval_reports(workspace):
    assert run("--config", workspace["config"], "apply-eval") == 0
    before = json.loads((workspace["out"] / "report_before_gru.json").read_text())
    after = json.loads((workspace["out"] / "report_after_gru.json").read_text())
    delta = json.loads((workspace["out"] / "report_delta_gru.json").read_text())
    for group in ("all", "head", "tail", "head_with_tail_in_sequence"):
        assert group in before["groups"]
        assert before["groups"][group]["support"] == after["groups"][group]["support"]
        np.testing.assert_allclose(
            delta["groups"][group]["hr10"],
            after["groups"][group]["hr10"] - before["groups"][group]["hr10"],
            atol=1e-15)
    applied = json.loads((workspace["out"] / "applied_gru.json").read_text())
    assert applied["kind"] == "applied"
    assert len(applied["meta"]["inferred_items"]) == delta["lineage"]["inferred_rows"]


def test_apply_eval_is_byte_idempotent(workspace):
    paths = [workspace["out"] / f"report_{k}_gru.json" for k in ("before", "after", "delta")]
    paths.append(workspace["out"] / "applied_gru.json")
    first = [p.read_bytes() for p in paths]
    assert run("--config", workspace["config"], "apply-eval") == 0
    assert [p.read_bytes() for p in paths] == first


def test_apply_eval_without_cities_exits_3(workspace, tmp_path):
    out = tmp_path / "fresh"
    cfg = write_config(tmp_path / "c.json", dataset_path=str(workspace["log"]), out=str(out))
    assert run("--config", cfg, "ingest") == 0
    assert run("--config", cfg, "pretrain") == 0
    assert run("--config", cfg, "apply-eval") == 3  # no inference function yet


# ----------------------------------------------------------- baseline


@pytest.mark.parametrize("name", ["pop", "spop", "fomc", "rerank"])
def test_baselines_run_and_report(workspace, name):
    assert run("--config", workspace["config"], "baseline", "--name", name) == 0
    doc = json.loads((workspace["out"] / f"baseline_{name}.json").read_text())
    hr = doc["groups"]["all"]["hr10"]
    assert 0.0 <= hr <= 1.0
    if name == "rerank":
        assert "base_checkpoint" in doc["lineage"]


def test_baseline_is_deterministic(workspace, tmp_path):
    path = workspace["out"] / "baseline_pop.json"
    assert run("--config", workspace["config"], "baseline", "--name", "pop") == 0
    first = path.read_bytes()
    assert run("--config", workspace["config"], "baseline", "--name", "pop") == 0
    assert path.read_bytes() == first


# -------------------------------------------------------------- sweep


def test_sweep_kappa_writes_sorted_curve(workspace):
    assert run("--config", workspace["config"], "sweep",
               "--parameter", "kappa", "--values", "3,1") == 0
    rows = (workspace["out"] / "sweep_kappa_gru.csv").read_text().splitlines()
    assert rows[0] == "value,hr10_all"
    values = [float(r.split(",")[0]) for r in rows[1:]]
    assert values == [1.0, 3.0]


def test_failed_sweep_write_keeps_the_previous_csv(workspace, monkeypatch, capsys):
    # CSV outputs go through the atomic writer: a failure before the rename
    # leaves the previous file and no temp file
    argv = ("--config", workspace["config"], "sweep", "--parameter", "kappa", "--values", "2")
    assert run(*argv) == 0
    path = workspace["out"] / "sweep_kappa_gru.csv"
    before = path.read_bytes()
    assert before.startswith(b"value,hr10_all\r\n")

    def full_disk(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    capsys.readouterr()
    assert run(*argv[:-1], "5") == 3
    assert capsys.readouterr().err.strip() == "data error: no space left on device"
    assert path.read_bytes() == before
    assert not [n for n in os.listdir(workspace["out"]) if n.endswith(".tmp")]


def test_sweep_tau_rejects_out_of_range_values(workspace):
    assert run("--config", workspace["config"], "sweep",
               "--parameter", "tau", "--values", "0.0,0.5") == 2


def test_sweep_tau_runs(workspace):
    assert run("--config", workspace["config"], "sweep",
               "--parameter", "tau", "--values", "0.4,0.6") == 0
    rows = (workspace["out"] / "sweep_tau_gru.csv").read_text().splitlines()
    assert len(rows) == 3


# ----------------------------------------------------------- new-item


def test_new_item_report_and_embeddings(workspace):
    assert run("--config", workspace["config"], "new-item",
               "--contexts", workspace["contexts"]) == 0
    doc = json.loads((workspace["out"] / "new_item_report_gru.json").read_text())
    assert doc["overall"]["n_items"] == 3
    assert doc["overall"]["n_test_cases"] >= 3
    assert 0.0 <= doc["overall"]["hr10"] <= 1.0
    assert doc["overall"]["mrr"] > 0.0
    rows = (workspace["out"] / "new_item_embeddings_gru.csv").read_text().splitlines()
    assert len(rows) == 4  # header + one row per withheld item
    header = rows[0].split(",")
    assert header[:2] == ["item_id", "index"] and len(header) == 2 + 16
    # the three new rows occupy consecutive indices past the catalog
    store = json.loads((workspace["out"] / "store.json").read_text())
    n = len(store["item_ids"])
    assert [int(r.split(",")[1]) for r in rows[1:]] == [n, n + 1, n + 2]


def test_new_item_unknown_id_exits_3(workspace, tmp_path, capsys):
    payload = {"items": [{"item": "ix", "windows": [{"left": ["zzz"], "right": []}],
                          "test_cases": [{"history": ["i00", "i01"]}]}]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run("--config", workspace["config"], "new-item", "--contexts", bad) == 3
    assert "unknown item id" in capsys.readouterr().err


PAYLOAD_CORRUPTIONS = {
    "no-items": lambda t: _without(t, "items"),
    "items-not-a-list": lambda t: _with(t, {}, "items"),
    "entry-not-an-object": lambda t: _with(t, "ix", "items", 0),
    "no-item": lambda t: _without(t, "items", 0, "item"),
    "item-not-a-string": lambda t: _with(t, 7, "items", 0, "item"),
    "no-windows": lambda t: _without(t, "items", 0, "windows"),
    "windows-not-a-list": lambda t: _with(t, "w", "items", 0, "windows"),
    "window-not-an-object": lambda t: _with(t, ["i00"], "items", 0, "windows", 0),
    "window-side-not-a-list": lambda t: _with(t, "i00", "items", 0, "windows", 0, "left"),
    "no-test-cases": lambda t: _without(t, "items", 0, "test_cases"),
    "test-case-not-an-object": lambda t: _with(t, ["i00"], "items", 0, "test_cases", 0),
    "no-history": lambda t: _without(t, "items", 0, "test_cases", 0, "history"),
    "history-not-a-list": lambda t: _with(t, "i00", "items", 0, "test_cases", 0, "history"),
    "history-id-not-a-string": lambda t: _with(t, [3], "items", 0, "test_cases", 0, "history"),
    "empty-history": lambda t: _with(t, [], "items", 0, "test_cases", 0, "history"),
}


@pytest.mark.parametrize("corrupt", PAYLOAD_CORRUPTIONS.values(),
                         ids=PAYLOAD_CORRUPTIONS.keys())
def test_malformed_new_item_payload_exits_3_with_one_line(workspace, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.json"
    with open(workspace["contexts"], encoding="utf-8") as fh:
        bad.write_text(corrupt(fh.read()))
    capsys.readouterr()
    assert run("--config", workspace["config"], "new-item", "--contexts", bad) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: ") and "\n" not in err


def test_new_item_without_contexts_exits_2(workspace):
    assert run("--config", workspace["config"], "new-item") == 2


# -------------------------------------------------- export-embeddings


def test_export_marks_inferred_rows(workspace):
    assert run("--config", workspace["config"], "apply-eval") == 0
    assert run("--config", workspace["config"], "export-embeddings",
               "--checkpoint", workspace["out"] / "applied_gru.json") == 0
    rows = (workspace["out"] / "embeddings_applied_gru.csv").read_text().splitlines()
    applied = json.loads((workspace["out"] / "applied_gru.json").read_text())
    inferred = {int(i) for i in applied["meta"]["inferred_items"]}
    store = json.loads((workspace["out"] / "store.json").read_text())
    assert len(rows) == 1 + len(store["item_ids"])
    seen = set()
    for r in rows[1:]:
        idx, item_id, prov = r.split(",")[:3]
        assert prov == ("inferred" if int(idx) in inferred else "original")
        seen.add(item_id)
    assert seen == set(store["item_ids"])


def test_export_base_checkpoint_is_all_original(workspace):
    assert run("--config", workspace["config"], "export-embeddings") == 0
    rows = (workspace["out"] / "embeddings_checkpoint_gru.csv").read_text().splitlines()
    assert all(r.split(",")[2] == "original" for r in rows[1:])
