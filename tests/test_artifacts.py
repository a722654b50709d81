"""The artifact container: pinned parameter names, byte-stable round trips,
and writes that a failure part-way cannot tear."""

import json
import os

import numpy as np
import pytest

from tailrec import artifacts
from tailrec.artifacts import write_json, write_text
from tailrec.model import ModelConfig, init_model, load_checkpoint, named_parameters, save_checkpoint
from tailrec.repair import (
    FewShotConfig,
    InferenceTrainConfig,
    init_inference_function,
    load_inference_function,
    save_inference_function,
)

BLOCK = ["wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
         "ln1_gain", "ln1_bias", "w1", "b1", "w2", "b2", "ln2_gain", "ln2_bias"]
GRU = ["wz", "uz", "bz", "wr", "ur", "br", "wc", "uc", "bc"]


def blocks(prefix, n):
    return [f"{prefix}.{i}.{f}" for i in range(n) for f in BLOCK]


CHECKPOINT_NAMES = {
    "gru": ["table.weights", "table.item_bias", *(f"encoder.gru.{f}" for f in GRU)],
    "transformer": ["table.weights", "table.item_bias", "table.positional",
                    "table.ln_gain", "table.ln_bias", *blocks("encoder.blocks", 2),
                    "encoder.head_w", "encoder.head_b"],
}
FUNCTION_NAMES = {
    "gru": [*(f"interpreter.gru.{f}" for f in GRU), *blocks("agg.blocks", 2),
            "agg.out_w", "agg.out_b"],
    "transformer": [*blocks("interpreter.blocks", 2), "interpreter.head_w",
                    "interpreter.head_b", *blocks("agg.blocks", 2), "agg.out_w", "agg.out_b"],
}


def model_and_fn(variant):
    model = init_model(ModelConfig(variant=variant, n_items=12, d=8, n_blocks=2, n_heads=2,
                                   max_len=6), np.random.default_rng(1))
    fn = init_inference_function(model, FewShotConfig(), InferenceTrainConfig(n_agg_heads=2),
                                 np.random.default_rng(2))
    return model, fn


@pytest.mark.parametrize("variant", ["gru", "transformer"])
def test_parameter_names_and_order_are_pinned(variant):
    model, fn = model_and_fn(variant)
    assert [n for n, _ in named_parameters(model)] == CHECKPOINT_NAMES[variant]
    assert [n for n, _ in named_parameters(fn)] == FUNCTION_NAMES[variant]
    assert len(CHECKPOINT_NAMES[variant]) == {"gru": 11, "transformer": 39}[variant]


def _save_model(path, obj):
    save_checkpoint(path, obj, "c" * 64, "pretrained", meta={"epochs_completed": 3})


def _load_model(path):
    return load_checkpoint(path, expected_catalog_hash="c" * 64)[0]


def _save_fn(path, obj):
    save_inference_function(path, obj, "f" * 64, catalog_hash="c" * 64, meta={"curve": [0.5]})


def _load_fn(path):
    return load_inference_function(path, expected_source_fingerprint="f" * 64)[0]


@pytest.mark.parametrize("variant", ["gru", "transformer"])
@pytest.mark.parametrize("kind", ["checkpoint", "inference_function"])
def test_save_load_save_is_byte_identical(tmp_path, variant, kind):
    model, fn = model_and_fn(variant)
    obj, save, load = ((model, _save_model, _load_model) if kind == "checkpoint"
                       else (fn, _save_fn, _load_fn))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save(first, obj)
    save(second, load(first))
    assert first.read_bytes() == second.read_bytes()


def _fail_mid_write(monkeypatch):
    """Files the artifact writer opens take 100 characters, then fail."""
    def open_then_fail(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def write_then_fail(text):
            write(text[:100])
            raise RuntimeError("killed mid-write")

        fh.write = write_then_fail
        return fh

    monkeypatch.setattr(artifacts, "open", open_then_fail, raising=False)


def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    model, _ = model_and_fn("gru")
    path = tmp_path / "checkpoint_gru.json"
    _save_model(path, model)
    before = path.read_bytes()
    model.table.weights.values += 1.0
    _fail_mid_write(monkeypatch)
    with pytest.raises(RuntimeError, match="mid-write"):
        _save_model(path, model)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["checkpoint_gru.json"]  # no temp file left


def test_write_json_bytes_are_json_dump_bytes(tmp_path):
    # the one-call encoder writes what json.dump writes, byte for byte
    rng = np.random.default_rng(0)
    doc = {
        "params": {"b": rng.standard_normal((3, 4)).tolist(), "a": [[-0.0, 1e-300, -1e308]]},
        "ünïcode ключ": {"z": 5e-324, "n": [1, 2.5, None, True], "s": "é\u2028\n\"q\""},
        "empty": [[], {}],
    }
    path = tmp_path / "doc.json"
    write_json(path, doc)
    with open(tmp_path / "ref.json", "w", newline="", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_failed_first_write_leaves_nothing(tmp_path, monkeypatch):
    _fail_mid_write(monkeypatch)
    with pytest.raises(RuntimeError):
        write_json(tmp_path / "report.json", {"groups": {}})
    assert os.listdir(tmp_path) == []


def test_failed_text_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "curve_gru.csv"
    write_text(path, "epoch,mean_sq_distance\r\n0,0.5\r\n")
    before = path.read_bytes()
    assert before == b"epoch,mean_sq_distance\r\n0,0.5\r\n"  # line endings kept as given

    def killed_before_rename(src, dst):
        raise RuntimeError("killed before the rename")

    monkeypatch.setattr(os, "replace", killed_before_rename)
    with pytest.raises(RuntimeError, match="before the rename"):
        write_text(path, "epoch,mean_sq_distance\r\n0,0.25\r\n")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["curve_gru.csv"]  # no temp file left
