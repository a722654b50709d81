"""Span recorder and op counters for the traced benchmark run.

Tracing wraps the program's functions from outside, at the names they are
looked up by: a function imported with ``from .x import f`` is replaced in
every ``tailrec`` module that holds it, so calls through any binding are
seen. Layer functions become spans (name, start, end, parent) kept in memory;
tensor ops, which run a hundred thousand times per command, only bump
aggregated counters. ``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# functions recorded as spans, by module; a dotted name is a method
SPANS = {
    "model": ["encode", "encode_gru", "encode_transformer", "score", "score_candidates",
              "clone_model", "save_checkpoint", "load_checkpoint"],
    "data": ["ingest", "build_sequences", "split_leave_one_out", "extract_context_sets",
             "sample_negatives"],
    "pretrain": ["pretrain", "validate", "make_next_item_examples", "make_masked_examples"],
    "repair": ["train_inference_function", "interpret_context", "aggregate", "infer_one",
               "infer_embeddings", "load_inference_function"],
    "evaluate": ["evaluate", "build_test_candidates", "rank_of_truth",
                 "ModelRanker.score_batch"],
    "optim": ["adam_step"],
    "cli": ["load_store", "save_store"],
}
TENSOR_OPS = ["matmul", "add", "mul", "take_rows", "sigmoid", "tanh_", "gelu", "layer_norm",
              "softmax", "logsumexp", "transpose", "reshape"]
# the runner opens a span "cli.<command>" around each command it issues
CLI_COMMANDS = ["ingest", "pretrain", "train-cities", "apply-eval", "sweep", "new-item",
                "baseline"]
# spans whose per-call latency distribution is reported
PER_CALL = {"tensor.backward", "repair.interpret_context"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.ops = {name: [0, 0.0] for name in TENSOR_OPS}  # name -> [calls, seconds]
        self.tape_records: list[int] = []
        self.windows_encoded = 0
        self.windows_distinct = 0
        self._window_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def new_command(self) -> None:
        """Window reuse is counted per command: encoder weights are fixed
        within one command, so a window encoded twice there is wasted work."""
        self._window_keys = set()

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    def _op(self, name, fn):
        stat = self.ops[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += time.perf_counter() - t0
        return wrapper

    def _backward(self, fn):
        span = self._span("tensor.backward", fn)

        @functools.wraps(fn)
        def wrapper(tape, loss):
            self.tape_records.append(len(tape))
            return span(tape, loss)
        return wrapper

    def _interpret(self, fn):
        from tailrec.data import ContextWindow

        span = self._span("repair.interpret_context", fn)

        @functools.wraps(fn)
        def wrapper(ifn, model, windows, *args, **kwargs):
            listed = [windows] if isinstance(windows, ContextWindow) else windows
            for w in listed:
                # payload windows of new items carry no corpus position
                key = ((w.user_index, w.position) if w.user_index >= 0
                       else (w.left.tobytes(), w.right.tobytes()))
                if key not in self._window_keys:
                    self._window_keys.add(key)
                    self.windows_distinct += 1
            self.windows_encoded += len(listed)
            return span(ifn, model, windows, *args, **kwargs)
        return wrapper

    # ------------------------------------------------------- patching

    def install(self) -> None:
        import tailrec.cli  # noqa: F401  imports every module that gets wrapped
        import tailrec.tensor as tensor

        for module, names in SPANS.items():
            mod = sys.modules[f"tailrec.{module}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self._span(f"{module}.{name}", getattr(cls, meth)))
                    continue
                original = getattr(mod, name)
                if (module, name) == ("repair", "interpret_context"):
                    wrapped = self._interpret(original)
                else:
                    wrapped = self._span(f"{module}.{name}", original)
                self._rebind(original, wrapped)
        for name in TENSOR_OPS:
            self._rebind(getattr(tensor, name), self._op(name, getattr(tensor, name)))
        self._set(tensor.Tape, "backward", self._backward(tensor.Tape.backward))

    def _rebind(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tailrec" or mod_name.startswith("tailrec."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------- results

    def totals(self) -> dict:
        """name -> {calls, s, self_s, durations}; self time is the span's
        duration minus the durations of its direct children (one thread, so
        children never overlap)."""
        out: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_time[i]
            if name in PER_CALL:
                t["durations"].append(end - start)
        return out

    def layer_metrics(self, per: int) -> dict:
        """Every per-layer value, divided by ``per`` traced passes so runs of
        different lengths compare."""
        m: dict[str, float] = {}
        totals = self.totals()
        for module, names in [*SPANS.items(), ("cli", CLI_COMMANDS)]:
            for name in names:
                t = totals.get(f"{module}.{name}", {"calls": 0, "s": 0.0, "self_s": 0.0})
                for key in ("calls", "s", "self_s"):
                    m[f"{module}.{name}.{key}"] = t[key] / per
        for name in PER_CALL:
            d = np.asarray(totals.get(name, {}).get("durations", [0.0])) * 1e3
            m[f"{name}.p50_ms"] = float(np.percentile(d, 50))
            m[f"{name}.p99_ms"] = float(np.percentile(d, 99))
        back = totals.get("tensor.backward", {"calls": 0, "s": 0.0})
        m["tensor.backward.calls"] = back["calls"] / per
        m["tensor.backward.s"] = back["s"] / per
        for name, (calls, seconds) in self.ops.items():
            m[f"tensor.{name}.calls"] = calls / per
            m[f"tensor.{name}.s"] = seconds / per
        m["tensor.records_per_backward"] = (
            float(np.mean(self.tape_records)) if self.tape_records else 0.0)
        m["repair.windows_encoded"] = self.windows_encoded / per
        m["repair.windows_distinct"] = self.windows_distinct / per
        m["repair.window_reuse"] = (
            self.windows_distinct / self.windows_encoded if self.windows_encoded else 0.0)
        return m

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "ops": self.ops}, fh)
