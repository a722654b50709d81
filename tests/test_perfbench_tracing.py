"""The benchmark's trace mode (``perfbench/tracing.py``) wraps tailrec
functions by the names it lists in ``SPANS``. Each name must still resolve,
or ``perfbench/run.py --trace 1`` fails at install."""

import importlib.util
import os
import sys

import numpy as np

import tailrec.tensor as tensor
from tailrec.model import ModelConfig, init_model, ranking_states

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    import tailrec.cli  # noqa: F401  the tracer wraps names in every module cli imports

    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "tailrec" or name.startswith("tailrec.")
            for attr, value in vars(mod).items()}


def test_trace_mode_installs_spans_the_live_path_and_uninstalls():
    tracing = _load_tracing()
    before, backward = _bindings(), tensor.Tape.backward
    tracer = tracing.Tracer()
    try:
        tracer.install()  # AttributeError here: a SPANS name left tailrec
        for module, names in tracing.SPANS.items():
            for name in names:
                owner = sys.modules[f"tailrec.{module}"]
                for part in name.split("."):
                    owner = getattr(owner, part)
                assert hasattr(owner, "__wrapped__"), f"{module}.{name} is not wrapped"
        model = init_model(ModelConfig("transformer", n_items=5, d=4, n_blocks=1, n_heads=2,
                                       max_len=4), np.random.default_rng(0))
        ranking_states(model, [[1, 2, 3]])
        spans = {span[0] for span in tracer.spans}
        assert {"model.encode", "model.encode_transformer"} <= spans
        assert tracer.ops["matmul"][0] > 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tensor.Tape.backward is backward
