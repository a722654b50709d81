"""Output files: one atomic writer, one JSON reader, one parameter container.

Every output file tailrec writes, JSON (:func:`write_json`) or CSV and
JSON-lines text (:func:`write_text`), goes to a dot-prefixed temp file in
the target's directory, which is then renamed over the target, so a killed
run leaves the old file or the new one, never half of either. JSON is
written with keys sorted, no whitespace and floats by ``repr``, so float64
values reload bitwise.

Model checkpoints and inference functions share one versioned container:
``{"version", "kind", "catalog_hash", "config", "params", "meta"}`` plus any
lineage fields the writer adds. ``params`` maps each dotted parameter name
to its nested value list. :func:`read_container` rebuilds the object from
``config`` and fills it from ``params``; every way a file can be malformed
ends in a one-line :class:`DataError`.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "CONTAINER_VERSION",
    "FUNCTION_KIND",
    "write_text",
    "write_json",
    "read_json",
    "write_container",
    "read_container",
    "check_lineage",
]

CONTAINER_VERSION = 1
FUNCTION_KIND = "inference_function"  # the one container kind that is not a model


def _write_atomically(path, fill) -> None:
    """``fill(fh)`` writes the content into a UTF-8 temp file (line endings
    kept as given) that then replaces ``path``."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_text(path, text: str) -> None:
    _write_atomically(path, lambda fh: fh.write(text))


def write_json(path, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))  # dump to a file is pure Python
    _write_atomically(path, lambda fh: fh.write(text))


def read_json(path, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}")
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise DataError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise DataError(f"{what} {path} is not a JSON object")
    return doc


def write_container(path, kind: str, config: dict, pairs, catalog_hash: str,
                    meta: dict | None = None, **lineage) -> None:
    """``pairs`` is the (dotted name, Tensor) list of the object's parameters."""
    write_json(path, {
        "version": CONTAINER_VERSION,
        "kind": kind,
        "catalog_hash": catalog_hash,
        "config": config,
        "params": {name: t.values.tolist() for name, t in pairs},
        "meta": meta or {},
        **lineage,
    })


def read_container(path, what: str, kind_ok, build, named_parameters, lineage=()):
    """Load a container -> (object, doc).

    ``kind_ok(kind)`` says whether the file holds a ``what``; ``build(config)``
    returns a skeleton of the right structure, whose ``named_parameters`` are
    then filled from ``params`` with every name, shape and value checked.
    ``lineage`` names extra string fields the file must carry.
    """
    doc = read_json(path, what)
    if doc.get("version") != CONTAINER_VERSION:
        raise DataError(f"{path}: unsupported {what} version {doc.get('version')!r}")
    if not kind_ok(doc.get("kind")):
        raise DataError(f"{path}: not a {what} (kind {doc.get('kind')!r})")
    for key in ("catalog_hash", *lineage):
        if not isinstance(doc.get(key), str):
            raise DataError(f"{path}: {what} has no {key}")
    doc.setdefault("meta", {})
    if not isinstance(doc["meta"], dict):
        raise DataError(f"{path}: {what} meta is not an object")
    if not isinstance(doc.get("config"), dict):
        raise DataError(f"{path}: {what} has no config")
    try:
        obj = build(doc["config"])
    except (ConfigError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DataError(f"{path}: {what} config is malformed ({type(exc).__name__}: {exc})")

    stored = doc.get("params")
    pairs = named_parameters(obj)
    if not isinstance(stored, dict) or set(stored) != {name for name, _ in pairs}:
        raise DataError(f"{path}: {what} parameter set does not match its config")
    for name, t in pairs:
        try:
            arr = np.array(stored[name], dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError(f"{path}: parameter {name} is not a numeric array")
        if arr.shape != t.values.shape:
            raise DataError(f"{path}: parameter {name} has shape {arr.shape}, expected {t.values.shape}")
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: parameter {name} holds non-finite values")
        t.values = arr
    return obj, doc


def check_lineage(path, found: str, expected: str | None, reason: str) -> None:
    """Refuse an artifact whose recorded hash differs from the expected one."""
    if expected is not None and found != expected:
        raise DataError(f"{path}: {reason} ({found[:12]}… vs expected {expected[:12]}…)")
