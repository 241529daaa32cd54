"""The benchmark's whole dependence on ``repro``, in one place.

Later PRs may rename or delete anything under ``src/repro`` but cannot
edit this directory, so the benchmark splits what it touches in two:

* :data:`END_TO_END` — the public serving surface the timed path is
  written against.  The benchmark's modules import these at the top of
  the file and nothing else from ``repro``
  (``test_e2e_bench.py::test_sources_import_only_the_declared_surface``).
* :data:`LAYER_PROBES` — deeper symbols the layer pass calls to time one
  layer from outside.  Each is resolved lazily by :func:`probe`; when
  the import or the call fails the affected metrics are reported as
  ``null`` with the reason and the end-to-end run still succeeds.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]

#: module -> names (``None`` = the module's public namespace).
END_TO_END = {
    "repro.service": ("QueryServer", "QuerySession"),
    "repro.storage": ("Catalog", "Schema", "SystemParameters"),
    "repro.logical": ("Query",),
    "repro.expr": None,
    "repro.expr.aggregates": None,
    "repro.core.sort_order": ("SortOrder",),
    "repro.workloads": None,
}

#: probe name -> (module, attribute).
LAYER_PROBES = {
    "split_required_order": ("repro.optimizer.volcano", "split_required_order"),
    "logical_fingerprint": ("repro.logical.fingerprint", "logical_fingerprint"),
    "referenced_tables": ("repro.logical.algebra", "referenced_tables"),
    "ExecutionContext": ("repro.engine.context", "ExecutionContext"),
    "BatchedExecutor": ("repro.engine.executor", "BatchedExecutor"),
    "SerialBackend": ("repro.service.backends", "SerialBackend"),
    "shard_subplans": ("repro.engine.subplan", "shard_subplans"),
    "attach_plan_kernels": ("repro.engine.kernels", "attach_plan_kernels"),
    "kernel_stats": ("repro.engine.kernels", "kernel_stats"),
    "Tracer": ("repro.obs.trace", "Tracer"),
    "catalog_payload": ("repro.storage.handoff", "catalog_payload"),
}


class ProbeUnavailable(RuntimeError):
    """A layer probe's symbol could not be imported."""


def ensure_repro_importable() -> None:
    """Put ``<checkout>/src`` on ``sys.path`` unless ``repro`` already
    resolves (tier-1 sets ``PYTHONPATH=src``; the benchmark command is
    run bare from the root of a checkout)."""
    try:
        importlib.import_module("repro")
        return
    except ImportError:
        pass
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(
            f"benchmarks/e2e: cannot import 'repro' and {src} does not "
            "exist - run from a checkout that holds the program's source")
    sys.path.insert(0, str(src))
    importlib.import_module("repro")


def probe(name: str):
    """Resolve one :data:`LAYER_PROBES` symbol, or raise
    :class:`ProbeUnavailable` with the reason."""
    module, attr = LAYER_PROBES[name]
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError) as exc:
        raise ProbeUnavailable(
            f"{module}.{attr}: {type(exc).__name__}: {exc}") from None
