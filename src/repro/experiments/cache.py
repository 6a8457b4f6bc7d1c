"""Disk cache for expensive experiment artifacts.

The profiling pipeline and the measured runs are pure functions of
(workload source, pipeline configuration, input stream, code version) —
there is no reason to recompute them between benchmark invocations, and
the full suite is dominated by exactly these recomputations.  This module
persists the two artifact kinds the harness produces:

* :class:`~repro.reuse.pipeline.PipelineResult` objects (pickled: they
  hold an AST with shared ``Symbol`` identity that JSON cannot express);
* :class:`~repro.experiments.runner.MeasuredRun` plus the per-segment
  :class:`~repro.runtime.hashtable.TableStats` of transformed runs
  (JSON: small, human-inspectable, diffable).

Invalidation is entirely key-based: every key is a SHA-256 over the
artifact kind, the workload *source text*, the full configuration
(``dataclasses.asdict`` of the :class:`PipelineConfig` and any
measurement knobs), the ``repr`` of the input stream, and
:data:`CODE_VERSION`.  Bump :data:`CODE_VERSION` whenever a change
anywhere in the interpreter, cost model, or pipeline can alter measured
numbers — stale entries are then simply never looked up again.

The cache root defaults to ``.repro_cache/`` under the current working
directory and can be redirected with the ``REPRO_CACHE_DIR`` environment
variable.  Writes are atomic (temp file + ``os.replace``), so a killed
run never leaves a truncated artifact behind; unreadable entries are
treated as misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from ..obs import get_tracer

# Participates in every cache key.  Bump on any change that can alter
# measured cycles/energy/checksums or pipeline decisions.
# "2": TableStats grew telemetry fields (empty_misses, evictions,
# occupancy_hwm, hit-ratio samples) that must round-trip through the cache.
# "3": TableSpec carries governor thresholds (granularity/overhead/policy)
# and PipelineConfig grew the ``governor`` field, both inside pickled
# PipelineResults.
# "4": TableSpec/PipelineConfig carry the TableStats sample budget and
# TableStats itself grew the ``sample_budget`` field.
# "5": SegmentProfile pickles its input-set stream (``key_stream``) and
# derives N, the histogram and the LRU hit ratios from it, instead of a
# Counter and four LRUBuffers; I/O rejection reasons in the ledger no
# longer depend on PYTHONHASHSEED.
# "6": runs with a table byte cap (figures 14/15) build their tables with
# PipelineResult.build_tables, which also holds a merged group at its
# uncapped capacity; cached capped runs of the old rule are stale.
CODE_VERSION = "6"

_ENV_VAR = "REPRO_CACHE_DIR"
_DEFAULT_ROOT = ".repro_cache"


def cache_key(*parts) -> str:
    """SHA-256 key over ``repr`` of the parts plus :data:`CODE_VERSION`."""
    h = hashlib.sha256()
    h.update(CODE_VERSION.encode())
    for part in parts:
        h.update(b"\x00")
        h.update(repr(part).encode())
    return h.hexdigest()


class ExperimentCache:
    """Content-addressed store for pipeline results and measured runs."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get(_ENV_VAR) or _DEFAULT_ROOT
        self.root = Path(root)

    # -- paths ---------------------------------------------------------------

    def _path(self, kind: str, key: str, suffix: str) -> Path:
        return self.root / kind / f"{key}{suffix}"

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- pipeline results (pickle) ------------------------------------------

    def load_pipeline(self, key: str):
        path = self._path("pipelines", key, ".pkl")
        try:
            with open(path, "rb") as f:
                result = pickle.load(f)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            get_tracer().event("cache.miss", category="cache", kind="pipeline", key=key)
            return None
        get_tracer().event("cache.hit", category="cache", kind="pipeline", key=key)
        return result

    def store_pipeline(self, key: str, result) -> None:
        self._write_atomic(
            self._path("pipelines", key, ".pkl"),
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # -- measured runs (JSON) -----------------------------------------------

    def load_run(self, key: str):
        """Return ``(MeasuredRun, stats or None)`` or ``None`` on miss."""
        from ..runtime.hashtable import TableStats
        from .runner import MeasuredRun

        path = self._path("runs", key, ".json")
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            run = MeasuredRun(**doc["run"])
            stats = doc.get("stats")
            if stats is not None:
                stats = {
                    int(seg_id): TableStats(**fields)
                    for seg_id, fields in stats.items()
                }
            get_tracer().event("cache.hit", category="cache", kind="run", key=key)
            return run, stats
        except (OSError, ValueError, KeyError, TypeError):
            get_tracer().event("cache.miss", category="cache", kind="run", key=key)
            return None

    def store_run(self, key: str, run, stats=None) -> None:
        doc: dict = {
            "run": {
                "seconds": run.seconds,
                "cycles": run.cycles,
                "energy_joules": run.energy_joules,
                "output_checksum": run.output_checksum,
            }
        }
        if stats is not None:
            # Full-fidelity snapshot: every TableStats field (including the
            # hit-ratio sample series) must survive the JSON round-trip so
            # cached runs report identical telemetry to fresh ones.
            doc["stats"] = {
                str(seg_id): dataclasses.asdict(s)
                for seg_id, s in stats.items()
            }
        self._write_atomic(
            self._path("runs", key, ".json"),
            json.dumps(doc, indent=1, sort_keys=True).encode(),
        )

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        """Delete every cached artifact (the directories stay)."""
        for kind in ("pipelines", "runs"):
            directory = self.root / kind
            if not directory.is_dir():
                continue
            for path in directory.iterdir():
                try:
                    path.unlink()
                except OSError:
                    pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExperimentCache({str(self.root)!r})"
