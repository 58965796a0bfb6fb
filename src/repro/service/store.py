"""Content-addressed result store: the service's memoization tier.

A :class:`ResultStore` maps the SHA-256 content hash of a canonical
(spec, seed) JSON (:meth:`repro.api.spec.ExperimentSpec.content_hash`,
:meth:`repro.cluster.spec.ScenarioSpec.content_hash`) to the typed
result that spec produced.  Because every result in this repo is a
pure, deterministic function of its spec -- the invariant PR 4 and
PR 5 enforce test-by-test -- a stored result is interchangeable with a
fresh computation down to the byte, and the store can sit in front of
:func:`repro.api.runner.run_experiment` /
:func:`repro.cluster.engine.run_scenario` without changing anything
observable except wall-clock time.

Two tiers:

* an **in-memory LRU** of deserialized result objects (bounded by
  ``memory_entries``, eviction counted), and
* an **on-disk JSON tier** under ``root`` (optional): one
  version-stamped file per key, sharded by the first two hex digits --
  ``<root>/<key[:2]>/<key>.json``.

Durability rules:

* Writes are **atomic**: each entry is written to a unique temp file
  in the same directory and ``os.replace``-d into place, so readers
  never observe a torn file and concurrent writers of the same key
  degrade to last-write-wins.
* Reads are **paranoid**: a missing file, unparsable JSON, a version
  or key mismatch, or a result that fails to deserialize are all
  treated as a *miss* (counted in ``stats()["corrupt"]`` where a file
  existed), never an error -- a damaged cache can only cost time.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.codec import canonical_json, result_from_dict

#: Stamped into every disk entry; bump on a layout change or on any
#: change to a stored result's bytes (a kernel that moves a float by one
#: ULP under an unchanged content hash), so old stores are cleanly
#: treated as cold rather than misread or served stale.
#: ``tests/test_service_store.py`` pins one digest of golden result
#: bytes per version and fails, asking for a bump, when they move.
STORE_VERSION = 4

#: Unique suffix source for temp files (pid alone is not enough: two
#: threads of one process may write the same key concurrently).
_TMP_COUNTER = itertools.count()


class ResultStore:
    """Content-addressed (spec, seed) -> result cache; see module doc.

    ``root=None`` gives a memory-only store (no persistence), which is
    what short-lived tests and pure-throughput benchmarks want;
    passing a directory adds the disk tier, created on first use.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        memory_entries: int = 1024,
    ):
        if memory_entries < 1:
            raise ValueError(
                f"memory_entries must be >= 1, got {memory_entries}"
            )
        self.root = Path(root) if root is not None else None
        self.memory_entries = memory_entries
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._counts = {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "puts": 0,
            "evictions": 0,
            "corrupt": 0,
        }

    # -- keys and paths ------------------------------------------------
    @staticmethod
    def key_for(spec) -> str:
        """The store key of a spec: its content hash."""
        return spec.content_hash()

    def path_for(self, key: str) -> Optional[Path]:
        """Where a key lives on disk (None for memory-only stores)."""
        if self.root is None:
            return None
        return self.root / key[:2] / f"{key}.json"

    # -- reads ---------------------------------------------------------
    def get(self, spec):
        """The stored result for ``spec``, or None on a miss."""
        return self.get_by_key(self.key_for(spec))

    def get_by_key(self, key: str):
        """The stored result for a raw content hash, or None."""
        with self._lock:
            if key in self._memory:
                self._counts["memory_hits"] += 1
                self._memory.move_to_end(key)
                return self._memory[key]
        result = self._read_disk(key)
        with self._lock:
            if result is None:
                self._counts["misses"] += 1
                return None
            self._counts["disk_hits"] += 1
            self._remember(key, result)
        return result

    def contains(self, spec) -> bool:
        """True when ``spec`` would hit (either tier); counts nothing.

        A disk entry is a hit only if :meth:`get` would serve it, so it
        is read and decoded under the same checks.
        """
        key = self.key_for(spec)
        with self._lock:
            if key in self._memory:
                return True
        try:
            return self._load_disk(key) is not None
        except Exception:
            return False  # damaged: get() counts it corrupt and misses

    def _read_disk(self, key: str):
        try:
            return self._load_disk(key)
        except Exception:
            # Torn, truncated, stale-version, or mislabeled entry: a
            # damaged cache is a cold cache, never a crash.
            with self._lock:
                self._counts["corrupt"] += 1
            return None

    def _load_disk(self, key: str):
        """The decoded disk entry, None when there is none; raises when
        the entry is damaged."""
        path = self.path_for(key)
        if path is None:
            return None
        try:
            raw = path.read_text()
        except OSError:
            return None
        entry = json.loads(raw)
        if (
            not isinstance(entry, dict)
            or entry.get("version") != STORE_VERSION
            or entry.get("key") != key
        ):
            raise ValueError("entry stamp mismatch")
        return result_from_dict(entry["result"])

    # -- writes --------------------------------------------------------
    def put(self, spec, result) -> str:
        """Store ``result`` under ``spec``'s content hash; returns it.

        The disk write is atomic (temp file + ``os.replace``), so a
        concurrent reader sees either the old entry or the new one,
        and concurrent writers of one key settle last-write-wins.
        """
        key = self.key_for(spec)
        path = self.path_for(key)
        if path is not None:
            entry = {
                "version": STORE_VERSION,
                "key": key,
                "result": result.to_dict(),
            }
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / (
                f".tmp-{os.getpid()}-{threading.get_ident()}"
                f"-{next(_TMP_COUNTER)}"
            )
            tmp.write_text(canonical_json(entry))
            os.replace(tmp, path)
        with self._lock:
            self._counts["puts"] += 1
            self._remember(key, result)
        return key

    def _remember(self, key: str, result) -> None:
        """Insert into the memory LRU (caller holds the lock)."""
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self._counts["evictions"] += 1

    # -- maintenance ---------------------------------------------------
    def keys(self) -> List[str]:
        """Every key present in either tier, sorted."""
        with self._lock:
            known = set(self._memory)
        known.update(self._disk_keys())
        return sorted(known)

    def _disk_keys(self) -> Iterator[str]:
        if self.root is None or not self.root.exists():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    def clear(self) -> int:
        """Drop every entry from both tiers; returns how many keys."""
        keys = self.keys()
        with self._lock:
            self._memory.clear()
        for key in keys:
            path = self.path_for(key)
            if path is not None:
                try:
                    path.unlink()
                except OSError:
                    pass
        return len(keys)

    def stats(self) -> Dict[str, int]:
        """Counters plus current sizes of both tiers."""
        with self._lock:
            stats = dict(self._counts)
            stats["hits"] = (
                stats["memory_hits"] + stats["disk_hits"]
            )
            stats["memory_entries"] = len(self._memory)
        stats["disk_entries"] = sum(1 for _ in self._disk_keys())
        return stats
