"""Content-addressed result cache with sharded stores and merge/compact.

The cache answers "has *any* store ever computed this configuration?" —
the dominant speedup once the what-if matrix grows past what one sweep
recomputes (ROADMAP item 2).  Results are keyed by a content address:

    key = sha256(salt + "\\n" + canonical JSON of config.to_dict())

``config.to_dict()`` already carries every outcome-determining field
(engine included), so two configs hash equal iff their runs are
bit-identical; the *salt* folds in the repro version, so a release that
changes simulation outcomes starts a fresh namespace instead of serving
stale results.  Each salt gets its own subdirectory:

    <root>/<salt-slug>/
        canonical.jsonl          # the merged, deduplicated store
        merge.lock               # held by the one merge() running
        shards/<worker>.jsonl    # per-worker append-only shards

Both the canonical file and every shard are plain
:class:`~repro.experiments.storage.ResultStore` files — any existing
tool (``repro report``, ``repro export``, the drift detector) can read
them directly.  N workers write disjoint shards (one per
:class:`ResultCache` instance, named after the worker), so concurrent
producers never contend on a file; :meth:`ResultCache.merge` folds the
shards into the canonical store — deduplicating by key,
last-write-wins — and verifies on every collision that the cached and
recomputed results are **bit-identical** (modulo ``wallclock_s``, the
only nondeterministic field).  A mismatch raises
:class:`CacheConflictError` instead of silently papering over a
nondeterministic engine.

Results that carry telemetry side-channels (``extra["obs"]``) are never
cached: they embed run-log paths that a recompute would not reproduce.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import ExitStack
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro._version import __version__
from repro.experiments.config import ExperimentConfig
from repro.experiments.storage import ResultStore, _flock, open_for_write, readable_config
from repro.metrics.summary import ExperimentResult

PathLike = Union[str, Path]

#: Read handles one cache holds for replaying stored lines: far below the
#: usual limit of 1 024 open files, however many shards pile up unmerged.
MAX_HELD_READERS = 64


class CacheConflictError(ValueError):
    """Two results for one config key differ where they must be identical."""


def default_salt() -> str:
    """The default cache namespace: the repro release that computed results."""
    return f"repro-{__version__}"


def salt_slug(salt: str) -> str:
    """Filesystem-safe directory name for a salt string."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", salt)
    return slug or "default"


def config_key(config: ExperimentConfig, salt: str = "") -> str:
    """Content address of one configuration (full sha256 hex digest).

    Keyed on :meth:`ExperimentConfig.canonical_dict` — the same canonical
    form the scenario IR lowers to — so equivalent legacy and IR
    submissions collide on one cache entry.
    """
    blob = json.dumps(config.canonical_dict(), sort_keys=True)
    return hashlib.sha256(f"{salt}\n{blob}".encode("utf-8")).hexdigest()


def canonical_result_dict(result_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic identity of a result: ``to_dict`` minus wall clock.

    ``wallclock_s`` is the only field that legitimately differs between a
    cached result and a fresh recompute of the same config; everything
    else — flow stats, fairness series, event counts — must match
    bit-for-bit.  Cache-equivalence checks and merge conflict detection
    both compare this form.
    """
    d = dict(result_dict)
    d.pop("wallclock_s", None)
    return d


def results_equivalent(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """True iff two result dicts are bit-identical modulo ``wallclock_s``."""
    return json.dumps(canonical_result_dict(a), sort_keys=True) == json.dumps(
        canonical_result_dict(b), sort_keys=True
    )


def _cacheable(result_dict: Dict[str, Any]) -> bool:
    extra = result_dict.get("extra")
    return not (isinstance(extra, dict) and "obs" in extra)


class ResultCache:
    """Content-addressed get/put over a sharded on-disk result layout.

    One instance belongs to one *worker* (the shard it appends to); any
    number of instances — across processes or hosts sharing the
    filesystem — may read concurrently.  The in-memory index is built at
    construction from the canonical store plus every shard, and can be
    rebuilt with :meth:`refresh` to pick up other workers' appends.  It
    holds a read handle on those files (up to :data:`MAX_HELD_READERS`)
    until :meth:`close`.
    """

    def __init__(
        self,
        root: PathLike,
        *,
        salt: Optional[str] = None,
        worker: Optional[str] = None,
    ):
        self.root = Path(root)
        self.salt = default_salt() if salt is None else salt
        self.dir = self.root / salt_slug(self.salt)
        self.shards_dir = self.dir / "shards"
        self.worker = worker if worker is not None else f"w{os.getpid()}"
        self.canonical = ResultStore(self.dir / "canonical.jsonl")
        self._shard: Optional[ResultStore] = None
        #: key -> full result dict (as stored, wallclock included).
        self._index: Dict[str, Dict[str, Any]] = {}
        #: key -> (read handle, offset, length) of the row's stored line,
        #: for rows read from disk; the handles are held in ``_readers``.
        self._where: Dict[str, Tuple[IO[bytes], int, int]] = {}
        self._readers: List[IO[bytes]] = []
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: Stale rows the last :meth:`refresh`/:meth:`merge` skipped.
        self.stale = 0
        self.refresh()

    # -- identity -----------------------------------------------------------------

    def key_for(self, config: ExperimentConfig) -> str:
        """This cache's content address for ``config`` (salt included)."""
        return config_key(config, self.salt)

    def _key_of_row(self, row: Dict[str, Any]) -> Optional[str]:
        """The key of a stored row, or None for a *stale* row, one this
        release cannot read (:func:`~repro.experiments.storage.readable_config`)."""
        config = readable_config(row)
        return None if config is None else config_key(config, self.salt)

    # -- layout -------------------------------------------------------------------

    @property
    def shard_path(self) -> Path:
        """This worker's append shard (created lazily on first put)."""
        return self.shards_dir / f"{self.worker}.jsonl"

    def shard_paths(self) -> List[Path]:
        """Every shard file currently on disk, in sorted (merge) order."""
        return sorted(self.shards_dir.glob("*.jsonl"))

    # -- index --------------------------------------------------------------------

    def refresh(self) -> int:
        """Rebuild the index from canonical + shards; returns entry count.

        Within the scan, later occurrences of a key overwrite earlier
        ones (canonical first, then shards in sorted order) — the same
        last-write-wins rule :meth:`merge` applies durably.  Stale rows
        are skipped and counted in :attr:`stale`, so their configs miss.
        The read handles of the first :data:`MAX_HELD_READERS` files stay
        open, so a hit from them can later be replayed as the very line
        read here (see :meth:`split`).
        """
        index: Dict[str, Dict[str, Any]] = {}
        where: Dict[str, Tuple[IO[bytes], int, int]] = {}
        readers: List[IO[bytes]] = []
        stale = 0
        for store in [self.canonical] + [ResultStore(p) for p in self.shard_paths()]:
            fh = store.reader() if len(readers) < MAX_HELD_READERS else None
            if fh is not None:
                readers.append(fh)
            for _lineno, offset, line, d in store.iter_lines(fh):
                key = self._key_of_row(d)
                if key is None:
                    stale += 1
                    continue
                index[key] = d
                if fh is None or offset is None:
                    where.pop(key, None)
                else:
                    where[key] = (fh, offset, len(line))
        self._close_readers()
        self._index, self._where, self._readers = index, where, readers
        self.stale = stale
        return len(index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, config: ExperimentConfig) -> bool:
        return self.key_for(config) in self._index

    # -- get / put / stats --------------------------------------------------------

    def row(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored row under ``key`` (:meth:`key_for`), or None: the one
        counted lookup (hit/miss).  ``repro serve`` answers from the row as
        is, :meth:`get` decodes it; it is the index's own dict, not a copy."""
        row = self._index.get(key)
        if row is None:
            self.misses += 1
        else:
            self.hits += 1
        return row

    def get(
        self, config: ExperimentConfig, key: Optional[str] = None
    ) -> Optional[ExperimentResult]:
        """Cached result for ``config``, or None (counted as hit/miss);
        ``key`` is ``key_for(config)`` where the caller already computed it."""
        row = self.row(self.key_for(config) if key is None else key)
        return None if row is None else ExperimentResult.from_dict(row)

    def split(self, configs: Sequence[ExperimentConfig]) -> Tuple[list, list]:
        """Partition ``configs`` into ``(hits, misses)``, one counted :meth:`get` each.

        A hit is ``(result, row, line)`` with ``row`` the stored row itself
        and ``line`` its stored line as read from disk (None for a row this
        instance put, a final line read before its newline, a file read
        without a held handle, or once the cache is closed): the record
        path writes that line to the sweep's store, so a replayed hit is
        neither re-serialised nor re-:meth:`put`.
        """
        hits: List[tuple] = []
        misses: List[ExperimentConfig] = []
        for config in configs:
            key = self.key_for(config)
            result = self.get(config, key)
            if result is None:
                misses.append(config)
            else:
                hits.append((result, self._index[key], self._line(key)))
        return hits, misses

    def _line(self, key: str) -> Optional[str]:
        """The stored line of ``key``'s row, newline included, fetched from
        the handle it was read through: a stored file's newline-terminated
        lines are never rewritten in place (see
        :meth:`ResultStore.iter_lines`), so the bytes hold even after
        another process's :meth:`merge` replaced ``canonical.jsonl`` or
        deleted the shard."""
        where = self._where.get(key)
        if where is None:
            return None
        fh, offset, length = where
        fh.seek(offset)
        return fh.read(length).decode("utf-8") + "\n"

    def put(
        self,
        result: ExperimentResult,
        row: Optional[Dict[str, Any]] = None,
        line: Optional[str] = None,
    ) -> bool:
        """Record a computed result in this worker's shard.

        ``row`` is ``result.to_dict()`` where the caller already built it
        (the record path shares one row with the store); it is indexed
        and appended as is.  ``line`` is the row's stored line where the
        caller already encoded it (the one the store wrote).

        Returns True if the result was appended, False if the key was
        already present with an equivalent result (dedup) or the result
        is not cacheable (telemetry side-channels).  A key collision with
        a *different* result raises :class:`CacheConflictError`.
        """
        d = result.to_dict() if row is None else row
        if not _cacheable(d):
            return False
        key = self._key_of_row(d)
        have = self._index.get(key)
        if have is not None:
            if not results_equivalent(have, d):
                raise CacheConflictError(self._conflict_message(key, have, d))
            return False
        if self._shard is None:
            self._shard = ResultStore(self.shard_path)
        self._shard.append_dict(d, line)
        self._index[key] = d
        self.puts += 1
        return True

    def stats(self) -> Dict[str, Any]:
        """Counters + layout facts for CLI/metrics surfaces."""
        return {
            "salt": self.salt,
            "dir": str(self.dir),
            "entries": len(self._index),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "stale": self.stale,
            "shards": len(self.shard_paths()),
            "canonical_exists": self.canonical.path.exists(),
        }

    # -- merge / compact ----------------------------------------------------------

    def merge(self) -> Dict[str, int]:
        """Fold every shard into the canonical store and delete the shards.

        Dedup is by config key, last-write-wins (canonical, then shards
        in sorted filename order, then line order); every collision is
        checked for bit-identity modulo ``wallclock_s`` and a mismatch
        raises :class:`CacheConflictError`.  The canonical store is
        rewritten atomically (temp file + rename), sorted by key so the
        merged file is deterministic regardless of shard arrival order.
        Each surviving line is written as it was read (its one decode is
        for the key and the conflict check), so nothing is re-encoded.
        Stale rows (see :meth:`refresh`) are counted and not written back.
        Like :meth:`close`, it releases the read handles.

        Writers may keep appending meanwhile (another sweep, ``repro
        serve``): each shard is read under its exclusive lock, held until
        the shard is deleted, and a writer that then finds its shard
        deleted appends to a new one (:meth:`ResultStore.append_dict`).
        Concurrent merges of one cache run one after the other.
        """
        merged: Dict[str, Dict[str, Any]] = {}
        lines: Dict[str, bytes] = {}
        duplicates = stale = 0
        held = self._index.get  # an equal row already in memory is kept, not held twice
        folded: List[Path] = []
        with ExitStack() as handles:
            guard = handles.enter_context(open_for_write(self.dir / "merge.lock", "a"))
            _flock(guard, "LOCK_EX")
            for store in [self.canonical] + [ResultStore(p) for p in self.shard_paths()]:
                # A shard's handle holds its exclusive lock until after the unlink.
                fh = store.reader(lock=store is not self.canonical)
                if fh is None:
                    continue
                handles.enter_context(fh)
                if store is not self.canonical:
                    folded.append(store.path)
                for _lineno, _offset, line, d in store.iter_lines(fh):
                    key = self._key_of_row(d)
                    if key is None:
                        stale += 1
                        continue
                    have = merged.get(key)
                    if have is not None and store is not self.canonical:
                        if not results_equivalent(have, d):
                            raise CacheConflictError(self._conflict_message(key, have, d))
                        duplicates += 1
                    merged[key] = d if held(key) != d else held(key)  # last write wins
                    lines[key] = line
            tmp = self.canonical.path.with_suffix(".tmp")
            with open_for_write(tmp, "wb") as out:
                for key in sorted(lines):
                    out.write(lines[key] + b"\n")
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.canonical.path)
            for path in folded:
                path.unlink()
        self.close()
        self._index = merged
        self.stale = stale
        return {
            "entries": len(merged),
            "shards_folded": len(folded),
            "duplicates": duplicates,
            "stale": stale,
        }

    def close(self) -> None:
        """Release the shard write handle and the read handles (idempotent).
        Rows stay indexed; a hit replayed after this is re-encoded."""
        if self._shard is not None:
            self._shard.close()
            self._shard = None
        self._close_readers()

    def _close_readers(self) -> None:
        readers, self._readers, self._where = self._readers, [], {}
        for fh in readers:
            fh.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _conflict_message(key: str, a: Dict[str, Any], b: Dict[str, Any]) -> str:
        label = ExperimentConfig.from_dict(a["config"]).label()
        fields = sorted(
            k
            for k in set(canonical_result_dict(a)) | set(canonical_result_dict(b))
            if canonical_result_dict(a).get(k) != canonical_result_dict(b).get(k)
        )
        return (
            f"cache conflict for {label} (key {key[:12]}): two results for "
            f"one config differ in {fields} — cached and recomputed results "
            "must be bit-identical (modulo wallclock_s)"
        )
