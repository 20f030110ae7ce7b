"""JSONL result store.

One line per :class:`ExperimentResult`; append-only, so interrupted
campaigns resume by skipping configs whose label is already present.

The write handle is opened once per campaign (O_APPEND mode) and kept
for the store's lifetime: each result is a single buffered write of the
complete line, flushed immediately.  That keeps appends atomic at the
line level even when several campaign processes share one results file —
O_APPEND positions every flushed write at the current end of file.

Torn writes
-----------

A process killed mid-append (SIGKILL, OOM, power loss) can leave a
*partial* final line.  That must not brick resume, so the store handles
it on both sides:

- **Read side**: a line that fails to parse as JSON is skipped with a
  :class:`TornWriteWarning` *iff* nothing but blank lines follows it —
  i.e. it is the torn tail of the file.  A malformed line anywhere else
  (or a well-formed JSON line that is not a result record) is real
  corruption and still raises ``ValueError``.
- **Write side**: opening the append handle first repairs a torn tail —
  the partial fragment is moved to a ``<store>.torn.jsonl`` sidecar (for
  forensics) and truncated from the store, so the next append cannot
  glue a fresh record onto the fragment and turn a recoverable torn tail
  into unrecoverable mid-file corruption.

A *live* sibling's append in flight also looks like a newline-less tail,
so repair and appends exclude each other with a POSIX advisory lock on
the store: exclusive for check-and-truncate, shared around each append's
write + flush.  A SIGKILLed writer's lock dies with it, so a genuinely
torn tail is still repaired.  Where ``fcntl`` is missing there is no lock.
A cache merge holds the lock exclusively from its read of a store through
its unlink; an append that then finds its file unlinked reopens the path.
Reading creates nothing: the first write makes the directory.

Reading
-------

:meth:`ResultStore.iter_lines` is the one place stored lines are decoded:
the file is read in binary and each line is decoded once by
:func:`_decode_line` (orjson's C parser, ``json.loads`` for the few lines
orjson refuses).
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import IO, Any, Container, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.experiments.config import ExperimentConfig
from repro.metrics.summary import ExperimentResult

try:
    import fcntl
except ImportError:  # pragma: no cover - no POSIX advisory locks on this platform
    fcntl = None

PathLike = Union[str, Path]


def _flock(fh: IO, op: str) -> None:
    """``fcntl.flock(fh, fcntl.<op>)``, where the platform has it."""
    if fcntl is not None:
        fcntl.flock(fh, getattr(fcntl, op))


def open_for_write(path: Path, mode: str, **kwargs) -> IO:
    """``path.open(mode, **kwargs)`` after making its directory: the one place
    a store or a cache creates a directory, so that reading creates none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open(mode, **kwargs)


class TornWriteWarning(UserWarning):
    """A partial trailing line (crash mid-append) was skipped or repaired."""


def _decode_line(line: bytes) -> Any:
    """The value of one stored line, decoded as ``json.loads`` would.

    orjson decodes it where it can.  It refuses the ``NaN``/``Infinity``
    tokens :meth:`ResultStore.encode` writes for non-finite floats, lone
    surrogate escapes and torn or corrupt lines; those go to ``json.loads``,
    whose values and error messages they had before.  orjson accepts one
    thing differently: an integer outside ``[-2**63, 2**64)`` decodes to a
    float, which is why configs refuse such values (see
    :class:`~repro.experiments.config.ExperimentConfig`).
    """
    import orjson  # deferred: a process that never reads a row never loads it

    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError:
        return json.loads(line.decode("utf-8"))


def _per_flow_records(row: Dict[str, Any]) -> bool:
    """True for a row in the layout before flow columns: ``flows`` is a
    list with one record per flow."""
    return isinstance(row["flows"], list)


def readable_config(row: Dict[str, Any]) -> Optional[ExperimentConfig]:
    """The config of a stored result row, or None where this release cannot
    read the row: it is *stale*.  A row is stale when its config is refused
    (an older release answered inputs it did not model) or its ``flows``
    is a list of per-flow records, the layout before flow columns
    (:class:`~repro.metrics.summary.FlowTable`).  The cache misses a stale
    row and ``merge()`` drops it; resume recomputes its config.

    ``KeyError``/``TypeError`` where ``row`` is not a result row at all.
    """
    if _per_flow_records(row):
        return None
    try:
        return ExperimentConfig.from_dict(row["config"])
    except ValueError:
        return None


class ResultStore:
    """Append/load experiment results on disk."""

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None

    def append(self, result: ExperimentResult) -> None:
        """Append one result as a JSON line (flushed immediately)."""
        self.append_dict(result.to_dict())

    @staticmethod
    def encode(d: Dict[str, Any]) -> str:
        """The stored line of one result dict: sorted-key JSON and a newline."""
        return json.dumps(d, sort_keys=True) + "\n"

    def append_dict(self, d: Dict[str, Any], line: Optional[str] = None) -> str:
        """Append one pre-serialized result dict (same line format) and
        return the line written.  ``line`` is ``encode(d)`` where the
        caller already holds it: the record path encodes a row once for
        the store and the cache shard, and replays a cache hit as the
        line the cache read."""
        if line is None:
            line = self.encode(d)
        while True:
            fh = self._fh
            if fh is None:
                self._repair_torn_tail()
                fh = self._fh = open_for_write(self.path, "a", encoding="utf-8")
            _flock(fh, "LOCK_SH")
            if os.fstat(fh.fileno()).st_nlink:
                break
            # Folded and unlinked by a merge since it was opened: a new file.
            self._fh = None
            fh.close()
        try:
            fh.write(line)
            fh.flush()
        finally:
            _flock(fh, "LOCK_UN")
        return line

    def _repair_torn_tail(self) -> None:
        """Truncate a partial (newline-less) final line before appending.

        The fragment is preserved in ``<store>.torn.jsonl``.  Without this,
        the next O_APPEND write would concatenate onto the fragment and
        produce a corrupt line *mid-file* — unrecoverable by the read-side
        torn-tail skip.
        """
        try:
            fh = self.path.open("r+b")
        except OSError:
            return
        with fh:
            # Held until close: no append is in flight while we look, and
            # none lands between the read and the truncate.
            _flock(fh, "LOCK_EX")
            size = os.fstat(fh.fileno()).st_size
            if size == 0:
                return
            fh.seek(size - 1)
            if fh.read(1) == b"\n":
                return
            # Walk back to the last newline; everything after it is the
            # torn fragment.
            data = self.path.read_bytes()
            cut = data.rfind(b"\n") + 1  # 0 when the whole file is one fragment
            fragment = data[cut:]
            sidecar = self.path.with_suffix(".torn.jsonl")
            with sidecar.open("ab") as side:
                side.write(fragment + b"\n")
            fh.truncate(cut)
        warnings.warn(
            f"{self.path}: repaired torn trailing line before append "
            f"({len(fragment)} bytes moved to {sidecar.name})",
            TornWriteWarning,
            stacklevel=3,
        )

    def sync(self) -> None:
        """fsync the rows appended so far; nothing while no write handle is open."""
        if self._fh is not None:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Release the write handle (idempotent; reopened on next append)."""
        fh = self._fh
        if fh is not None:
            self._fh = None
            fh.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def iter_dicts(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Yield ``(lineno, result_dict)`` pairs with torn-tail tolerance
        (see :meth:`iter_lines`)."""
        for lineno, _offset, _line, d in self.iter_lines():
            yield lineno, d

    def reader(self, lock: bool = False) -> Optional[IO[bytes]]:
        """A binary read handle on the store, or None while it does not exist;
        with ``lock``, it holds the store's exclusive lock until it is closed."""
        try:
            # A stored line is tens of KB: an 8 KB buffer takes several reads each.
            fh = self.path.open("rb", buffering=1 << 16)
        except FileNotFoundError:
            return None
        if lock:
            _flock(fh, "LOCK_EX")
        return fh

    def iter_lines(
        self, fh: Optional[IO[bytes]] = None
    ) -> Iterator[Tuple[int, Optional[int], bytes, Dict[str, Any]]]:
        """Yield ``(lineno, offset, line, result_dict)``: each stored line as
        read (stripped bytes), the file offset it starts at, and its one
        :func:`_decode_line`.  The offset is None for a final line with no
        newline yet: the next append's torn-tail repair may still cut it,
        while the bytes before the last newline are never rewritten.

        ``fh`` is a :meth:`reader` the caller keeps open to fetch lines
        again by offset (:class:`~repro.experiments.cache.ResultCache`);
        without it the store is opened and closed here.

        A JSON-undecodable line followed only by blank lines is the torn
        tail of a crashed append: it is skipped with a
        :class:`TornWriteWarning`.  An undecodable line followed by more
        content is corruption and raises ``ValueError``.
        """
        owned = fh is None
        if owned:
            fh = self.reader()
            if fh is None:
                return
        torn: Optional[Tuple[int, str]] = None
        end = fh.tell()  # file offset just past the line read last
        try:
            for lineno, raw in enumerate(fh, 1):
                end += len(raw)
                body = raw.lstrip()
                line = body.rstrip()
                if not line:
                    continue
                if torn is not None:
                    bad_lineno, bad_err = torn
                    raise ValueError(
                        f"{self.path}:{bad_lineno}: corrupt result line "
                        f"({bad_err}) followed by more content — not a torn "
                        "trailing write"
                    )
                offset = end - len(body) if raw.endswith(b"\n") else None
                try:
                    yield lineno, offset, line, _decode_line(line)
                except json.JSONDecodeError as exc:
                    torn = (lineno, str(exc))
        finally:
            if owned:
                fh.close()
        if torn is not None:
            warnings.warn(
                f"{self.path}:{torn[0]}: skipping partial trailing line "
                f"(torn write from a crashed append): {torn[1]}",
                TornWriteWarning,
                stacklevel=2,
            )

    def _corrupt(self, lineno: int, exc: Exception) -> ValueError:
        return ValueError(f"{self.path}:{lineno}: corrupt result line ({exc!r})")

    def _result_of(self, lineno: int, d: Dict[str, Any]) -> ExperimentResult:
        """Schema check of one stored row: the row as a result, or ValueError."""
        if isinstance(d, dict) and "flows" in d and _per_flow_records(d):
            raise ValueError(
                f"{self.path}:{lineno}: stale result line: its flows are per-flow "
                "records, the layout of an older release (this one stores flow "
                "columns); a resumed sweep recomputes it"
            )
        try:
            return ExperimentResult.from_dict(d)
        except (KeyError, TypeError, ValueError) as exc:
            raise self._corrupt(lineno, exc) from None

    def __iter__(self) -> Iterator[ExperimentResult]:
        for lineno, d in self.iter_dicts():
            yield self._result_of(lineno, d)

    def load(self) -> List[ExperimentResult]:
        """Read every stored result into memory, in one pass."""
        return [self._result_of(lineno, d) for lineno, d in self.iter_dicts()]

    def completed_labels(
        self, wanted: Container[str] = (), found: Optional[list] = None
    ) -> Set[str]:
        """Labels of configs already present (for campaign resume).

        One pass over the store, every row schema-checked.  A caller that
        also wants stored results back names their labels in ``wanted`` and
        passes a list as ``found``: each matching row is appended to it as
        ``(label, config, result, row)`` in store order, so resuming reads
        the file once rather than once for the labels and again to load.
        A row this release cannot read (:func:`readable_config`) is
        skipped, so resume recomputes it.
        """
        labels: Set[str] = set()
        for lineno, d in self.iter_dicts():
            try:
                config = readable_config(d)
            except (KeyError, TypeError) as exc:
                raise self._corrupt(lineno, exc) from None
            if config is None:
                continue
            result = self._result_of(lineno, d)
            label = config.label()
            labels.add(label)
            if found is not None and label in wanted:
                found.append((label, config, result, d))
        return labels

    def split(
        self, configs: Sequence[ExperimentConfig]
    ) -> Tuple[List[Tuple[ExperimentResult, Dict[str, Any]]], List[ExperimentConfig]]:
        """Resume's split of ``configs``: ``(result, row)`` of the first
        stored row of each config present, in store order, and the configs
        no row answers, in their order.

        A row answers a config only when its config is equal: a label
        omits the engine, duration, warm-up and most knobs, so a row of
        the same cell at another duration is no answer.  One read of the
        store (:meth:`completed_labels`).
        """
        waiting: Dict[str, List[ExperimentConfig]] = {}
        for config in configs:
            waiting.setdefault(config.label(), []).append(config)
        found: List[tuple] = []
        self.completed_labels(waiting, found)
        hits = []
        for label, config, result, row in found:
            same = waiting[label]
            if config in same:
                waiting[label] = [c for c in same if c != config]
                hits.append((result, row))
        left = {id(c) for same in waiting.values() for c in same}
        return hits, [c for c in configs if id(c) in left]

    def __len__(self) -> int:
        return sum(1 for _ in self)
