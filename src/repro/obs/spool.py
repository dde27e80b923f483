"""Disk-spooling tracer: bounded memory, gzip'd JSONL on disk.

:class:`~repro.sim.trace.RecordingTracer` keeps every record in memory,
which is unusable for large-field or soak runs (a 200-node scenario
emits hundreds of thousands of radio records per execution).  A
:class:`SpoolingTracer` instead streams each record to a JSONL file
(gzip'd when the path ends in ``.gz``), keeps only a fixed-size ring
buffer of recent records for in-process inspection, and optionally
filters by kind prefix so a spool can capture "``fds.`` plus ``sim.``
and ``meta.``" without paying for the radio firehose.

The on-disk format is one JSON object per line with the same shape
:func:`repro.sim.trace.iter_jsonl` emits (``time``/``kind``/``node``
plus the flattened detail), so ``repro trace``, ``jq``, and pandas all
read it directly; :func:`iter_spool` streams it back as
:class:`~repro.sim.trace.TraceRecord` objects.

Emission is safe under concurrency: ``emit``/``flush``/``close`` hold an
internal lock, so asyncio callbacks that hop threads (executors,
loop.call_soon_threadsafe) and the rt runtime's socket callbacks can
share one spool without interleaving half-written lines.  (Within a
single event loop the callbacks never truly race, but the lock makes the
guarantee independent of the caller's scheduling.)
"""

from __future__ import annotations

import gzip
import io
import json
import time
import threading
from collections import deque
from pathlib import Path
from typing import Deque, Iterator, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.sim.trace import TraceRecord, Tracer, record_to_dict
from repro.types import SimTime

#: Fields of the serialized record that are not ``detail`` entries.
_CORE_FIELDS = ("time", "kind", "node")


def _kind_matches(kind: str, prefixes: Sequence[str]) -> bool:
    """Segment-aware prefix match (``"fds"`` matches ``"fds.detection"``,
    not ``"fdsx"``)."""
    for prefix in prefixes:
        if kind == prefix or kind.startswith(prefix + "."):
            return True
    return False


class SpoolingTracer(Tracer):
    """Streams records to disk; holds only a bounded tail in memory."""

    enabled = True

    def __init__(
        self,
        path: Union[str, Path],
        kinds: Optional[Sequence[str]] = None,
        tail: int = 1024,
        flush_every: int = 4096,
    ) -> None:
        """``kinds`` keeps only records whose kind equals, or is nested
        under, one of the given prefixes (``None`` keeps everything).
        ``tail`` bounds the in-memory ring buffer; ``flush_every`` is the
        record interval between explicit stream flushes (crash-tolerant
        spools want small values; throughput wants large ones).
        """
        if tail < 0:
            raise ConfigurationError(f"tail must be >= 0, got {tail}")
        if flush_every < 1:
            raise ConfigurationError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._prefixes = tuple(kinds) if kinds is not None else None
        self._tail: Deque[TraceRecord] = deque(maxlen=tail)
        self._flush_every = flush_every
        #: Records written to disk (post-filter).
        self.spooled = 0
        #: Records dropped by the kind filter.
        self.filtered = 0
        if self.path.suffix == ".gz":
            self._handle: io.TextIOBase = gzip.open(
                self.path, "wt", encoding="utf-8"
            )
        else:
            self._handle = self.path.open("w", encoding="utf-8")
        self._closed = False
        # Serializes emit/flush/close across threads: one record is one
        # intact line on disk, and the spooled counter stays exact.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def emit(self, record: TraceRecord) -> None:
        if self._prefixes is not None and not _kind_matches(
            record.kind, self._prefixes
        ):
            with self._lock:
                if self._closed:
                    raise ConfigurationError(
                        f"SpoolingTracer {self.path} is closed; "
                        f"no further records"
                    )
                self.filtered += 1
            return
        # Serialize outside the lock (pure CPU), write inside it.
        line = json.dumps(record_to_dict(record), sort_keys=True)
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    f"SpoolingTracer {self.path} is closed; no further records"
                )
            self._handle.write(line)
            self._handle.write("\n")
            self.spooled += 1
            self._tail.append(record)
            if self.spooled % self._flush_every == 0:
                self._handle.flush()

    # ------------------------------------------------------------------
    def tail_records(self) -> tuple:
        """The most recent spooled records (up to the ring size)."""
        return tuple(self._tail)

    @property
    def closed(self) -> bool:
        """Whether the spool is complete on disk (safe to read back)."""
        return self._closed

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._handle.flush()
            finally:
                self._handle.close()

    def __enter__(self) -> "SpoolingTracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reading spools back
# ----------------------------------------------------------------------
def _open_spool(path: Path) -> io.TextIOBase:
    """Open a spool for reading, sniffing gzip by magic bytes (a spool
    renamed without its ``.gz`` suffix still loads)."""
    with path.open("rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8")


def _parse_line(
    line: str, prefixes: Optional[Sequence[str]]
) -> Optional[TraceRecord]:
    """One JSONL line -> record, or ``None`` (blank/garbage/filtered)."""
    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    kind = payload.get("kind", "")
    if prefixes is not None and not _kind_matches(kind, prefixes):
        return None
    detail = {
        key: value
        for key, value in payload.items()
        if key not in _CORE_FIELDS
    }
    return TraceRecord(
        time=SimTime(payload.get("time", 0.0)),
        kind=kind,
        node=payload.get("node"),
        detail=detail,
    )


def _is_gzip(path: Path) -> bool:
    with path.open("rb") as probe:
        return probe.read(2) == b"\x1f\x8b"


def iter_spool(
    path: Union[str, Path],
    kinds: Optional[Sequence[str]] = None,
    *,
    follow: bool = False,
    poll_interval: float = 0.2,
    stop: Optional[threading.Event] = None,
    idle_marker: bool = False,
) -> Iterator[Optional[TraceRecord]]:
    """Stream a spool file back as :class:`TraceRecord` objects.

    Torn final lines (a run killed mid-write) are skipped, matching the
    campaign telemetry reader's policy: an incomplete line carries no
    completed event.

    With ``follow=True`` the iterator tails a *growing* spool instead of
    stopping at EOF: a trailing line without its newline is held back and
    re-attempted until the writer completes it (one record is one intact
    line -- :class:`SpoolingTracer` writes are lock-serialized), and the
    reader sleeps ``poll_interval`` seconds between attempts.  The loop
    runs until ``stop`` (a :class:`threading.Event`) is set; remaining
    complete lines are drained before returning.  ``idle_marker=True``
    yields ``None`` once per empty poll so a consumer (the dashboard's
    SSE endpoint) can emit keep-alives and notice dead peers.  Follow
    mode refuses gzip spools: a gzip stream is not seekable-appendable,
    so a growing ``.gz`` file cannot be tailed record-by-record.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"no trace spool at {path}")
    prefixes = tuple(kinds) if kinds is not None else None
    if not follow:
        with _open_spool(path) as handle:
            for line in handle:
                record = _parse_line(line, prefixes)
                if record is not None:
                    yield record
        return
    if poll_interval <= 0:
        raise ConfigurationError(
            f"poll_interval must be > 0, got {poll_interval}"
        )
    if path.suffix == ".gz" or _is_gzip(path):
        raise ConfigurationError(
            f"cannot follow gzip spool {path}: gzip streams are not "
            "seekable-appendable; spool to plain .jsonl for live tailing"
        )
    # Binary tail loop: bytes after the last newline stay buffered until
    # the writer finishes the line, so a torn trailing line is retried
    # rather than dropped.
    with path.open("rb") as handle:
        pending = b""
        while True:
            chunk = handle.read(65536)
            if chunk:
                pending += chunk
                while True:
                    newline = pending.find(b"\n")
                    if newline < 0:
                        break
                    raw, pending = pending[:newline], pending[newline + 1:]
                    record = _parse_line(
                        raw.decode("utf-8", errors="replace"), prefixes
                    )
                    if record is not None:
                        yield record
                continue
            if stop is not None and stop.is_set():
                return
            if idle_marker:
                yield None
            time.sleep(poll_interval)


def read_spool(
    path: Union[str, Path],
    kinds: Optional[Sequence[str]] = None,
) -> list:
    """Materialize a spool (small files / tests); prefer :func:`iter_spool`."""
    return list(iter_spool(path, kinds=kinds))
