"""Storage layer standing in for HDFS and S3.

Rumble reads JSON-Lines files "in place" from HDFS or S3 (paper, Section 2
and 5.7).  This module provides the equivalent substrate: a URI-schemed
filesystem abstraction where ``hdfs://`` and ``s3://`` paths are mapped to
directories on the local disk, and text files are split into *blocks* the
same way HDFS blocks determine Spark's input partitions.

A process-wide :class:`FileSystemRegistry` lets tests and benchmarks mount
scheme roots (e.g. mount ``hdfs://`` onto a temp dir) without monkeypatching.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sanitizer import san_lock, shared_state

#: Default block size used to split files into partitions (bytes).  Real
#: HDFS uses 128 MB; we default far smaller so laptop-scale files still
#: produce multi-partition RDDs.
DEFAULT_BLOCK_SIZE = 4 * 1024 * 1024

#: Bytes per read when splitting a block into lines: the buffer size of
#: the ``BufferedReader`` a ``readline()`` loop refills from.  Larger
#: reads hold the GIL longer per call, which delays the short requests
#: of other threads when a server runs scans concurrently.
READ_CHUNK = 8 * 1024


class StorageError(IOError):
    """A path could not be resolved or read."""


@dataclass(frozen=True)
class FileBlock:
    """One block of a text file: a byte range of ``path``.

    Reading a block yields every line that *starts* inside the range, which
    is how Hadoop input splits avoid duplicating lines across blocks.
    """

    path: str
    start: int
    length: int

    def fingerprint(self) -> Tuple:
        """The block's cache identity: its byte range plus the file's
        stat fingerprint, so the shredded-batch cache invalidates on any
        rewrite (same signal as :func:`fingerprint_uri`).  Raises
        ``OSError`` if the file vanished — callers skip caching then."""
        stat = os.stat(self.path)
        return (self.path, self.start, self.length,
                stat.st_size, stat.st_mtime_ns)

    def read_lines(self, decode_errors: str = "strict") -> Iterator[str]:
        """Yield the block's lines.  ``decode_errors`` follows the codec
        convention (``"strict"``, ``"replace"``, ...): the tolerant parse
        modes read with ``"replace"`` so one undecodable byte becomes a
        malformed *record* rather than aborting the whole partition.

        The file is read :data:`READ_CHUNK` bytes at a time; each run of
        whole lines is decoded and split on ``\n`` at once.  A trailing
        ``\r`` is stripped from every line and blank lines are skipped."""
        end = self.start + self.length
        with open(self.path, "rb") as handle:
            if self.start > 0:
                # Hadoop's LineRecordReader rule: back up one byte and
                # discard a line, so a line *starting exactly at* the
                # boundary belongs to this block while a straddling line
                # belongs to the previous one.
                handle.seek(self.start - 1)
                handle.readline()
            offset = handle.tell()  # file offset of ``pending[0]``
            if offset >= end:
                return
            pending = b""  # the bytes of a line not yet complete
            while True:
                chunk = handle.read(READ_CHUNK)
                if not chunk:  # end of file: a last line without "\n"
                    yield from _split_lines(pending, decode_errors)
                    return
                data = pending + chunk if pending else chunk
                # The block's last line is the one holding byte end - 1:
                # it ends at the first "\n" at or after that byte.
                stop = data.find(b"\n", max(0, end - 1 - offset))
                if stop >= 0:
                    yield from _split_lines(data[:stop + 1], decode_errors)
                    return
                cut = data.rfind(b"\n") + 1
                if cut:
                    yield from _split_lines(data[:cut], decode_errors)
                pending = data[cut:]
                offset += cut


def _split_lines(data: bytes, decode_errors: str) -> Iterator[str]:
    """The non-blank lines of a run of whole lines, each without its
    line ending.  Decoding the run at once equals decoding it line by
    line, since no UTF-8 error ever spans a ``\n`` byte; when it raises
    (``strict``), :func:`_decode_one_by_one` takes over so the lines
    before the bad one still come out before the bad line's error."""
    try:
        text = data.decode("utf-8", decode_errors)
    except UnicodeDecodeError:
        return _decode_one_by_one(data, decode_errors)
    lines = text.split("\n")
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    return filter(None, lines)


def _decode_one_by_one(data: bytes, decode_errors: str) -> Iterator[str]:
    pieces = data.split(b"\n")
    last = len(pieces) - 1
    for number, piece in enumerate(pieces):
        # Each line is decoded with its "\n", as a readline() loop would.
        raw = piece if number == last else piece + b"\n"
        line = raw.decode("utf-8", decode_errors).rstrip("\n").rstrip("\r")
        if line:
            yield line


@shared_state
class FileSystemRegistry:
    """Maps URI schemes (``hdfs``, ``s3``, ``file``) to local roots."""

    def __init__(self) -> None:
        self._mounts: Dict[str, str] = {}
        # The registry is process-wide shared state; concurrently serving
        # engines (repro.server) mount and resolve from many threads.
        self._lock = san_lock("spark.storage.registry")

    def mount(self, scheme: str, root: str) -> None:
        """Serve ``scheme://...`` paths from the local directory ``root``."""
        with self._lock:
            self._mounts[scheme] = os.path.abspath(root)

    def unmount(self, scheme: str) -> None:
        with self._lock:
            self._mounts.pop(scheme, None)

    def resolve(self, uri: str) -> str:
        """Translate a URI into a local filesystem path."""
        scheme, rest = split_uri(uri)
        if scheme in (None, "file"):
            return rest
        with self._lock:
            root = self._mounts.get(scheme)
        if root is None:
            raise StorageError(
                "no filesystem mounted for scheme {!r} (uri {!r})".format(
                    scheme, uri
                )
            )
        return os.path.join(root, rest.lstrip("/"))


def split_uri(uri: str) -> Tuple[Optional[str], str]:
    """Split ``scheme://path`` into its scheme and path parts."""
    if "://" in uri:
        scheme, _, rest = uri.partition("://")
        return scheme, "/" + rest.lstrip("/")
    return None, uri


#: The process-wide registry used by SparkContext.textFile and json-file().
REGISTRY = FileSystemRegistry()


def split_file(
    local_path: str,
    min_partitions: Optional[int] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[FileBlock]:
    """Split one file into blocks, honouring a minimum partition count."""
    if not os.path.exists(local_path):
        raise StorageError("no such file: " + local_path)
    size = os.path.getsize(local_path)
    if size == 0:
        return [FileBlock(local_path, 0, 0)]
    if min_partitions:
        block_size = min(block_size, max(1, -(-size // min_partitions)))
    blocks = []
    offset = 0
    while offset < size:
        length = min(block_size, size - offset)
        blocks.append(FileBlock(local_path, offset, length))
        offset += length
    return blocks


def list_input_files(local_path: str) -> List[str]:
    """Expand a path into concrete files (a directory reads all its files,
    skipping Hadoop-style ``_SUCCESS`` markers and dotfiles)."""
    if os.path.isdir(local_path):
        names = sorted(
            name
            for name in os.listdir(local_path)
            if not name.startswith((".", "_"))
        )
        return [os.path.join(local_path, name) for name in names]
    return [local_path]


def fingerprint_uri(uri: str) -> Tuple:
    """The lineage fingerprint of the input behind a URI.

    A tuple of ``(path, size, mtime_ns)`` per concrete file the URI
    expands to — the result cache's invalidation signal: any append,
    rewrite, rotation, or even a same-size in-place edit (mtime moves)
    changes the fingerprint.  An unresolvable or missing input yields a
    distinct ``("missing", uri)`` marker so a cached error state never
    masks a file that has since appeared.
    """
    try:
        local = REGISTRY.resolve(uri)
        files = list_input_files(local)
        return tuple(
            (path, stat.st_size, stat.st_mtime_ns)
            for path, stat in (
                (path, os.stat(path)) for path in sorted(files)
            )
        )
    except (StorageError, OSError):
        return ("missing", uri)


def split_input(
    uri: str,
    min_partitions: Optional[int] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[FileBlock]:
    """Resolve a URI and split the file(s) behind it into blocks."""
    local = REGISTRY.resolve(uri)
    blocks: List[FileBlock] = []
    for path in list_input_files(local):
        blocks.extend(split_file(path, min_partitions, block_size))
    if min_partitions and len(blocks) < min_partitions:
        blocks = _resplit(blocks, min_partitions)
    return blocks


def _resplit(blocks: List[FileBlock], want: int) -> List[FileBlock]:
    """Split existing blocks further until at least ``want`` exist."""
    blocks = list(blocks)
    while len(blocks) < want:
        blocks.sort(key=lambda b: b.length, reverse=True)
        big = blocks.pop(0)
        if big.length <= 1:
            blocks.append(big)
            break
        half = big.length // 2
        blocks.append(FileBlock(big.path, big.start, half))
        blocks.append(FileBlock(big.path, big.start + half, big.length - half))
    return sorted(blocks, key=lambda b: (b.path, b.start))


# -- Min/max file statistics (partition pruning) -------------------------------

#: Sidecar suffix; the leading dot keeps :func:`list_input_files` from
#: ever reading a sidecar back as data.
STATS_SUFFIX = ".rumble-stats.json"


def stats_path(local_path: str) -> str:
    directory, base = os.path.split(local_path)
    return os.path.join(directory, "." + base + STATS_SUFFIX)


def write_stats_sidecars(uri: str) -> List[str]:
    """Scan the JSON-Lines file(s) behind ``uri`` and write one min/max
    stats sidecar per file.

    The sidecar records, per top-level key of the file's object records:
    the key's value type family (``string``/``number``/``mixed``/
    ``other``) and, for single-family scalar keys, the min and max.  A
    pushed key-vs-literal predicate whose range the sidecar disproves
    lets the scan skip the whole file (the classic small-materialized-
    aggregates / Parquet row-group pruning trick).
    """
    import json

    written = []
    for path in list_input_files(REGISTRY.resolve(uri)):
        rows = 0
        keys: Dict[str, Dict[str, object]] = {}
        with open(path, "rb") as handle:
            for raw in handle:
                text = raw.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                rows += 1
                try:
                    record = json.loads(text)
                except ValueError:
                    # A malformed line may hold any values: poison every
                    # key so nothing about this file can be disproved.
                    keys = {key: {"type": "mixed"} for key in keys}
                    keys["\0malformed"] = {"type": "mixed"}
                    continue
                if type(record) is not dict:
                    continue
                for key, value in record.items():
                    _observe(keys, key, value)
        payload = {"rows": rows, "keys": {
            key: stat for key, stat in keys.items() if not key.startswith("\0")
        }}
        if any(key.startswith("\0") for key in keys):
            payload["unreliable"] = True
        target = stats_path(path)
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        written.append(target)
    return written


def _observe(keys: Dict[str, Dict[str, object]], key: str, value) -> None:
    kind = type(value)
    if kind is str:
        family = "string"
    elif kind is bool:
        family = "other"
    elif kind is int or kind is float:
        family = "number"
    else:
        family = "other"
    stat = keys.get(key)
    if stat is None:
        if family in ("string", "number"):
            keys[key] = {"type": family, "min": value, "max": value,
                         "count": 1}
        else:
            keys[key] = {"type": family, "count": 1}
        return
    stat["count"] = stat.get("count", 0) + 1
    if stat["type"] != family:
        stat["type"] = "mixed"
        stat.pop("min", None)
        stat.pop("max", None)
        return
    if "min" in stat:
        if value < stat["min"]:
            stat["min"] = value
        if value > stat["max"]:
            stat["max"] = value


def load_stats(local_path: str) -> Optional[dict]:
    """The stats sidecar of one data file, or None when absent/corrupt."""
    import json

    target = stats_path(local_path)
    if not os.path.exists(target):
        return None
    try:
        with open(target, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (ValueError, OSError):
        return None
    if not isinstance(payload, dict) or "keys" not in payload:
        return None
    return payload


def _family_of_literal(value) -> Optional[str]:
    if isinstance(value, bool):
        return None
    if isinstance(value, str):
        return "string"
    if isinstance(value, (int, float)):
        return "number"
    return None


def file_excluded(stats: dict, predicates) -> bool:
    """Whether a stats sidecar *disproves* one of the pushed range
    predicates for every record of its file.

    ``predicates`` are ``(key, op, literal)`` facts with value-comparison
    op names; they are conjunctive, so one disproved predicate excludes
    the file.  Conservative in every unknown: mixed-type keys, missing
    stats and unreliable sidecars never exclude.
    """
    if stats.get("unreliable"):
        return False
    rows = stats.get("rows", 0)
    if not isinstance(rows, int) or rows <= 0:
        return False
    keys = stats.get("keys", {})
    for key, op, literal in predicates:
        family = _family_of_literal(literal)
        if family is None:
            continue
        stat = keys.get(key)
        if stat is None:
            # The key never occurs in this file: every lookup is the
            # empty sequence, so the predicate is false on every record.
            return True
        if stat.get("type") != family or "min" not in stat:
            continue
        # Records lacking the key fail the predicate anyway, so the range
        # over *present* values decides the file even when count < rows.
        low, high = stat["min"], stat["max"]
        if op == "eq" and (literal < low or literal > high):
            return True
        if op == "lt" and low >= literal:
            return True
        if op == "le" and low > literal:
            return True
        if op == "gt" and high <= literal:
            return True
        if op == "ge" and high < literal:
            return True
        if op == "ne" and low == high == literal:
            return True
    return False


def split_input_pruned(
    uri: str,
    min_partitions: Optional[int] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    range_predicates=(),
) -> Tuple[List[FileBlock], int]:
    """Like :func:`split_input`, but skip files whose stats sidecar
    disproves a pushed range predicate.  Returns (blocks, files pruned).
    """
    local = REGISTRY.resolve(uri)
    blocks: List[FileBlock] = []
    pruned = 0
    for path in list_input_files(local):
        if range_predicates:
            stats = load_stats(path)
            if stats is not None and file_excluded(stats, range_predicates):
                pruned += 1
                continue
        blocks.extend(split_file(path, min_partitions, block_size))
    if min_partitions and blocks and len(blocks) < min_partitions:
        blocks = _resplit(blocks, min_partitions)
    return blocks, pruned


def write_partitioned_text(
    uri: str, partitions: List[List[str]]
) -> List[str]:
    """Write lines as Hadoop-style ``part-NNNNN`` files plus ``_SUCCESS``.

    This is the parallel write-back path of the paper's Section 5.4: when
    the root iterator supports the RDD API, results go straight back to
    storage without materializing on the driver.
    """
    local = REGISTRY.resolve(uri)
    os.makedirs(local, exist_ok=True)
    written = []
    for index, lines in enumerate(partitions):
        path = os.path.join(local, "part-{:05d}".format(index))
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
        written.append(path)
    open(os.path.join(local, "_SUCCESS"), "w").close()
    return written


# ---------------------------------------------------------------------------
# Disk tier for the memory manager: spilled partitions and shuffle buckets.
# ---------------------------------------------------------------------------

#: Storage levels for ``RDD.persist(level)``.  ``MEMORY_ONLY`` (the
#: ``cache()`` default) drops evicted partitions and recomputes them from
#: lineage; ``MEMORY_AND_DISK`` writes them to a :class:`SpillStore`
#: block instead, so eviction costs a disk read rather than a recompute.
MEMORY_ONLY = "MEMORY_ONLY"
MEMORY_AND_DISK = "MEMORY_AND_DISK"
STORAGE_LEVELS = (MEMORY_ONLY, MEMORY_AND_DISK)


class SpillHandle:
    """A lazily-read pickled block written by :class:`SpillStore`.

    Iterating the handle re-reads the block from disk each time, so a
    spilled shuffle bucket or cached partition can be consumed by
    retried and speculative task attempts exactly like its in-memory
    form (the data is immutable once written — exactly-once semantics
    reduce to reading the same bytes again).
    """

    __slots__ = ("store", "path", "records", "bytes", "released")

    def __init__(self, store: "SpillStore", path: str, records: int,
                 size: int):
        self.store = store
        self.path = path
        self.records = records
        self.bytes = size
        self.released = False

    def read(self) -> list:
        return self.store.read(self)

    def __iter__(self):
        return iter(self.read())

    def release(self) -> None:
        self.store.release(self)


class SpillStore:
    """The disk tier: one temp directory of pickled blocks.

    Created lazily on first spill so unbounded-memory runs never touch
    the filesystem.  Blocks are immutable after :meth:`put`; they are
    removed by :meth:`release` (unpersist / shuffle-state invalidation)
    or wholesale by :meth:`clear`.
    """

    def __init__(self, directory: Optional[str] = None):
        self._directory = directory
        self._sequence = 0
        self.spilled_blocks = 0
        self.spilled_bytes = 0

    @property
    def directory(self) -> str:
        if self._directory is None:
            import tempfile

            self._directory = tempfile.mkdtemp(prefix="rumble-spill-")
        return self._directory

    def put(self, records: list) -> SpillHandle:
        import pickle

        payload = pickle.dumps(list(records), protocol=4)
        self._sequence += 1
        path = os.path.join(
            self.directory, "block-{:06d}.bin".format(self._sequence)
        )
        with open(path, "wb") as handle:
            handle.write(payload)
        self.spilled_blocks += 1
        self.spilled_bytes += len(payload)
        return SpillHandle(self, path, len(records), len(payload))

    def read(self, handle: SpillHandle) -> list:
        import pickle

        if handle.released:
            raise StorageError("spill block already released: " + handle.path)
        with open(handle.path, "rb") as stream:
            return pickle.loads(stream.read())

    def release(self, handle: SpillHandle) -> None:
        if handle.released:
            return
        handle.released = True
        try:
            os.remove(handle.path)
        except OSError:
            pass

    def clear(self) -> None:
        if self._directory is None:
            return
        import shutil

        shutil.rmtree(self._directory, ignore_errors=True)
        self._directory = None
