"""Content-addressed store of experiment run records, one file per run.

Every run the pipeline executes is durable: a :class:`RunRecord`
captures what ran (experiment id, canonical params, seed, exact mode),
how (engine backend, package version), what it cost (wall clock, cache
hits/misses), and what it produced (the rendered report lines and the
full JSON data dict).  Each record lives in its own file, named by its
run key, under one store root:

.. code-block:: text

    .repro_runs/
        <run_key>.run     b"RPRORUN1\\n" + SHA-256(body) + body, where
        ...               body = "<run_key>\\n" + canonical JSON payload

Files go through :mod:`repro.engine.framing`, the frame the engine
cache's disk tier uses: ``put`` writes a temp file and renames it onto
the record path, so a killed writer leaves at most a ``*.tmp`` file and
the last ``put`` for a key wins.  A file that fails its magic (which
carries :data:`STORE_SCHEMA_VERSION`), its checksum, or its key line —
truncated, bit-flipped, copied under another key's name, or written by
another schema — reads as missing, counts in ``corrupt_entries``, and
is replaced by the next ``put``.

The store keeps no index: every query reads the files it needs, so a
store object sees the records other processes finished after it was
opened.  Resume falls out of the addressing: a sweep asks
``store.has(key)`` once per grid point and dispatches only the missing
ones.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .. import obs
from ..engine.framing import read_framed, write_framed
from ..obs import STORE_BYTES, STORE_RECORDS
from .spec import canonical_json

#: Bump when the record payload schema changes incompatibly.
STORE_SCHEMA_VERSION = 1

#: Environment override for the default store root.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Suffix of a record file; its stem is the run key.
RECORD_SUFFIX = ".run"

#: Magic of a record file's frame.  It carries the schema version, so a
#: record written under another schema reads as corrupt.
_MAGIC = b"RPRORUN%d\n" % STORE_SCHEMA_VERSION
#: A run key: the only file stem the store reads or writes.
_KEY = re.compile(r"[0-9a-f]{64}")


@dataclass(frozen=True)
class RunRecord:
    """One durable experiment run: identity, provenance, cost, results.

    ``telemetry`` is the run's summary block (per-name counter totals,
    the bits-by-role ``transcript`` table — messages, bit sum, max and
    a log2 histogram per protocol × role × round — and the heaviest
    span paths); see :func:`repro.obs.telemetry_summary`.  Records
    written before the roles existed carry bits per player under
    ``detail`` instead, and ones written before the telemetry subsystem
    carry ``None``; the store reads every form.
    """

    key: str
    experiment_id: str
    title: str
    params: dict
    seed: int | None
    exact: bool
    engine: dict
    version: str
    wall_time: float
    cache_hits: int
    cache_misses: int
    lines: tuple[str, ...]
    data: dict
    created: float
    telemetry: dict | None = None

    def to_payload(self) -> dict:
        """The JSON payload one record file carries."""
        return {
            "schema": STORE_SCHEMA_VERSION,
            "key": self.key,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "params": self.params,
            "seed": self.seed,
            "exact": self.exact,
            "engine": self.engine,
            "version": self.version,
            "wall_time": self.wall_time,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "lines": list(self.lines),
            "data": self.data,
            "created": self.created,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> RunRecord:
        """Rebuild a record from a stored payload."""
        return cls(
            key=payload["key"],
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            params=payload["params"],
            seed=payload["seed"],
            exact=payload["exact"],
            engine=payload["engine"],
            version=payload["version"],
            wall_time=payload["wall_time"],
            cache_hits=payload["cache_hits"],
            cache_misses=payload["cache_misses"],
            lines=tuple(payload["lines"]),
            data=payload["data"],
            created=payload["created"],
            telemetry=payload.get("telemetry"),
        )

    def render(self) -> str:
        """The stored report text, exactly as the live run printed it."""
        header = f"[{self.experiment_id}] {self.title}"
        return "\n".join([header, "=" * len(header), *self.lines])


def default_store_root() -> Path:
    """The store root: ``$REPRO_RUNS_DIR`` or ``.repro_runs``."""
    return Path(os.environ.get(RUNS_DIR_ENV, "") or ".repro_runs")


class RunStore:
    """One checksum-framed file per :class:`RunRecord`, under one root.

    Nothing stays resident: ``has`` and ``get`` read one file, and
    ``keys``, ``records``, ``resolve_key`` and ``len`` list the root and
    verify what they find.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        """Open (creating on first write) the store under ``root``."""
        self.root = Path(root) if root is not None else default_store_root()
        #: Corrupt record files this object's reads have met so far.
        self.corrupt_entries = 0

    def path_for(self, key: str) -> Path:
        """The file holding the record at this run key."""
        return self.root / f"{key}{RECORD_SUFFIX}"

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read(self, key: str) -> bytes | None:
        """The verified JSON payload stored at ``key``, or None.

        A key that is not a run key builds no path.  A record file whose
        frame or key line fails reads as missing and counts in
        ``corrupt_entries``.
        """
        if not _KEY.fullmatch(key):
            return None
        try:
            body = read_framed(self.path_for(key), _MAGIC)
        except FileNotFoundError:
            return None
        key_line = f"{key}\n".encode()
        if body is None or not body.startswith(key_line):
            self.corrupt_entries += 1
            return None
        return body[len(key_line) :]

    def _stored_keys(self) -> list[str]:
        """The run keys that name a record file, unverified, sorted."""
        return sorted(
            path.stem
            for path in self.root.glob(f"*{RECORD_SUFFIX}")
            if _KEY.fullmatch(path.stem)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has(self, key: str) -> bool:
        """True when an intact record with this content address is stored."""
        return self._read(key) is not None

    def get(self, key: str) -> RunRecord | None:
        """The record at this content address, or None."""
        payload = self._read(key)
        if payload is None:
            return None
        try:
            record = RunRecord.from_payload(json.loads(payload))
        except (ValueError, KeyError, TypeError):
            record = None
        if record is None or record.key != key:
            self.corrupt_entries += 1
            return None
        return record

    def keys(self) -> list[str]:
        """Every stored content address."""
        return [key for key in self._stored_keys() if self.has(key)]

    def records(self, experiment_id: str | None = None) -> list[RunRecord]:
        """Stored records (optionally one experiment's), oldest first."""
        records = [
            r
            for r in map(self.get, self._stored_keys())
            if r is not None
            and (experiment_id is None or r.experiment_id == experiment_id)
        ]
        return sorted(records, key=lambda r: (r.experiment_id, r.created, r.key))

    def resolve_key(self, prefix: str) -> str:
        """Expand a unique key prefix (as shown by ``repro runs list``)."""
        matches = [
            key
            for key in self._stored_keys()
            if key.startswith(prefix) and self.has(key)
        ]
        if not matches:
            raise KeyError(f"no stored run matches key prefix {prefix!r}")
        if len(matches) > 1:
            raise KeyError(
                f"key prefix {prefix!r} is ambiguous ({len(matches)} matches)"
            )
        return matches[0]

    def __len__(self) -> int:
        """Number of distinct stored runs."""
        return len(self.keys())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, record: RunRecord) -> str:
        """Write one record, replacing any record at its key.

        Raises ``ValueError`` for a key that is not a run key, and lets
        write errors propagate.
        """
        if not _KEY.fullmatch(record.key):
            raise ValueError(
                f"run key must be 64 lowercase hex digits, got {record.key!r}"
            )
        body = f"{record.key}\n{canonical_json(record.to_payload())}".encode()
        written = write_framed(self.path_for(record.key), _MAGIC, body)
        recorder = obs.active()
        if recorder is not None:
            recorder.count(STORE_RECORDS)
            recorder.count(STORE_BYTES, written)
        return record.key
