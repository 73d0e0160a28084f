"""Content-addressed, append-only store of experiment run records.

Every run the pipeline executes is durable: a :class:`RunRecord`
captures what ran (experiment id, canonical params, seed, exact mode),
how (engine backend, package version), what it cost (wall clock, cache
hits/misses), and what it produced (the rendered report lines and the
full JSON data dict).  Records live in per-experiment JSONL manifests
under one store root:

.. code-block:: text

    .repro_runs/
        F1.jsonl        one line per record:
        T1b.jsonl       {"key": <sha256 of id+params+seed+exact>,
        ...              "sha256": <checksum of the record payload>,
                         "record": {...}}

The framing reuses the engine cache's checksum discipline: each line
carries the SHA-256 of its canonically-serialized payload, so a
truncated or bit-flipped line can never load as a wrong record — it is
skipped (and counted in ``corrupt_entries``), the run reads as missing,
and the next execution appends a good line.  Appending is the only
write operation; on load, the *last* intact line per key wins, so
re-recording a run supersedes rather than mutates.

Resume falls out of the addressing: a sweep asks ``store.has(key)``
per grid point and dispatches only the missing ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .. import obs
from ..obs import STORE_BYTES, STORE_RECORDS
from .spec import canonical_json

#: Bump when the record payload schema changes incompatibly.
STORE_SCHEMA_VERSION = 1

#: Environment override for the default store root.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]")


@dataclass(frozen=True)
class RunRecord:
    """One durable experiment run: identity, provenance, cost, results.

    ``telemetry`` is the run's summary block (per-name counter totals,
    per-label detail such as bits per player, heaviest span paths) —
    see :func:`repro.obs.telemetry_summary`.  ``None`` for records
    written before the telemetry subsystem existed; the store reads
    both forms.
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
        """The JSON payload one manifest line carries."""
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
        """Rebuild a record from a manifest payload."""
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


def payload_checksum(payload: dict) -> str:
    """SHA-256 of the canonical JSON rendering of a record payload."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def default_store_root() -> Path:
    """The store root: ``$REPRO_RUNS_DIR`` or ``.repro_runs``."""
    return Path(os.environ.get(RUNS_DIR_ENV, "") or ".repro_runs")


class RunStore:
    """Append-only JSONL store of :class:`RunRecord`\\ s under one root.

    The full index (key -> record) is built lazily on first read by
    scanning every manifest; records are small (a report's lines plus
    its data dict), so the whole store stays resident once loaded.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        """Open (creating on first write) the store under ``root``."""
        self.root = Path(root) if root is not None else default_store_root()
        self._index: dict[str, RunRecord] | None = None
        self.corrupt_entries = 0

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _load(self) -> dict[str, RunRecord]:
        """Scan every manifest, skipping lines that fail their checksum."""
        if self._index is not None:
            return self._index
        index: dict[str, RunRecord] = {}
        self.corrupt_entries = 0
        if self.root.is_dir():
            for manifest in sorted(self.root.glob("*.jsonl")):
                for line in manifest.read_text().splitlines():
                    if not line.strip():
                        continue
                    record = self._parse_line(line)
                    if record is None:
                        self.corrupt_entries += 1
                    else:
                        index[record.key] = record
        self._index = index
        return index

    @staticmethod
    def _parse_line(line: str) -> RunRecord | None:
        """One framed manifest line -> record, or None if corrupt."""
        try:
            frame = json.loads(line)
            payload = frame["record"]
            if frame["sha256"] != payload_checksum(payload):
                return None
            if payload.get("schema") != STORE_SCHEMA_VERSION:
                return None
            record = RunRecord.from_payload(payload)
            if record.key != frame["key"]:
                return None
            return record
        except (json.JSONDecodeError, KeyError, TypeError):
            return None

    def path_for(self, experiment_id: str) -> Path:
        """The manifest file holding one experiment's records."""
        return self.root / f"{_SAFE_ID.sub('_', experiment_id)}.jsonl"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has(self, key: str) -> bool:
        """True when a record with this content address is stored."""
        return key in self._load()

    def get(self, key: str) -> RunRecord | None:
        """The record at this content address, or None."""
        return self._load().get(key)

    def keys(self) -> list[str]:
        """Every stored content address."""
        return sorted(self._load())

    def records(self, experiment_id: str | None = None) -> list[RunRecord]:
        """Stored records (optionally one experiment's), oldest first."""
        records = [
            r
            for r in self._load().values()
            if experiment_id is None or r.experiment_id == experiment_id
        ]
        return sorted(records, key=lambda r: (r.experiment_id, r.created, r.key))

    def resolve_key(self, prefix: str) -> str:
        """Expand a unique key prefix (as shown by ``repro runs list``)."""
        matches = [k for k in self._load() if k.startswith(prefix)]
        if not matches:
            raise KeyError(f"no stored run matches key prefix {prefix!r}")
        if len(matches) > 1:
            raise KeyError(
                f"key prefix {prefix!r} is ambiguous ({len(matches)} matches)"
            )
        return matches[0]

    def __len__(self) -> int:
        """Number of distinct stored runs."""
        return len(self._load())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, record: RunRecord) -> str:
        """Append one record (superseding any prior record at its key)."""
        payload = record.to_payload()
        frame = {
            "key": record.key,
            "sha256": payload_checksum(payload),
            "record": payload,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        line = (json.dumps(frame, sort_keys=True) + "\n").encode()
        with self.path_for(record.experiment_id).open("ab+") as fh:
            # A write killed mid-line leaves no trailing newline; start a
            # fresh line so this record is not glued onto the torn one.
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)
        recorder = obs.active()
        if recorder is not None:
            recorder.count(STORE_RECORDS)
            recorder.count(STORE_BYTES, len(line))
        self._load()[record.key] = record
        return record.key
