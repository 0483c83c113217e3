"""Per-metric-family JSONL trend store with deterministic sort/merge.

One store is one directory (``benchmarks/trends/`` in this repository);
each metric family lives in one ``<family>.jsonl`` file, one canonical
JSON record per line.  :meth:`TrendStore.append` merges new records into
the family file **deterministically**: the union of existing and new
records is deduplicated on the canonical JSON form and rewritten in
:meth:`~repro.trends.schema.TrendRecord.sort_key` order, so the file's
bytes depend only on the set of records it holds — never on append order,
process interleaving or wall-clock.  Appending the same records twice is
a no-op by construction.

Loading refuses a record of another schema version
(:meth:`~repro.trends.schema.TrendRecord.from_dict`).  Every error path
raises :class:`TrendStoreError` with the file and line it happened on and
what to do about it — the CLI surfaces these verbatim instead of a
traceback.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .schema import TrendRecord, TrendSchemaError

__all__ = ["TrendStore", "TrendStoreError"]


class TrendStoreError(RuntimeError):
    """A trend-store operation failed; the message says how to fix it."""


class TrendStore:
    """A directory of per-family JSONL trend histories."""

    def __init__(self, root: Path):
        self.root = Path(root)

    # -- layout ------------------------------------------------------------

    def family_path(self, family: str) -> Path:
        """The JSONL file of one metric family."""
        return self.root / f"{family}.jsonl"

    def families(self) -> List[str]:
        """Sorted names of the families present in the store."""
        if not self.root.is_dir():
            raise TrendStoreError(
                f"trends store directory {self.root} does not exist — "
                f"record some runs first (set REPRO_TRENDS_DIR while running "
                f"the benchmarks, or use `repro trends record`)")
        return sorted(path.stem for path in self.root.glob("*.jsonl"))

    # -- reading -----------------------------------------------------------

    def load(self, family: str) -> List[TrendRecord]:
        """All records of one family, in deterministic sort order."""
        path = self.family_path(family)
        if not path.is_file():
            known = self.families()
            listing = ", ".join(known) if known else "none recorded yet"
            raise TrendStoreError(
                f"unknown metric family {family!r} in {self.root} "
                f"(available: {listing})")
        records = []
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = TrendRecord.from_json(line)
            except TrendSchemaError as exc:
                raise TrendStoreError(
                    f"{path}:{lineno}: malformed trend record ({exc}) — "
                    f"fix or delete the line, or regenerate the store")
            if record.family != family:
                raise TrendStoreError(
                    f"{path}:{lineno}: record of family {record.family!r} "
                    f"in the {family!r} store file — the line was written "
                    f"by hand; move it to {record.family}.jsonl")
            records.append(record)
        return sorted(records, key=TrendRecord.sort_key)

    def runs(self, family: Optional[str] = None) -> List[Tuple[int, str, str]]:
        """Distinct ``(order, commit, run_id)`` identities, sorted.

        The dashboard's x-axis: one entry per recorded run, ordered by the
        caller-provided sequence number first.
        """
        families = [family] if family is not None else self.families()
        seen: Dict[Tuple[int, str, str], None] = {}
        for name in families:
            for record in self.load(name):
                seen.setdefault((record.order, record.commit, record.run_id),
                                None)
        return sorted(seen)

    # -- writing -----------------------------------------------------------

    def append(self, records: Iterable[TrendRecord]) -> List[Path]:
        """Merge records into their family files; return the paths touched.

        Per family the file is rewritten as the deduplicated union of its
        existing and the new records in canonical sort order — append order
        can never reach the bytes on disk.
        """
        by_family: Dict[str, List[TrendRecord]] = {}
        for record in records:
            by_family.setdefault(record.family, []).append(record)
        self.root.mkdir(parents=True, exist_ok=True)
        touched = []
        for family in sorted(by_family):
            path = self.family_path(family)
            merged = {r.to_json(): r
                      for r in (self.load(family) if path.is_file() else [])}
            for record in by_family[family]:
                merged[record.to_json()] = record
            ordered = sorted(merged.values(), key=TrendRecord.sort_key)
            path.write_text(
                "".join(record.to_json() + "\n" for record in ordered),
                encoding="utf-8")
            touched.append(path)
        return touched

    # -- convenience -------------------------------------------------------

    def records_of_commit(self, commit: str,
                          families: Optional[Sequence[str]] = None,
                          ) -> List[TrendRecord]:
        """All records of one commit across the selected families."""
        names = list(families) if families is not None else self.families()
        out: List[TrendRecord] = []
        for family in names:
            out.extend(r for r in self.load(family) if r.commit == commit)
        return out

    def latest_commit(self) -> Optional[str]:
        """The commit of the newest run (max ``(order, commit, run_id)``)."""
        runs = self.runs()
        if not runs:
            return None
        return runs[-1][1]
