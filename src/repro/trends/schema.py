"""The trend record: one benchmark/campaign observation as versioned data.

A :class:`TrendRecord` is one run's worth of metrics for one cell of one
metric family — e.g. the ``(scenario=urban, backend=bonsai-batched)`` cell
of the hardware scenario matrix — keyed by the commit and run id the
*caller* passes in.  Nothing in this module reads the clock, the
environment or the git tree: identity is explicit data, which is what
keeps the store (:mod:`repro.trends.store`), the regression detector
(:mod:`repro.trends.regress`) and the dashboard
(:mod:`repro.trends.dashboard`) byte-deterministic.

Records are JSON-roundtrippable **exactly**: metric values are restricted
to finite ints and floats, and Python's ``repr``-based float serialisation
(the shortest round-tripping form, the same contract campaign world specs
rely on) guarantees ``from_json(to_json(r)) == r``.

The schema is versioned.  :data:`SCHEMA_VERSION` stamps every record, and
a record of any other version is refused on load, naming both versions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isfinite
from typing import Mapping, Tuple, Union

__all__ = [
    "SCHEMA_VERSION",
    "MetricValue",
    "TrendRecord",
    "TrendSchemaError",
]

#: Current record schema version; bump when the record shape changes.
SCHEMA_VERSION = 1

MetricValue = Union[int, float]


class TrendSchemaError(ValueError):
    """A record dict does not satisfy the trend-record schema."""


def _canonical_key(key: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(key.items()))


def _validate_str(name: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise TrendSchemaError(f"{name} must be a non-empty string, "
                               f"got {value!r}")
    return value


@dataclass(frozen=True)
class TrendRecord:
    """One metric-family cell of one identified run.

    ``family``
        Metric family, the store's file-level grouping (e.g.
        ``scenario-hw``); lowercase ``[a-z0-9-]`` so the family maps to a
        JSONL filename.
    ``commit`` / ``run_id`` / ``order``
        The run's identity, passed in by the caller (CI passes the git SHA
        and run number) — never read from the environment or the clock
        here.  ``order`` is the monotonically increasing sequence number
        trend lines are plotted along; commits do not sort chronologically,
        an explicit integer does.
    ``key``
        The cell within the family: scenario x backend x geometry (x stage,
        traffic class, ...), as a flat ``str -> str`` mapping.
    ``metrics``
        Flat metric name -> finite int/float.  Ints stay ints through the
        JSON round trip (exactness is what lets the regression detector
        compare byte counters exactly).
    """

    family: str
    commit: str
    run_id: str
    key: Mapping[str, str]
    metrics: Mapping[str, MetricValue]
    order: int = 0
    schema_version: int = field(default=SCHEMA_VERSION)

    def __post_init__(self):
        _validate_str("family", self.family)
        if not all(c.isascii() and (c.islower() or c.isdigit() or c == "-")
                   for c in self.family):
            raise TrendSchemaError(
                f"family must match [a-z0-9-]+ (it names the store file), "
                f"got {self.family!r}")
        _validate_str("commit", self.commit)
        _validate_str("run_id", self.run_id)
        if not isinstance(self.order, int) or isinstance(self.order, bool):
            raise TrendSchemaError(f"order must be an int, got {self.order!r}")
        if self.schema_version != SCHEMA_VERSION:
            raise TrendSchemaError(
                f"TrendRecord carries schema version {SCHEMA_VERSION}, "
                f"got {self.schema_version!r}")
        for name, value in self.key.items():
            _validate_str("key name", name)
            _validate_str(f"key[{name!r}]", value)
        for name, value in self.metrics.items():
            _validate_str("metric name", name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TrendSchemaError(
                    f"metric {name!r} must be an int or float, got {value!r}")
            if isinstance(value, float) and not isfinite(value):
                raise TrendSchemaError(
                    f"metric {name!r} must be finite, got {value!r}")
        # Freeze the mappings into canonical (sorted) plain dicts so two
        # records built from differently-ordered dicts compare equal and
        # serialise identically.
        object.__setattr__(self, "key",
                           dict(_canonical_key(self.key)))
        object.__setattr__(self, "metrics",
                           dict(sorted(self.metrics.items())))

    # -- identity / ordering ---------------------------------------------

    def cell(self) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        """The record's (family, canonical key) cell identity."""
        return self.family, _canonical_key(self.key)

    def sort_key(self):
        """Total deterministic order: family, run sequence, cell, payload."""
        return (self.family, self.order, self.commit, self.run_id,
                _canonical_key(self.key), tuple(sorted(self.metrics.items())))

    # -- JSON round trip ---------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-serialisable form (exact round trip via :meth:`from_dict`)."""
        return {
            "schema_version": self.schema_version,
            "family": self.family,
            "commit": self.commit,
            "run_id": self.run_id,
            "order": self.order,
            "key": dict(_canonical_key(self.key)),
            "metrics": dict(sorted(self.metrics.items())),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrendRecord":
        """Build a record from a dict of this tree's schema version.

        A dict without a ``schema_version`` field is read as the current
        version (the field has a default); any other version is refused.
        """
        current = dict(data)
        version = current.get("schema_version", SCHEMA_VERSION)
        if isinstance(version, bool) or not isinstance(version, int):
            raise TrendSchemaError(
                f"schema_version must be an int, got {version!r}")
        if version != SCHEMA_VERSION:
            raise TrendSchemaError(
                f"record has schema version {version!r}, this tree reads "
                f"schema version {SCHEMA_VERSION} only (update the repro "
                f"checkout to read newer records)")
        known = {"schema_version", "family", "commit", "run_id", "order",
                 "key", "metrics"}
        unknown = sorted(k for k in current if k not in known)
        if unknown:
            raise TrendSchemaError(f"unknown record fields {unknown}")
        try:
            key = dict(current.get("key", {}))
            metrics = dict(current.get("metrics", {}))
        except (TypeError, ValueError) as exc:
            raise TrendSchemaError(f"key/metrics must be mappings: {exc}")
        return cls(
            family=current.get("family", ""),
            commit=current.get("commit", ""),
            run_id=current.get("run_id", ""),
            key=key,
            metrics=metrics,
            order=current.get("order", 0),
            schema_version=version,
        )

    def to_json(self) -> str:
        """One canonical JSONL line (sorted keys, compact, no NaN)."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "TrendRecord":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TrendSchemaError(f"invalid JSON: {exc}")
        if not isinstance(data, dict):
            raise TrendSchemaError(
                f"a record line must be a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)
