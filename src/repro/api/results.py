"""Columnar result container for experiment outputs.

Every experiment driver in this reproduction used to return a raw
``list[dict]``; :class:`ResultSet` replaces that with a columnar container
that keeps the record view (``to_records``) for compatibility while adding
the operations a result pipeline needs: filtering, grouping, column access,
CSV/JSON round-trips and provenance metadata (the parameters that produced
the data, a content hash and the wall time of the run).

The container is deliberately dependency-free: columns are plain Python
lists, so any JSON-serialisable cell value works, and numpy scalars are
normalised to native floats/ints on ingestion so that serialisation and
hashing are stable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence


class MissingColumnsError(KeyError):
    """A typed artifact lacks columns its consumer requires.

    Subclasses ``KeyError`` (a column lookup failed) but renders its message
    verbatim -- ``KeyError.__str__`` repr-quotes it, which would nest quotes
    inside every downstream error report and tombstone.
    """

    __str__ = Exception.__str__


def _normalize_cell(value: Any) -> Any:
    """Coerce numpy scalars/arrays and tuples into plain Python values."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (AttributeError, ValueError):
            pass
    if hasattr(value, "tolist") and not isinstance(value, (str, bytes)):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    return value


def _canonical_json(payload: Any) -> str:
    """Deterministic JSON used for hashing (sorted keys, repr'd floats)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def content_hash(records: Sequence[Mapping[str, Any]]) -> str:
    """SHA-256 content hash of a record list (order-sensitive, git-free)."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(_canonical_json(dict(record)).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class ResultSet:
    """Columnar container of experiment records with provenance metadata.

    Parameters
    ----------
    columns:
        Mapping of column name to list of cell values; all columns must have
        the same length.
    meta:
        Provenance metadata (experiment name, parameters, wall time, ...).
        Stored as a plain dict and serialised alongside the data.
    """

    def __init__(
        self,
        columns: Mapping[str, Sequence[Any]] | None = None,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self._columns: dict[str, list[Any]] = {
            str(name): [_normalize_cell(v) for v in values]
            for name, values in (columns or {}).items()
        }
        lengths = {len(values) for values in self._columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self.meta: dict[str, Any] = dict(meta or {})
        # The data never changes after construction (every transform builds
        # a new ResultSet), so its hash is computed at most once.
        self._content_hash: str | None = None

    # --- construction -----------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[Mapping[str, Any]],
        meta: Mapping[str, Any] | None = None,
    ) -> "ResultSet":
        """Build a ResultSet from a list of dicts (column union of all keys).

        Records missing a key get ``None`` in that column; column order is
        first-seen order across the record stream.
        """
        records = [dict(r) for r in records]
        columns: dict[str, list[Any]] = {}
        for index, record in enumerate(records):
            for key, value in record.items():
                if key not in columns:
                    columns[key] = [None] * index
                columns[key].append(value)
            for key in columns:
                if len(columns[key]) == index:
                    columns[key].append(None)
        return cls(columns, meta=meta)

    # --- basic container protocol ----------------------------------------

    @property
    def columns(self) -> list[str]:
        """Column names in their stored order."""
        return list(self._columns)

    def column(self, name: str) -> list[Any]:
        """One column as a list (copy)."""
        try:
            return list(self._columns[name])
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {self.columns}"
            ) from None

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.to_records())

    def __getitem__(self, index: int) -> dict[str, Any]:
        return {name: values[index] for name, values in self._columns.items()}

    def __eq__(self, other: object) -> bool:
        """Data equality (columns, order and cells); NaN cells compare equal.

        Metadata is deliberately excluded: two runs of the same experiment
        with different wall times hold the same data.
        """
        if not isinstance(other, ResultSet):
            return NotImplemented
        if list(self._columns) != list(other._columns):
            return False
        return all(
            len(mine) == len(theirs)
            and all(_cell_equal(a, b) for a, b in zip(mine, theirs))
            for mine, theirs in zip(self._columns.values(), other._columns.values())
        )

    def __repr__(self) -> str:
        name = self.meta.get("experiment", "?")
        return f"ResultSet({name!r}, {len(self)} records x {len(self._columns)} columns)"

    # --- record view ------------------------------------------------------

    def to_records(self) -> list[dict[str, Any]]:
        """The row-wise ``list[dict]`` view (the shape the figure functions return)."""
        return [self[i] for i in range(len(self))]

    # --- relational operations -------------------------------------------

    def filter(
        self,
        predicate: Callable[[dict[str, Any]], bool] | None = None,
        **equals: Any,
    ) -> "ResultSet":
        """Records matching a predicate and/or column equality constraints.

        ``rs.filter(kind="Cu")`` keeps rows whose ``kind`` column equals
        ``"Cu"``; a callable predicate receives the full record dict.
        """
        for key in equals:
            if key not in self._columns:
                raise KeyError(f"no column {key!r}; available: {self.columns}")

        def keep(record: dict[str, Any]) -> bool:
            if any(record[k] != v for k, v in equals.items()):
                return False
            return predicate(record) if predicate is not None else True

        return ResultSet.from_records(
            [r for r in self.to_records() if keep(r)], meta=self.meta
        )

    def group_by(self, *keys: str) -> dict[Any, "ResultSet"]:
        """Partition into sub-ResultSets keyed by one or more column values.

        With a single key the dict is keyed by the cell value, with several
        keys by the tuple of values.  Insertion order follows first
        occurrence.
        """
        if not keys:
            raise ValueError("group_by needs at least one column name")
        for key in keys:
            if key not in self._columns:
                raise KeyError(f"no column {key!r}; available: {self.columns}")
        groups: dict[Any, list[dict[str, Any]]] = {}
        for record in self.to_records():
            group_key = record[keys[0]] if len(keys) == 1 else tuple(record[k] for k in keys)
            groups.setdefault(group_key, []).append(record)
        return {
            key: ResultSet.from_records(records, meta=self.meta)
            for key, records in groups.items()
        }

    def select(self, *names: str) -> "ResultSet":
        """Projection onto a subset of columns (kept in the given order)."""
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise KeyError(f"no columns {missing}; available: {self.columns}")
        return ResultSet({n: self._columns[n] for n in names}, meta=self.meta)

    def sorted_by(self, *keys: str, reverse: bool = False) -> "ResultSet":
        """Copy sorted by one or more columns."""
        records = sorted(
            self.to_records(), key=lambda r: tuple(r[k] for k in keys), reverse=reverse
        )
        return ResultSet.from_records(records, meta=self.meta)

    def best(self, column: str, mode: str = "min") -> dict[str, Any]:
        """The record with the extremal value of ``column``.

        ``mode`` is ``"min"`` or ``"max"``.  Records whose cell is ``None``
        or NaN are skipped (a failed point must not win an optimisation);
        ties go to the earliest record, so the answer is deterministic for a
        fixed record order.  Raises :class:`KeyError` for an unknown column
        and :class:`ValueError` when the set is empty or no record has a
        comparable value.
        """
        if mode not in ("min", "max"):
            raise ValueError(f"unknown mode {mode!r}; use 'min' or 'max'")
        if column not in self._columns:
            raise KeyError(f"no column {column!r}; available: {self.columns}")
        best_index: int | None = None
        best_value: Any = None
        for index, value in enumerate(self._columns[column]):
            if value is None or (isinstance(value, float) and math.isnan(value)):
                continue
            if (
                best_index is None
                or (mode == "min" and value < best_value)
                or (mode == "max" and value > best_value)
            ):
                best_index, best_value = index, value
        if best_index is None:
            raise ValueError(
                f"no record has a comparable {column!r} value "
                f"({len(self)} records)"
            )
        return self[best_index]

    def top_k(self, column: str, k: int, mode: str = "min") -> "ResultSet":
        """The ``k`` most extreme records by ``column`` as a new ResultSet.

        Stable: equal values keep their original relative order.  ``None``
        and NaN cells sort last regardless of mode, so incomparable records
        only appear when ``k`` exceeds the number of comparable ones.
        """
        if mode not in ("min", "max"):
            raise ValueError(f"unknown mode {mode!r}; use 'min' or 'max'")
        if column not in self._columns:
            raise KeyError(f"no column {column!r}; available: {self.columns}")
        if k < 1:
            raise ValueError(f"top_k needs k >= 1, got {k}")

        def comparable(record: dict[str, Any]) -> bool:
            value = record[column]
            return value is not None and not (
                isinstance(value, float) and math.isnan(value)
            )

        records = self.to_records()
        ranked = sorted(
            (r for r in records if comparable(r)),
            key=lambda r: r[column],
            reverse=(mode == "max"),
        )
        ranked.extend(r for r in records if not comparable(r))
        return ResultSet.from_records(ranked[:k], meta=self.meta)

    def unique(self, name: str) -> list[Any]:
        """Distinct values of one column in first-seen order."""
        seen: dict[Any, None] = {}
        for value in self.column(name):
            seen.setdefault(value, None)
        return list(seen)

    def require_columns(self, *names: str) -> "ResultSet":
        """Assert the artifact carries the given columns; returns ``self``.

        The consumer-side half of the typed-artifact contract: a pipeline
        stage that reads specific columns of an injected upstream ResultSet
        (see ``Consumes`` in :mod:`repro.api.experiment`) calls this first,
        so an upstream schema drift fails with *which columns are missing
        from which experiment's output* instead of a bare ``KeyError`` deep
        in the stage's arithmetic.
        """
        missing = [name for name in names if name not in self._columns]
        if missing:
            source = self.meta.get("experiment", "upstream result")
            raise MissingColumnsError(
                f"{source!r} artifact is missing required columns {missing}; "
                f"available: {self.columns}"
            )
        return self

    # --- provenance -------------------------------------------------------

    @property
    def content_hash(self) -> str:
        """SHA-256 hash of the data (records in order); independent of meta.

        Computed on first access and kept: ``from_json`` builds a new
        ResultSet from the stored columns, so loading still hashes the data
        it verifies.
        """
        if self._content_hash is None:
            self._content_hash = content_hash(self.to_records())
        return self._content_hash

    # --- serialisation ----------------------------------------------------

    def to_json(self, path: str | None = None, indent: int | None = None) -> str:
        """Serialise data + metadata to JSON (and optionally write a file)."""
        payload = {
            "meta": self.meta,
            "content_hash": self.content_hash,
            "columns": self._columns,
        }
        text = json.dumps(payload, indent=indent, default=str)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    @classmethod
    def from_json(cls, text_or_path: str) -> "ResultSet":
        """Inverse of :meth:`to_json`; accepts a JSON string or a file path."""
        text = text_or_path
        if not text_or_path.lstrip().startswith("{"):
            with open(text_or_path) as handle:
                text = handle.read()
        payload = json.loads(text)
        result = cls(payload["columns"], meta=payload.get("meta"))
        stored = payload.get("content_hash")
        if stored is not None and stored != result.content_hash:
            raise ValueError(
                "content hash mismatch: stored data was modified or written "
                "by an incompatible version"
            )
        return result

    def to_csv(self, path: str | None = None) -> str:
        """Render as CSV text (and optionally write a file). Meta is dropped."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.columns)
        writer.writeheader()
        for record in self.to_records():
            writer.writerow(record)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text

    @classmethod
    def from_csv(cls, text_or_path: str) -> "ResultSet":
        """Parse CSV text or a CSV file, coercing numeric-looking cells.

        CSV is untyped, so cells are coerced back with ``int`` then ``float``
        then left as strings; empty cells become ``None``.  Lossless for the
        numeric tables the experiments produce; a text cell that ``float``
        accepts (``inf``, ``nan``, ``infinity``) comes back as a float.
        """
        text = text_or_path
        if "\n" not in text_or_path and "," not in text_or_path:
            with open(text_or_path, newline="") as handle:
                text = handle.read()
        reader = csv.DictReader(io.StringIO(text))
        records = [
            {key: _coerce_csv_cell(value) for key, value in row.items()}
            for row in reader
        ]
        return cls.from_records(records)


def _cell_equal(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True  # NaN cells count as equal data
    return a == b


def _coerce_csv_cell(value: str | None) -> Any:
    if value is None or value == "":
        return None
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    if value == "True":
        return True
    if value == "False":
        return False
    return value
