"""Auxiliary-data source abstraction.

The auxiliary data ``Q`` of the paper is whatever the adversary can gather
about the individuals named in the release — web pages, blogs, property
records.  The :class:`AuxiliarySource` interface abstracts over such channels
so that the attack pipeline can be exercised against the simulated web corpus
(:mod:`repro.fusion.web`), a CSV of scraped attributes, or any custom source.

Columnar harvest path
---------------------
The bulk-harvest entry point is :meth:`AuxiliarySource.harvest_records`,
which returns a :class:`HarvestRecords` batch — a plain
``list[AuxiliaryRecord | None]`` that additionally carries (or lazily
computes, exactly once) the ``(n_names,)`` float columns of every harvested
numeric attribute.  Sources backed by columnar storage
(:class:`TableAuxiliarySource`, the simulated web corpus) produce those
columns by array gather, so the attack's assemble step reads NaN-masked
arrays instead of looping per-record dicts — and a FRED sweep sharing one
harvest across levels pays the column extraction once, not once per level.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.exceptions import AuxiliarySourceError
from repro.linkage.index import LinkageIndex

__all__ = [
    "AuxiliaryRecord",
    "AuxiliarySource",
    "ColumnRowAttributes",
    "HarvestRecords",
    "TableAuxiliarySource",
    "auxiliary_table",
]


@dataclass(frozen=True)
class AuxiliaryRecord:
    """One person's auxiliary attributes as harvested from a source.

    Attributes
    ----------
    name:
        The name under which the record was found (the web page owner).
    attributes:
        Harvested attribute values keyed by attribute name (e.g.
        ``{"employment_seniority": 8, "property_holdings": 3560}``).
    confidence:
        The source's own confidence that the record belongs to the queried
        person (linkage score, search ranking, ...), in ``[0, 1]``.
    source:
        Free-text provenance (page URL, index name, ...).
    """

    name: str
    attributes: Mapping[str, float | str]
    confidence: float = 1.0
    source: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise AuxiliarySourceError(
                f"confidence must lie in [0, 1], got {self.confidence}"
            )

    def numeric_attribute(self, name: str) -> float | None:
        """A numeric attribute value, or ``None`` if absent / non-numeric."""
        value = self.attributes.get(name)
        if value is None or isinstance(value, str):
            return None
        return float(value)


class HarvestRecords(list):
    """A bulk harvest: ``list[AuxiliaryRecord | None]`` plus cached columns.

    Behaves exactly like the historical record list (iteration, ``len``,
    indexing, equality, pickling), so every existing consumer of a harvest —
    the attack's alignment checks, the service cache, ablation code — keeps
    working.  On top of that, :meth:`numeric_column` exposes each harvested
    attribute as one NaN-masked ``(n_names,)`` float array.  Columnar sources
    pre-seed those arrays with a single gather; otherwise they are derived
    from the records on first use and memoized, so a sweep sharing one
    harvest across many anonymization levels extracts each column once.
    """

    def __init__(
        self,
        records: Sequence["AuxiliaryRecord | None"] = (),
        numeric_columns: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        super().__init__(records)
        self._numeric: dict[str, np.ndarray] = dict(numeric_columns or {})

    def numeric_column(self, name: str) -> np.ndarray:
        """Attribute ``name`` as a float column (NaN where unmatched/absent).

        The returned array is the cached buffer — callers must copy before
        mutating.
        """
        column = self._numeric.get(name)
        if column is None:
            column = np.full(len(self), np.nan)
            for i, record in enumerate(self):
                if record is None:
                    continue
                value = record.numeric_attribute(name)
                if value is not None:
                    column[i] = value
            self._numeric[name] = column
        return column


class AuxiliarySource(abc.ABC):
    """A channel from which the adversary can harvest auxiliary records."""

    #: Names of the numeric attributes this source can provide.
    attribute_names: tuple[str, ...] = ()

    @property
    def linkage_index(self) -> "LinkageIndex | None":
        """The source's record-linkage index, if it resolves names through one.

        Linkage-backed sources override this (building their index if it is
        lazy) so callers can inspect or measure the index they resolve names
        through.  ``None`` means the source resolves names without one.
        """
        return None

    @abc.abstractmethod
    def search(self, name: str) -> list[AuxiliaryRecord]:
        """Records plausibly describing the person called ``name`` (best first)."""

    def lookup(self, name: str) -> AuxiliaryRecord | None:
        """The best record for ``name``, or ``None`` when nothing is found."""
        records = self.search(name)
        return records[0] if records else None

    def search_many(self, names: Sequence[str]) -> list[list[AuxiliaryRecord]]:
        """Search results for every name, in name order.

        The default loops over :meth:`search`; sources backed by a batched
        linkage engine override this (or :meth:`lookup_many`) to resolve the
        whole batch in one pass.
        """
        return [self.search(str(name)) for name in names]

    def lookup_many(self, names: Sequence[str]) -> list[AuxiliaryRecord | None]:
        """The best record per name (``None`` where nothing is found).

        This is the batched lookup primitive: the attack resolves a release's
        whole identifier column through one call, so a batched source pays its
        linkage cost once per corpus instead of once per (name, level) pair.
        """
        return [records[0] if records else None for records in self.search_many(names)]

    def harvest_records(self, names: Sequence[str]) -> HarvestRecords:
        """Best record per name as a :class:`HarvestRecords` batch.

        This is the harvest entry point used by
        :func:`repro.fusion.attack.harvest_auxiliary`.  The default wraps
        :meth:`lookup_many`; columnar sources override it to also attach
        array-gathered numeric fact columns.
        """
        return HarvestRecords(self.lookup_many(list(names)))


def _py_cell(value: object) -> object:
    """Unwrap numpy scalars so record attributes hold plain Python values."""
    return value.item() if isinstance(value, np.generic) else value


class ColumnRowAttributes(Mapping):
    """One storage row viewed as a record attribute mapping, fully lazily.

    Columnar sources hand each :class:`AuxiliaryRecord` one of these instead
    of materializing a per-row dict: a cell is read from the source's column
    arrays only when something actually asks for it (``reader(name, row)``;
    a ``None`` return means the cell is absent).  Since the attack's
    assemble step reads whole :meth:`HarvestRecords.numeric_column` arrays
    and never touches per-record attributes, the harvest path now builds
    zero dicts.

    The view compares equal to the dict it stands for (the :class:`Mapping`
    mixin contract), and pickling materializes it to a plain dict — a
    pickled record must not drag the source's column arrays along.
    """

    __slots__ = ("_reader", "_names", "_row")

    def __init__(
        self,
        reader: "Callable[[str, int], object]",
        names: tuple[str, ...],
        row: int,
    ) -> None:
        self._reader = reader
        self._names = names
        self._row = row

    def __getitem__(self, key: str) -> object:
        if key in self._names:
            value = self._reader(key, self._row)
            if value is not None:
                return value
        raise KeyError(key)

    def __iter__(self):
        for name in self._names:
            if self._reader(name, self._row) is not None:
                yield name

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        return (dict, (dict(self),))


def _gather_numeric_column(column: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Gather storage-array cells at ``rows`` into a float column.

    ``rows`` holds one storage row per queried name (``-1`` = no match).
    Cells follow :meth:`AuxiliaryRecord.numeric_attribute` semantics: numbers
    coerce to float, strings / ``None`` / misses become NaN.
    """
    out = np.full(rows.shape[0], np.nan)
    hit = rows >= 0
    if not bool(hit.any()):
        return out
    taken = column[np.where(hit, rows, 0)]
    if column.dtype.kind in "if":
        out[hit] = taken[hit].astype(np.float64)
        return out
    converted = np.full(rows.shape[0], np.nan)
    for i in np.nonzero(hit)[0]:
        value = taken[i]
        if value is None or isinstance(value, str):
            continue
        converted[i] = float(value)
    out[hit] = converted[hit]
    return out


@dataclass
class TableAuxiliarySource(AuxiliarySource):
    """An auxiliary source backed by an in-memory table keyed by a name column.

    Useful for loading previously harvested auxiliary data from CSV (via
    :func:`repro.dataset.io.read_csv`) and replaying an attack offline.

    By default names are looked up **exactly** (the table is assumed to be
    keyed by the same spellings the release uses).  Setting
    ``linkage_threshold`` switches the source to approximate record linkage:
    a :class:`~repro.linkage.LinkageIndex` is built over the name column once
    and queries resolve through blocked, batched similarity scoring — the
    right mode when the auxiliary CSV holds scraped web names.

    The source is fully columnar: it keeps references to the table's typed
    column buffers and assembles records (or whole harvest columns) by array
    gather — the table's rows are never materialized as per-row dicts.

    Parameters
    ----------
    table:
        The auxiliary table.
    name_column:
        The identifier column the table is keyed by.
    attribute_names:
        Harvestable numeric attributes (default: every numeric column except
        the name column).
    linkage_threshold:
        When set, minimum composite name similarity for a row to match;
        ``None`` (default) keeps exact lookups.
    blocking / qgram_size:
        Blocking knobs of the linkage index (approximate mode only).
    """

    table: Table
    name_column: str
    attribute_names: tuple[str, ...] = field(default_factory=tuple)
    linkage_threshold: float | None = None
    blocking: str = "qgram"
    qgram_size: int = 2

    def __post_init__(self) -> None:
        if self.name_column not in self.table.schema:
            raise AuxiliarySourceError(
                f"name column {self.name_column!r} not present in the auxiliary table"
            )
        if not self.attribute_names:
            self.attribute_names = tuple(
                attribute.name
                for attribute in self.table.schema.attributes
                if attribute.name != self.name_column and attribute.is_numeric
            )
        names = [str(name) for name in self.table.column(self.name_column)]
        # Last occurrence wins on duplicate names, like the historical
        # row-dict index did.
        self._by_name = {name: row for row, name in enumerate(names)}
        self._columns = {
            name: self.table.column_array(name) for name in self.attribute_names
        }
        self._index: LinkageIndex | None = None
        if self.linkage_threshold is not None:
            self._index = LinkageIndex(
                names,
                threshold=self.linkage_threshold,
                blocking=self.blocking,
                qgram_size=self.qgram_size,
            )

    @property
    def linkage_index(self) -> LinkageIndex | None:
        """The approximate-mode linkage index (``None`` in exact-lookup mode)."""
        return self._index

    def _cell(self, attribute_name: str, row: int) -> object:
        return _py_cell(self._columns[attribute_name][row])

    def _record_at(
        self, row: int, name: str, confidence: float = 1.0
    ) -> AuxiliaryRecord:
        # The record's attributes are a lazy view over the column buffers:
        # cells are read on access, so building a harvest of N records
        # allocates N views and zero dicts.
        return AuxiliaryRecord(
            name=name,
            attributes=ColumnRowAttributes(self._cell, self.attribute_names, row),
            confidence=confidence,
            source="table",
        )

    def search(self, name: str) -> list[AuxiliaryRecord]:
        if self._index is None:
            row = self._by_name.get(str(name))
            if row is None:
                return []
            return [self._record_at(row, str(name))]
        return [
            self._record_at(
                match.candidate_index,
                match.candidate,
                confidence=min(match.score, 1.0),
            )
            for match in self._index.candidates(str(name))
        ]

    def lookup_many(self, names: Sequence[str]) -> list[AuxiliaryRecord | None]:
        """Best record per name; approximate mode resolves the batch at once."""
        if self._index is None:
            results: list[AuxiliaryRecord | None] = []
            by_name = self._by_name
            for name in names:
                row = by_name.get(str(name))
                results.append(None if row is None else self._record_at(row, str(name)))
            return results
        matches = self._index.match_many([str(name) for name in names])
        return [
            None
            if match is None
            else self._record_at(
                match.candidate_index,
                match.candidate,
                confidence=min(match.score, 1.0),
            )
            for match in matches
        ]

    def harvest_records(self, names: Sequence[str]) -> HarvestRecords:
        """Bulk harvest with numeric fact columns gathered straight from storage."""
        queried = [str(name) for name in names]
        if self._index is None:
            by_name = self._by_name
            rows = np.fromiter(
                (by_name.get(name, -1) for name in queried),
                dtype=np.intp,
                count=len(queried),
            )
            records = [
                None if row < 0 else self._record_at(int(row), name)
                for row, name in zip(rows, queried)
            ]
        else:
            matches = self._index.match_many(queried)
            rows = np.fromiter(
                (-1 if match is None else match.candidate_index for match in matches),
                dtype=np.intp,
                count=len(matches),
            )
            records = [
                None
                if match is None
                else self._record_at(
                    match.candidate_index,
                    match.candidate,
                    confidence=min(match.score, 1.0),
                )
                for match in matches
            ]
        numeric = {
            name: _gather_numeric_column(column, rows)
            for name, column in self._columns.items()
        }
        return HarvestRecords(records, numeric)


def auxiliary_table(records: Sequence[AuxiliaryRecord], attribute_names: Sequence[str]) -> Table:
    """Materialize harvested auxiliary records as a :class:`Table` (paper Table IV).

    The table is assembled column-wise — one value list per attribute, handed
    to the columnar constructor — rather than through per-row dicts.  Missing
    attributes are stored as ``None``; the name column is an identifier so the
    resulting table can be joined with the release on names.
    """
    schema = Schema(
        [Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]
        + [Attribute(name, AttributeRole.QUASI_IDENTIFIER) for name in attribute_names]
    )
    columns: dict[str, list[object]] = {
        "name": [record.name for record in records]
    }
    for name in attribute_names:
        columns[name] = [record.attributes.get(name) for record in records]
    return Table(schema, columns)
