"""Auxiliary-data source abstraction.

The auxiliary data ``Q`` of the paper is whatever the adversary can gather
about the individuals named in the release — web pages, blogs, property
records.  The :class:`AuxiliarySource` interface abstracts over such channels
so that the attack pipeline can be exercised against the simulated web corpus
(:mod:`repro.fusion.web`), a CSV of scraped attributes, or any custom source.

A source keeps one storage row per page or person and answers in rows:

* :meth:`AuxiliarySource.match` resolves a whole batch of names at once to
  the best row per name (``-1`` for a miss) and its confidence;
* :meth:`AuxiliarySource.cells` reads one stored fact at many rows;
* :meth:`AuxiliarySource.record` labels a row with its stored name and
  provenance.

Those three are all the harvest (:func:`repro.fusion.attack.harvest_auxiliary`)
asks of a source.  :meth:`AuxiliarySource.search` lists every record
plausibly describing one name, for interactive use.

A source that links names approximately answers both through its
:class:`~repro.linkage.LinkageIndex`: ``match`` is
:meth:`~repro.linkage.LinkageIndex.match_many` and ``search`` lists the rows
of :meth:`~repro.linkage.LinkageIndex.candidates`.  Both answer in rows and
scores, and a linkage score (in ``[0, 1]``) is the record's confidence.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.dataset.table import Table
from repro.exceptions import AuxiliarySourceError
from repro.linkage.index import LinkageIndex

__all__ = [
    "AuxiliaryRecord",
    "AuxiliarySource",
    "TableAuxiliarySource",
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

    @abc.abstractmethod
    def match(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The best storage row per name and its confidence, as one batch.

        Returns ``(rows, confidence)``, two ``(len(names),)`` arrays in name
        order: ``intp`` rows with ``-1`` where nothing matched, and float
        confidences in ``[0, 1]`` (``0`` at a miss).  The row agrees with
        ``search(name)[0]``; the attack resolves a release's whole identifier
        column through this one call, so a linkage-backed source pays its
        linkage cost once per batch.
        """

    @abc.abstractmethod
    def cells(self, attribute: str, rows: np.ndarray) -> Sequence[object]:
        """The stored cells of ``attribute`` at storage ``rows``.

        A numeric array, or a list of plain Python values with ``None`` for an
        absent fact; an attribute the source does not provide is all ``None``.
        """

    @abc.abstractmethod
    def record(
        self, row: int, confidence: float, attributes: Mapping[str, object]
    ) -> AuxiliaryRecord:
        """A record for storage ``row``: its stored name and provenance."""


@dataclass
class TableAuxiliarySource(AuxiliarySource):
    """An auxiliary source backed by an in-memory table keyed by a name column.

    Useful for loading previously harvested auxiliary data from CSV (via
    :func:`repro.dataset.io.read_csv`) and replaying an attack offline.

    By default names are looked up **exactly** (the table is assumed to be
    keyed by the same spellings the release uses; on a duplicate name the
    last row wins).  Setting ``linkage_threshold`` switches the source to
    approximate record linkage: a :class:`~repro.linkage.LinkageIndex` is
    built over the name column once and queries resolve through blocked,
    batched similarity scoring — the right mode when the auxiliary CSV holds
    scraped web names.

    Storage rows are the table's rows, and :meth:`cells` gathers straight
    from its typed column buffers.

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
        self._names = [str(name) for name in self.table.column(self.name_column)]
        self._by_name = {name: row for row, name in enumerate(self._names)}
        self._columns = {
            name: self.table.column_array(name) for name in self.attribute_names
        }
        self._index: LinkageIndex | None = None
        if self.linkage_threshold is not None:
            self._index = LinkageIndex(
                self._names,
                threshold=self.linkage_threshold,
                blocking=self.blocking,
                qgram_size=self.qgram_size,
            )

    @property
    def linkage_index(self) -> LinkageIndex | None:
        """The approximate-mode linkage index (``None`` in exact-lookup mode)."""
        return self._index

    def match(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        if self._index is not None:
            return self._index.match_many(names)
        by_name = self._by_name
        rows = np.fromiter(
            (by_name.get(str(name), -1) for name in names),
            dtype=np.intp,
            count=len(names),
        )
        return rows, (rows >= 0).astype(np.float64)

    def cells(self, attribute: str, rows: np.ndarray) -> Sequence[object]:
        column = self._columns.get(attribute)
        if column is None:
            return [None] * len(rows)
        taken = column[rows]
        return taken.tolist() if taken.dtype == object else taken

    def record(
        self, row: int, confidence: float, attributes: Mapping[str, object]
    ) -> AuxiliaryRecord:
        return AuxiliaryRecord(self._names[row], attributes, confidence, source="table")

    def search(self, name: str) -> list[AuxiliaryRecord]:
        name = str(name)
        if self._index is None:
            row = self._by_name.get(name)
            found = [] if row is None else [(row, 1.0)]
        else:
            rows, scores = self._index.candidates(name)
            found = zip(rows.tolist(), scores.tolist())
        return [
            self.record(row, confidence, self._facts(row)) for row, confidence in found
        ]

    def _facts(self, row: int) -> dict[str, object]:
        cells = ((name, self.table.cell(row, name)) for name in self.attribute_names)
        return {name: cell for name, cell in cells if cell is not None}
