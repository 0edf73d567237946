"""Simulated web corpus — the substitute for the adversary's live-web channel.

The paper's adversary harvests auxiliary data (employment, property holdings)
from employee home pages, blogs and the links reachable from them.  A live web
crawl is neither reproducible nor available offline, so this module simulates
the channel end to end while preserving every property the attack relies on:

* pages are **indexed by person name**, and the displayed name may be a
  variant of the enterprise-database name (initials, reordered, titled), so the
  adversary must run approximate record linkage;
* pages expose **noisy numeric facts** correlated with the sensitive attribute
  (the generator in :mod:`repro.data.webgen` controls that correlation);
* a configurable fraction of people have **no web presence** at all, and the
  corpus may also contain **distractor pages** about unrelated people.

The corpus implements :class:`~repro.fusion.auxiliary.AuxiliarySource`, so the
attack pipeline is agnostic to whether it talks to this simulation or to a
table of genuinely harvested data.

Columnar construction
---------------------
:meth:`SimulatedWebCorpus.from_profiles` is fully vectorized: **one** RNG pass
draws every coverage, name-variant and noise value up front as arrays
(``coverage``, ``variant``, ``variant choice``, an ``(n, attrs)`` noise block,
and the distractor fact block — in that fixed order), and page facts are
stored as NaN-masked column arrays rather than per-page dicts.
The ``pages`` list of :class:`WebPage` objects is only built when someone
actually asks for it (examples, rendering): building and harvesting a
corpus read the fact columns directly and construct no per-page fact dicts.
Because all draws happen up front, each person's page content depends only
on the seed, the profile order and the attribute count — not on which other
people happen to be covered.

.. note::
   The historical implementation drew random values per profile inside a
   Python loop; the vectorized pass consumes the RNG stream in a different
   order, so corpora built by this version differ (for the same seed) from
   pre-vectorization corpora.  Golden tests were re-baselined accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import AuxiliarySourceError
from repro.fusion.auxiliary import AuxiliaryRecord, AuxiliarySource
from repro.linkage.index import LinkageIndex

__all__ = ["WebPage", "SimulatedWebCorpus", "name_variant"]

_EXTRA_FACT_KEYS = ("employer", "position")

#: Sentinel distinguishing "key absent" from an explicit ``None`` value.
_MISSING = object()


@dataclass(frozen=True)
class WebPage:
    """One synthetic person page in the simulated web."""

    owner: str
    displayed_name: str
    url: str
    facts: Mapping[str, float | str]

    def render(self) -> str:
        """A small pseudo-HTML rendering (used by examples to show what the adversary sees)."""
        lines = [f"<title>{self.displayed_name}</title>"]
        for key, value in self.facts.items():
            lines.append(f"<p>{key.replace('_', ' ')}: {value}</p>")
        return "\n".join(lines)


def _apply_variant(name: str, choice: int) -> str:
    """The deterministic variant of ``name`` selected by ``choice`` (0..4)."""
    tokens = name.split()
    if len(tokens) < 2:
        return name
    first, last = tokens[0], tokens[-1]
    if choice == 0:
        return f"{first} {last}"
    if choice == 1:
        return f"{first[0]}. {last}"
    if choice == 2:
        return f"{last}, {first}"
    if choice == 3:
        return f"Dr. {first} {last}"
    return f"{first} {tokens[1][0]}. {last}" if len(tokens) > 2 else f"{first} {last}"


def name_variant(name: str, rng: np.random.Generator) -> str:
    """A plausible web rendering of ``name`` (initials, reordering, titles)."""
    name = str(name)
    if len(name.split()) < 2:
        return name
    return _apply_variant(name, int(rng.integers(0, 5)))


class SimulatedWebCorpus(AuxiliarySource):
    """A searchable corpus of synthetic person pages.

    Page content lives in column arrays — owner/displayed-name lists, one
    NaN-masked float array per numeric fact, object arrays only for the rare
    non-numeric facts — and :attr:`pages` is built on first access.  The
    linkage index over displayed names is also built lazily, on the first
    search: corpus *construction* is pure data-plane work.

    Build one with :meth:`from_profiles`; the constructor takes the columns
    it generates.

    Parameters
    ----------
    owners / displayed:
        Per-page true owner and displayed name.
    url_numbers / url_distractor_offset:
        Per-page URL numbers; pages from ``url_distractor_offset`` on are
        distractor blog posts.  URLs are synthesized on demand.
    fact_numeric / fact_objects / extras:
        The NaN-masked numeric fact columns, the sparse object overrides of
        non-numeric facts, and the extra (non-harvested) fact columns.
    attribute_names:
        Numeric fact names the corpus exposes (harvestable auxiliary attributes).
    linkage_threshold:
        Minimum composite name similarity for a page to be returned by
        :meth:`search`.
    blocking / qgram_size:
        Blocking knobs of the underlying :class:`~repro.linkage.LinkageIndex`
        (``"qgram"``, ``"first-letter"`` or ``"none"``).
    """

    def __init__(
        self,
        owners: list[str],
        displayed: list[str],
        url_numbers: np.ndarray,
        url_distractor_offset: int,
        fact_numeric: dict[str, np.ndarray],
        fact_objects: dict[str, np.ndarray],
        extras: dict[str, np.ndarray],
        attribute_names: tuple[str, ...],
        linkage_threshold: float,
        blocking: str,
        qgram_size: int,
    ) -> None:
        self.attribute_names = attribute_names
        self.linkage_threshold = linkage_threshold
        self.blocking = blocking
        self.qgram_size = qgram_size
        self._index_cache: LinkageIndex | None = None
        self._pages_cache: list[WebPage] | None = None
        self._owners = owners
        self._displayed = displayed
        self._url_numbers = url_numbers
        self._url_distractor_offset = url_distractor_offset
        self._fact_numeric = fact_numeric
        self._fact_objects = fact_objects
        self._extras = extras

    # Page views -------------------------------------------------------------------

    def _url(self, index: int) -> str:
        """The page URL, synthesized on demand."""
        number = int(self._url_numbers[index])
        if index >= self._url_distractor_offset:
            return f"https://blogs.example.com/post{number}"
        return f"https://people.example.edu/~person{number}"

    @property
    def linkage_index(self) -> LinkageIndex:
        """The linkage index over displayed names, built on first use.

        Overrides :attr:`AuxiliarySource.linkage_index`.
        """
        if self._index_cache is None:
            self._index_cache = LinkageIndex(
                self._displayed,
                threshold=self.linkage_threshold,
                blocking=self.blocking,
                qgram_size=self.qgram_size,
            )
        return self._index_cache

    def _fact_cell(self, name: str, index: int) -> object:
        """One page's value for fact ``name`` (``None`` = absent)."""
        objects = self._fact_objects.get(name)
        if objects is not None and objects[index] is not None:
            return objects[index]
        numeric = self._fact_numeric.get(name)
        if numeric is not None:
            value = numeric[index]
            if not np.isnan(value):
                return float(value)
        values = self._extras.get(name)
        return None if values is None else values[index]

    @property
    def _fact_names(self) -> tuple[str, ...]:
        return tuple(self.attribute_names) + tuple(
            key for key in self._extras if key not in self.attribute_names
        )

    def _facts_of(self, index: int) -> dict[str, float | str]:
        """One page's present facts (harvestable and extra) as a dict."""
        cells = ((name, self._fact_cell(name, index)) for name in self._fact_names)
        return {name: cell for name, cell in cells if cell is not None}

    def _page(self, index: int) -> WebPage:
        return WebPage(
            owner=self._owners[index],
            displayed_name=self._displayed[index],
            url=self._url(index),
            facts=self._facts_of(index),
        )

    @property
    def pages(self) -> list[WebPage]:
        """The corpus pages as :class:`WebPage` objects (built on first access)."""
        if self._pages_cache is None:
            self._pages_cache = [self._page(i) for i in range(len(self._owners))]
        return self._pages_cache

    # Construction ----------------------------------------------------------------

    @classmethod
    def from_profiles(
        cls,
        profiles: Sequence[Mapping[str, object]],
        attribute_names: Sequence[str],
        noise_level: float = 0.05,
        coverage: float = 1.0,
        name_variant_probability: float = 0.5,
        distractor_count: int = 0,
        linkage_threshold: float = 0.82,
        blocking: str = "qgram",
        qgram_size: int = 2,
        seed: int = 0,
    ) -> "SimulatedWebCorpus":
        """Generate a corpus from ground-truth person profiles.

        Parameters
        ----------
        profiles:
            Mappings with a ``"name"`` key plus the true auxiliary attribute
            values for each person.
        attribute_names:
            Which attributes become harvestable page facts.
        noise_level:
            Relative (multiplicative) Gaussian noise applied to numeric facts,
            modelling imprecise or stale web information.
        coverage:
            Probability that a person has a page at all.
        name_variant_probability:
            Probability that the page displays a variant of the person's name
            instead of the exact enterprise-database spelling.
        distractor_count:
            Number of unrelated pages (random names, random facts) added to the
            corpus to stress the linkage step.
        blocking / qgram_size:
            Blocking knobs of the corpus's linkage index.
        seed:
            RNG seed; the corpus is fully deterministic given the seed (every
            draw is made up front in one vectorized pass — see the module
            docstring).
        """
        # Written so that NaN fails every test.
        if not 0.0 <= coverage <= 1.0:
            raise AuxiliarySourceError("coverage must lie in [0, 1]")
        if not 0.0 <= name_variant_probability <= 1.0:
            raise AuxiliarySourceError("name_variant_probability must lie in [0, 1]")
        if not 0.0 <= noise_level < np.inf:
            raise AuxiliarySourceError("noise_level must be finite and non-negative")
        if not isinstance(distractor_count, (int, np.integer)) or distractor_count < 0:
            raise AuxiliarySourceError("distractor_count must be a non-negative integer")
        # An index over no names runs every linkage parameter check (raising
        # LinkageError); the corpus's own index is built on first use.
        LinkageIndex([], threshold=linkage_threshold, blocking=blocking, qgram_size=qgram_size)
        attribute_names = tuple(attribute_names)
        try:
            raw_names = [profile["name"] for profile in profiles]
        except KeyError as exc:
            raise AuxiliarySourceError("every profile needs a 'name' entry") from exc

        n = len(profiles)
        rng = np.random.default_rng(seed)
        coverage_draws = rng.random(n)
        variant_draws = rng.random(n)
        variant_choices = rng.integers(0, 5, size=n)
        noise_factors = 1.0 + rng.normal(0.0, noise_level, size=(n, len(attribute_names)))
        distractor_facts = rng.uniform(
            0.0, 1.0, size=(distractor_count, len(attribute_names))
        )

        covered = np.nonzero(coverage_draws <= coverage)[0]
        covered_list = covered.tolist()
        covered_profiles = [profiles[i] for i in covered_list]

        owners: list[str] = []
        displayed: list[str] = []
        for i, variant, choice in zip(
            covered_list,
            (variant_draws[covered] < name_variant_probability).tolist(),
            variant_choices[covered].tolist(),
        ):
            name = str(raw_names[i])
            owners.append(name)
            displayed.append(_apply_variant(name, choice) if variant else name)

        fact_numeric: dict[str, np.ndarray] = {}
        fact_objects: dict[str, np.ndarray] = {}
        for column, attribute in enumerate(attribute_names):
            raw = [profile.get(attribute) for profile in covered_profiles]
            numeric, objects = _fact_column(raw, noise_factors[covered, column])
            fact_numeric[attribute] = numeric
            if objects is not None:
                fact_objects[attribute] = objects

        extras: dict[str, np.ndarray] = {}
        for key in _EXTRA_FACT_KEYS:
            if key in attribute_names:
                continue
            raw = [profile.get(key, _MISSING) for profile in covered_profiles]
            values = [
                None
                if value is _MISSING
                else (value if type(value) is str else str(value))
                for value in raw
            ]
            if values.count(None) != len(values):
                column = np.empty(len(values), dtype=object)
                column[:] = values
                extras[key] = column

        # Distractor pages: deterministic fake names, uniform random facts.
        page_count = len(owners)
        if distractor_count:
            for d in range(distractor_count):
                fake_name = (
                    f"{_DISTRACTOR_FIRST[d % len(_DISTRACTOR_FIRST)]} "
                    f"{_DISTRACTOR_LAST[(d * 7) % len(_DISTRACTOR_LAST)]}"
                )
                owners.append(fake_name)
                displayed.append(fake_name)
            for column, attribute in enumerate(attribute_names):
                fact_numeric[attribute] = np.concatenate(
                    [fact_numeric[attribute], distractor_facts[:, column]]
                )
                if attribute in fact_objects:
                    fact_objects[attribute] = np.concatenate(
                        [
                            fact_objects[attribute],
                            np.full(distractor_count, None, dtype=object),
                        ]
                    )
            for key in list(extras):
                extras[key] = np.concatenate(
                    [extras[key], np.full(distractor_count, None, dtype=object)]
                )
            page_count += distractor_count

        if not page_count:
            raise AuxiliarySourceError(
                "corpus generation produced no pages; increase coverage or profile count"
            )
        return cls(
            owners=owners,
            displayed=displayed,
            url_numbers=np.concatenate(
                [covered, np.arange(distractor_count, dtype=np.intp)]
            ),
            url_distractor_offset=len(covered_list),
            fact_numeric=fact_numeric,
            fact_objects=fact_objects,
            extras=extras,
            attribute_names=attribute_names,
            linkage_threshold=linkage_threshold,
            blocking=blocking,
            qgram_size=qgram_size,
        )

    # AuxiliarySource interface ------------------------------------------------------

    def match(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Best page per name, resolved through one batched linkage pass."""
        return self.linkage_index.match_many(names)

    def cells(self, attribute: str, rows: np.ndarray) -> Sequence[object]:
        """Fact ``attribute`` of pages ``rows``: text where a page shows text."""
        numeric = self._fact_numeric.get(attribute)
        if numeric is None:
            extra = self._extras.get(attribute)
            return [None] * len(rows) if extra is None else extra[rows].tolist()
        values = numeric[rows]
        absent = np.isnan(values)
        text = self._fact_objects.get(attribute)
        if text is None and not absent.any():
            return values
        cells = values.astype(object)
        cells[absent] = None
        if text is not None:
            text = text[rows]
            shown = np.not_equal(text, None)
            cells[shown] = text[shown]
        return cells.tolist()

    def record(
        self, row: int, confidence: float, attributes: Mapping[str, object]
    ) -> AuxiliaryRecord:
        return AuxiliaryRecord(
            name=self._displayed[row],
            attributes=attributes,
            confidence=confidence,
            source=self._url(row),
        )

    def search(self, name: str) -> list[AuxiliaryRecord]:
        """Pages plausibly belonging to ``name``, best linkage score first."""
        rows, scores = self.linkage_index.candidates(name)
        return [
            self.record(row, score, self._facts_of(row))
            for row, score in zip(rows.tolist(), scores.tolist())
        ]

    # Introspection helpers ------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of pages in the corpus."""
        return len(self._owners)

    def coverage_of(self, names: Sequence[str]) -> float:
        """Fraction of ``names`` for which at least one page links above threshold."""
        if not names:
            return 0.0
        rows, _ = self.match(list(names))
        return int(np.count_nonzero(rows >= 0)) / len(names)


def _fact_column(
    raw: list[object], noise_factor: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """One attribute's raw profile values as (noisy numeric, object overrides).

    Numeric values (bools excluded) are noised multiplicatively; strings and
    other non-numeric values keep their ``str()`` form in a sparse object
    column; ``None`` / absent values are NaN in the numeric column.

    The common all-numeric case is detected by one ``np.asarray`` dtype probe
    (no per-value type dispatch); only columns with missing or non-numeric
    values pay the per-cell loop.
    """
    n = len(raw)
    try:
        probe = np.asarray(raw)
    except ValueError:  # ragged cells numpy cannot even box
        probe = np.empty(0, dtype=object)
    if (
        probe.shape == (n,)
        and probe.dtype.kind in "fiu"
        # np.asarray silently coerces a bool mixed into a numeric column
        # (an all-bool column probes as kind "b"); keep the bools-are-text
        # contract by sending such columns through the per-cell path.
        and not any(isinstance(value, (bool, np.bool_)) for value in raw)
    ):
        return probe.astype(np.float64, copy=False) * noise_factor, None
    numeric = np.full(n, np.nan)
    objects = np.full(n, None, dtype=object)
    any_object = False
    for i, value in enumerate(raw):
        if value is None:
            continue
        if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            objects[i] = str(value)
            any_object = True
        else:
            numeric[i] = float(value) * noise_factor[i]
    return numeric, objects if any_object else None


_DISTRACTOR_FIRST = (
    "Avery", "Blake", "Casey", "Devon", "Emery", "Finley", "Harper", "Jordan",
    "Kendall", "Logan", "Morgan", "Parker", "Quinn", "Reese", "Skyler", "Taylor",
)
_DISTRACTOR_LAST = (
    "Abbott", "Barton", "Chandler", "Dalton", "Ellison", "Forsythe", "Granger",
    "Holloway", "Irving", "Jennings", "Kessler", "Lockwood", "Mercer", "Norwood",
)
