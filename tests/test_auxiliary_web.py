"""Unit tests for auxiliary sources and the simulated web corpus."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.io import write_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.exceptions import AuxiliarySourceError, LinkageError
from repro.fusion.attack import harvest_auxiliary
from repro.fusion.auxiliary import AuxiliaryRecord, TableAuxiliarySource
from repro.fusion.web import SimulatedWebCorpus, WebPage, name_variant


PROFILES = [
    {"name": "Alice Miller", "property_holdings": 3_560.0, "employment_seniority": 20.0,
     "position": "CEO"},
    {"name": "Robert Chen", "property_holdings": 5_430.0, "employment_seniority": 25.0,
     "position": "CEO"},
    {"name": "Christine Olsen", "property_holdings": 720.0, "employment_seniority": 3.0,
     "position": "Assistant"},
    {"name": "Bob Turner", "property_holdings": 1_200.0, "employment_seniority": 10.0,
     "position": "Manager"},
]
ATTRIBUTES = ("property_holdings", "employment_seniority")


def auxiliary_table(rows, attribute_names) -> Table:
    """A name-keyed auxiliary table from ``{"name": ..., attribute: ...}`` rows."""
    schema = Schema(
        [Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]
        + [Attribute(name, AttributeRole.QUASI_IDENTIFIER) for name in attribute_names]
    )
    return Table.from_rows(
        schema, [{"name": row["name"], **{a: row.get(a) for a in attribute_names}} for row in rows]
    )


class TestAuxiliaryRecord:
    def test_numeric_attribute(self):
        record = AuxiliaryRecord("x", {"a": 5, "b": "text"})
        assert record.numeric_attribute("a") == 5.0
        assert record.numeric_attribute("b") is None
        assert record.numeric_attribute("missing") is None

    def test_confidence_validation(self):
        with pytest.raises(AuxiliarySourceError):
            AuxiliaryRecord("x", {}, confidence=1.5)


class TestAuxiliaryTable:
    """The harvest's Table IV: matched names plus one column per attribute."""

    def test_builds_paper_table_iv_shape(self):
        source = TableAuxiliarySource(
            auxiliary_table(
                [
                    {"name": "Alice", "property_holdings": 3560.0},
                    {"name": "Bob", "property_holdings": 1200.0},
                ],
                ["property_holdings"],
            ),
            name_column="name",
        )
        records, table = harvest_auxiliary(
            source, ["Alice", "Nobody", "Bob"], ["property_holdings"]
        )
        assert [record is not None for record in records] == [True, False, True]
        assert table.num_rows == 2
        assert table.schema.identifiers == ("name",)
        assert table.column("name") == ["Alice", "Bob"]
        assert table.column("property_holdings") == [3560.0, 1200.0]
        assert records[0] == AuxiliaryRecord(
            "Alice", {"property_holdings": 3560.0}, source="table"
        )

    def test_missing_attributes_are_none(self):
        source = TableAuxiliarySource(
            auxiliary_table([{"name": "Alice"}], ["property_holdings"]),
            name_column="name",
            attribute_names=("property_holdings",),
        )
        records, table = harvest_auxiliary(
            source, ["Alice"], ["property_holdings", "not_stored"]
        )
        assert table.column("property_holdings") == [None]
        assert table.column("not_stored") == [None]
        assert records[0].attributes == {}


class TestTableAuxiliarySource:
    def test_lookup_by_exact_name(self, tmp_path):
        table = auxiliary_table(PROFILES, list(ATTRIBUTES))
        source = TableAuxiliarySource(table=table, name_column="name")
        [hit] = source.search("Alice Miller")
        assert hit.numeric_attribute("property_holdings") == 3_560.0
        assert source.search("Nobody") == []
        rows, confidence = source.match(["Nobody", "Alice Miller"])
        assert rows.tolist() == [-1, 0]
        assert confidence.tolist() == [0.0, 1.0]
        # attribute names inferred from numeric columns
        assert set(source.attribute_names) == set(ATTRIBUTES)
        # round-trips through CSV
        path = write_csv(table, tmp_path / "aux.csv")
        assert path.exists()

    def test_unknown_name_column_rejected(self):
        table = auxiliary_table(
            [{"name": "Alice", "property_holdings": 1.0}], ["property_holdings"]
        )
        with pytest.raises(AuxiliarySourceError):
            TableAuxiliarySource(table=table, name_column="missing")


class TestNameVariant:
    def test_variant_preserves_last_name(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            variant = name_variant("Alice Miller", rng)
            assert "Miller" in variant

    def test_single_token_unchanged(self):
        rng = np.random.default_rng(3)
        assert name_variant("Cher", rng) == "Cher"


class TestSimulatedWebCorpus:
    @pytest.fixture()
    def corpus(self) -> SimulatedWebCorpus:
        return SimulatedWebCorpus.from_profiles(
            profiles=PROFILES,
            attribute_names=ATTRIBUTES,
            noise_level=0.0,
            coverage=1.0,
            name_variant_probability=0.0,
            seed=7,
        )

    def test_one_page_per_profile(self, corpus):
        assert corpus.size == len(PROFILES)

    def test_search_returns_exact_facts_without_noise(self, corpus):
        records = corpus.search("Alice Miller")
        assert records
        assert records[0].numeric_attribute("property_holdings") == pytest.approx(3_560.0)
        assert records[0].confidence == 1.0

    def test_search_unknown_person(self, corpus):
        assert corpus.search("Nobody Anywhere") == []

    def test_coverage_of(self, corpus):
        names = [p["name"] for p in PROFILES]
        assert corpus.coverage_of(names) == 1.0
        assert corpus.coverage_of([]) == 0.0

    def test_noise_perturbs_facts(self):
        noisy = SimulatedWebCorpus.from_profiles(
            PROFILES, ATTRIBUTES, noise_level=0.3, coverage=1.0,
            name_variant_probability=0.0, seed=7,
        )
        values = [
            noisy.search(p["name"])[0].numeric_attribute("property_holdings")
            for p in PROFILES
        ]
        exact = [p["property_holdings"] for p in PROFILES]
        assert values != exact

    def test_partial_coverage_drops_pages(self):
        sparse = SimulatedWebCorpus.from_profiles(
            PROFILES * 10, ATTRIBUTES, coverage=0.3, seed=11
        )
        assert sparse.size < len(PROFILES) * 10

    def test_name_variants_still_link(self):
        varied = SimulatedWebCorpus.from_profiles(
            PROFILES, ATTRIBUTES, noise_level=0.0, coverage=1.0,
            name_variant_probability=1.0, seed=5,
        )
        found = sum(1 for p in PROFILES if varied.search(p["name"]))
        assert found >= len(PROFILES) - 1  # variants occasionally too mangled

    def test_distractors_do_not_steal_matches(self):
        with_distractors = SimulatedWebCorpus.from_profiles(
            PROFILES, ATTRIBUTES, noise_level=0.0, coverage=1.0,
            name_variant_probability=0.0, distractor_count=30, seed=3,
        )
        best = with_distractors.search("Alice Miller")[0]
        assert best.numeric_attribute("property_holdings") == pytest.approx(3_560.0)

    def test_page_rendering(self, corpus):
        page = corpus.pages[0]
        assert isinstance(page, WebPage)
        text = page.render()
        assert "<title>" in text
        assert "property holdings" in text

    def test_validation_errors(self):
        with pytest.raises(AuxiliarySourceError):
            SimulatedWebCorpus.from_profiles([], ATTRIBUTES)
        with pytest.raises(AuxiliarySourceError):
            SimulatedWebCorpus.from_profiles(PROFILES, ATTRIBUTES, coverage=2.0)
        with pytest.raises(AuxiliarySourceError):
            SimulatedWebCorpus.from_profiles(PROFILES, ATTRIBUTES, noise_level=-1.0)
        with pytest.raises(AuxiliarySourceError):
            SimulatedWebCorpus.from_profiles([{"nom": "x"}], ATTRIBUTES)

    @pytest.mark.parametrize(
        "option, value, error",
        [
            ("noise_level", float("nan"), AuxiliarySourceError),
            ("noise_level", float("inf"), AuxiliarySourceError),
            ("distractor_count", -1, AuxiliarySourceError),
            ("name_variant_probability", 2.0, AuxiliarySourceError),
            ("name_variant_probability", float("nan"), AuxiliarySourceError),
            ("linkage_threshold", 0.0, LinkageError),
            ("linkage_threshold", float("nan"), LinkageError),
            ("blocking", "soundex", LinkageError),
            ("qgram_size", 1, LinkageError),
        ],
    )
    def test_bad_option_rejected_at_construction(self, option, value, error):
        """Rejected before any page is built, not at the first search or
        harvest (a NaN noise level used to make every fact NaN)."""
        with pytest.raises(error, match=option.removeprefix("linkage_")):
            SimulatedWebCorpus.from_profiles(PROFILES, ATTRIBUTES, **{option: value})

    def test_deterministic_given_seed(self):
        first = SimulatedWebCorpus.from_profiles(PROFILES, ATTRIBUTES, seed=9)
        second = SimulatedWebCorpus.from_profiles(PROFILES, ATTRIBUTES, seed=9)
        assert [p.displayed_name for p in first.pages] == [p.displayed_name for p in second.pages]
        assert [dict(p.facts) for p in first.pages] == [dict(p.facts) for p in second.pages]
