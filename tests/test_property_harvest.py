"""Property-based tests (hypothesis) for the batched harvest.

:func:`repro.fusion.attack.harvest_auxiliary` resolves a whole name batch
through one :meth:`~repro.fusion.auxiliary.AuxiliarySource.match` call and
fills Table IV with one :meth:`~repro.fusion.auxiliary.AuxiliarySource.cells`
gather per attribute.  The executable specification is the per-name path:
``search(name)[0]`` for every name, Table IV built cell by cell from those
records, and the attack's auxiliary inputs read with
:meth:`~repro.fusion.auxiliary.AuxiliaryRecord.numeric_attribute`.  These
properties pin the batched harvest to that reference — records, Table IV
(``==`` and rendered bytes) and the assembled fusion columns, bit for bit —
for the simulated web corpus and for both modes of the table source, over
profiles with name variants, duplicate names, distractors, missing facts and
text facts (numeric-looking text included: text is never a number).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.io import render_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.fusion.attack import AttackConfig, WebFusionAttack, harvest_auxiliary
from repro.fusion.auxiliary import AuxiliaryRecord, TableAuxiliarySource
from repro.fusion.web import SimulatedWebCorpus, _apply_variant

FACTS = ("property_holdings", "employment_seniority")
#: Harvested attributes: the stored facts, a non-harvestable page fact and
#: an attribute no source stores.
HARVESTED = FACTS + ("position", "not_stored")

# A small name pool, so profiles repeat names and variants collide.
name_strategy = st.builds(
    "{} {}{}".format,
    st.sampled_from(("Alice", "Bob", "Carol", "Dana")),
    st.sampled_from(("", "J. ")),
    st.sampled_from(("Miller", "Chen", "Olsen")),
)
fact_strategy = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=60),
    st.sampled_from(("n/a", "12", "CEO")),
)
profile_strategy = st.fixed_dictionaries(
    {
        "name": name_strategy,
        "property_holdings": fact_strategy,
        "employment_seniority": fact_strategy,
        "position": st.sampled_from(("Professor", "Lecturer")),
    }
)


@st.composite
def scenarios(draw):
    """Profiles, the source built from them, and a batch of query names."""
    profiles = draw(st.lists(profile_strategy, min_size=1, max_size=10))
    variants = draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
            min_size=len(profiles),
            max_size=len(profiles),
        )
    )
    distractors = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(("corpus", "table-exact", "table-approximate")))
    if kind == "corpus":
        source = SimulatedWebCorpus.from_profiles(
            profiles,
            FACTS,
            noise_level=draw(st.sampled_from((0.0, 0.05))),
            coverage=draw(st.sampled_from((0.6, 1.0))),
            name_variant_probability=draw(st.sampled_from((0.0, 0.5, 1.0))),
            distractor_count=distractors,
            seed=draw(st.integers(min_value=0, max_value=2**16)),
        )
    else:
        schema = Schema(
            [Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]
            + [Attribute(fact, AttributeRole.QUASI_IDENTIFIER) for fact in FACTS]
        )
        rows = [
            [
                profile["name"] if choice is None else _apply_variant(profile["name"], choice),
                *(profile[fact] for fact in FACTS),
            ]
            for profile, choice in zip(profiles, variants)
        ]
        rows += [[f"Quinn Norwood{i}", float(i), i] for i in range(distractors)]
        source = TableAuxiliarySource(
            Table.from_rows(schema, rows),
            name_column="name",
            linkage_threshold=None if kind == "table-exact" else 0.82,
        )
    queries = [profile["name"] for profile in profiles]
    queries += draw(st.lists(name_strategy, max_size=4))
    queries += ["Zed Nobody", "", queries[0]]
    return source, draw(st.permutations(queries))


def _reference(source, names):
    """The per-name specification: ``search(name)[0]`` and a cell-wise Table IV."""
    best = []
    for name in names:
        found = source.search(name)
        best.append(found[0] if found else None)
    hits = [(name, record) for name, record in zip(names, best) if record is not None]
    schema = Schema(
        [Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]
        + [Attribute(name, AttributeRole.QUASI_IDENTIFIER) for name in HARVESTED]
    )
    columns = {"name": [name for name, _ in hits]}
    for attribute in HARVESTED:
        columns[attribute] = [record.attributes.get(attribute) for _, record in hits]
    return best, Table(schema, columns)


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_harvest_equals_per_name_search(scenario):
    source, names = scenario
    records, table = harvest_auxiliary(source, names, HARVESTED)
    best, expected = _reference(source, names)

    assert len(records) == len(names)
    assert [None if r is None else r.confidence for r in records] == [
        None if r is None else r.confidence for r in best
    ]
    for record, reference in zip(records, best):
        if reference is not None:
            assert record == AuxiliaryRecord(
                reference.name,
                {
                    name: reference.attributes[name]
                    for name in HARVESTED
                    if name in reference.attributes
                },
                reference.confidence,
                reference.source,
            )
    assert table == expected
    assert render_csv(table) == render_csv(expected)
    assert table.fingerprint == expected.fingerprint

    config = AttackConfig(
        release_inputs=(),
        auxiliary_inputs=HARVESTED,
        output_name="salary",
        output_universe=(0.0, 1.0),
    )
    release = Table(
        Schema([Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]),
        {"name": names},
    )
    matched = np.array([record is not None for record in records], dtype=bool)
    columns = WebFusionAttack(source, config).assemble_columns(release, matched, table)
    for attribute in HARVESTED:
        reference = np.array(
            [
                np.nan
                if record is None or record.numeric_attribute(attribute) is None
                else record.numeric_attribute(attribute)
                for record in best
            ],
            dtype=np.float64,
        )
        assert columns[attribute].tobytes() == reference.tobytes(), attribute
