"""The service's on-disk state is `.npc` containers, never pickle.

One service session — register, append, releases (MDAV interval and
centroid with ``CategorySet`` cells, Datafly, suppression), release CSVs, an
attack and a FRED job — must leave only top-level containers behind,
must answer identically when every unpickling entry point raises, and must
invalidate spilled entries by reading container manifests alone.
"""

from __future__ import annotations

import collections
import io
import pickle
import threading

import pytest

from repro.dataset.io import render_csv
from repro.dataset.schema import Attribute, AttributeRole, Schema
from repro.dataset.table import Table
from repro.service import AnonymizationService
from repro.service import codec
from repro.service.codec import read_key

MAGIC = b"#repro-npc1\n"

RELEASES = (
    ("mdav", "interval"),
    ("mdav", "centroid"),
    ("datafly", "interval"),
    ("suppression", "interval"),
)


@pytest.fixture(scope="module")
def private(faculty_population) -> Table:
    """The faculty table with ``department`` as a categorical quasi-identifier.

    MDAV then generalizes that column to ``CategorySet`` cells, and Datafly
    and suppression releases mix verbatim text with suppressed cells.
    """
    table = faculty_population.private
    schema = Schema(
        [
            Attribute(a.name, AttributeRole.QUASI_IDENTIFIER, a.kind)
            if a.name == "department"
            else a
            for a in table.schema.attributes
        ]
    )
    return Table.from_rows(schema, list(table.rows()))


def _forbid(*args, **kwargs):
    raise AssertionError("a spilled file was unpickled")


def _session(service: AnonymizationService, private: Table, auxiliary: Table) -> dict:
    """Drive every artifact kind the service spills; return its answers."""
    rows = private.num_rows
    base = service.register(private.take(list(range(rows - 5))), label="faculty")
    web = service.register_stream(io.StringIO(render_csv(auxiliary)), label="web")
    appended = service.append_table(
        base["fingerprint"], private.take(list(range(rows - 5, rows)))
    )
    fingerprint, aux = appended["fingerprint"], web["fingerprint"]
    answers: dict[object, object] = {}
    for algorithm, style in RELEASES:
        csv = service.release_csv(fingerprint, 3, algorithm=algorithm, style=style)
        answers[algorithm, style] = bytes(csv)
    answers["attack"] = service.attack(fingerprint, aux, k=3)
    job = service.start_fred(fingerprint, aux, kmin=2, kmax=3)
    snapshot = service.wait_for_job(job, timeout=120)
    assert snapshot["status"] == "done", snapshot
    answers["fred"] = snapshot["result"]
    return answers


def test_session_leaves_only_containers_and_json(
    tmp_path, private, faculty_auxiliary_table
):
    service = AnonymizationService(cache_dir=tmp_path)
    try:
        _session(service, private, faculty_auxiliary_table)
        threads = {thread.name for thread in threading.enumerate()}
    finally:
        service.close()

    assert not any(name.startswith("repro-job-heartbeat") for name in threads)
    entries = list(tmp_path.iterdir())
    assert not [p for p in entries if p.is_dir()], "no subdirectory in the spill dir"
    assert entries and all(p.suffix == ".npc" for p in entries), entries
    for path in entries:
        assert path.read_bytes().startswith(MAGIC), path
    # Every artifact spilled (one container per key); the harvest did not.
    kinds = collections.Counter(read_key(path)[1] for path in entries)
    assert kinds == {"release": 2 * len(RELEASES), "attack": 1, "fred": 1}


def test_session_answers_without_unpickling(
    tmp_path, monkeypatch, private, faculty_auxiliary_table
):
    memory_only = AnonymizationService()
    try:
        reference = _session(memory_only, private, faculty_auxiliary_table)
    finally:
        memory_only.close()

    monkeypatch.setattr(pickle, "load", _forbid)
    monkeypatch.setattr(pickle, "loads", _forbid)
    # The second service starts cold and serves from the first one's spill.
    for _ in range(2):
        service = AnonymizationService(cache_dir=tmp_path)
        try:
            assert _session(service, private, faculty_auxiliary_table) == reference
            disk_hits = service.stats()["cache"]["disk_hits"]
        finally:
            service.close()
    assert disk_hits == len(RELEASES) + 2  # every CSV, the attack, the sweep


def test_invalidate_fingerprint_decodes_no_spilled_value(
    tmp_path, monkeypatch, private, faculty_auxiliary_table
):
    service = AnonymizationService(cache_dir=tmp_path)
    try:
        fingerprint = service.register(private)["fingerprint"]
        aux = service.register(faculty_auxiliary_table)["fingerprint"]
        service.release_csv(fingerprint, 3)
        service.release_csv(fingerprint, 3, style="centroid")
        service.attack(fingerprint, aux, k=3)
        spilled = len(list(tmp_path.glob("*.npc")))

        def forbidden(*args, **kwargs):
            raise AssertionError("invalidation decoded a spilled value")

        monkeypatch.setattr(codec._Reader, "decode", forbidden)
        monkeypatch.setattr(pickle, "load", _forbid)
        monkeypatch.setattr(pickle, "loads", _forbid)
        info = service.append_table(fingerprint, private.take([0, 1]))
    finally:
        service.close()
    # Four releases/CSVs plus one attack, each dropped from memory and disk.
    assert spilled == 5
    assert info["invalidated_entries"] == 2 * spilled
    assert not list(tmp_path.glob("*.npc"))


def test_harvest_memo_stays_in_memory(
    tmp_path, faculty_population, faculty_auxiliary_table
):
    private = faculty_population.private
    service = AnonymizationService(cache_capacity=1, cache_dir=tmp_path)
    fresh = AnonymizationService()
    try:
        fingerprint = service.register(private)["fingerprint"]
        aux = service.register(faculty_auxiliary_table)["fingerprint"]
        service.attack(fingerprint, aux, k=3)
        kinds = {read_key(path)[1] for path in tmp_path.glob("*.npc")}
        assert kinds == {"release", "attack"}
        # Capacity 1 evicted the harvest from memory; with no spilled copy
        # the next level recomputes it (release + harvest + attack).
        computations = service.stats()["cache"]["computations"]
        estimates = service.attack(fingerprint, aux, k=4)["estimates"]
        assert service.stats()["cache"]["computations"] == computations + 3
        fresh.register(private)
        fresh.register(faculty_auxiliary_table)
        assert estimates == fresh.attack(fingerprint, aux, k=4)["estimates"]
    finally:
        service.close()
        fresh.close()
