"""Tests of the anonymization service core (registry, releases, attack, jobs)."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.anonymize.kanonymity import is_k_anonymous
from repro.data.census import CensusConfig, generate_census
from repro.dataset.io import render_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.exceptions import (
    FREDConfigurationError,
    ServiceError,
    TableError,
    UnknownDatasetError,
    UnknownJobError,
)
from repro.service import ALGORITHMS, AnonymizationService


class TestRegistry:
    def test_register_is_keyed_by_fingerprint(self, service, faculty_population):
        table = faculty_population.private
        info = service.register(table, label="faculty")
        assert info["fingerprint"] == table.fingerprint
        assert info["rows"] == table.num_rows
        assert info["created"] is True
        assert service.dataset(info["fingerprint"]) is table

    def test_reregistering_identical_content_is_idempotent(self, service, simple_table):
        first = service.register(simple_table)
        clone = simple_table.project(list(simple_table.schema.names))
        second = service.register(clone)
        assert second["fingerprint"] == first["fingerprint"]
        assert second["created"] is False
        assert len(service.list_datasets()) == 1

    def test_unknown_format_and_empty_dataset_rejected(self, service, simple_table):
        # CSV is the only upload format: a JSONL document fails its header.
        jsonl = '{"schema": [{"name": "x"}]}\n{"x": 1}\n'
        with pytest.raises(TableError, match="role:kind"):
            service.register_stream(io.StringIO(jsonl))
        assert service.list_datasets() == []
        empty = simple_table.take([])
        with pytest.raises(ServiceError):
            service.register(empty)

    def test_unknown_fingerprint_raises(self, service):
        with pytest.raises(UnknownDatasetError):
            service.dataset("deadbeef")
        with pytest.raises(UnknownDatasetError):
            service.dataset_info("deadbeef")

    def test_unregister_frees_the_slot(self, service, simple_table):
        fingerprint = service.register(simple_table)["fingerprint"]
        removed = service.unregister(fingerprint)
        assert removed == {"fingerprint": fingerprint, "label": "", "removed": True}
        assert service.list_datasets() == []
        with pytest.raises(UnknownDatasetError):
            service.unregister(fingerprint)
        # re-registering the same content works again afterwards
        assert service.register(simple_table)["created"] is True

    def test_registry_capacity_cap(self, simple_table, faculty_population):
        capped = AnonymizationService(max_datasets=1)
        try:
            capped.register(simple_table)
            with pytest.raises(ServiceError, match="registry is full"):
                capped.register(faculty_population.private)
            capped.register(simple_table)  # idempotent re-register still fine
            capped.unregister(simple_table.fingerprint)
            capped.register(faculty_population.private)
        finally:
            capped.close()


class TestReleases:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_release_every_algorithm(self, service, faculty_population, algorithm):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        artifact = service.release(fingerprint, 3, algorithm=algorithm)
        assert artifact.algorithm == algorithm
        assert artifact.table.num_rows == faculty_population.private.num_rows
        assert "salary" not in artifact.table.schema
        csv = service.release_csv(fingerprint, 3, algorithm=algorithm)
        assert bytes(csv).decode("utf-8") == render_csv(artifact.table)
        if algorithm != "suppression":  # suppression merges leftovers into one * class
            assert is_k_anonymous(artifact.table, 3)

    def test_release_is_memoized(self, service, faculty_population):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        first = service.release(fingerprint, 4)
        second = service.release(fingerprint, 4)
        assert second is first
        assert service.stats()["cache"]["computations"] == 1
        third = service.release(fingerprint, 5)
        assert third is not first
        assert service.stats()["cache"]["computations"] == 2

    def test_release_validation(self, service, faculty_population):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        with pytest.raises(ServiceError):
            service.release(fingerprint, 3, algorithm="nonsense")
        with pytest.raises(ServiceError):
            service.release(fingerprint, 3, style="nonsense")
        with pytest.raises(ServiceError):
            service.release(fingerprint, 3, algorithm="datafly", style="centroid")
        with pytest.raises(ServiceError):
            service.release(fingerprint, "3")

    def test_centroid_style(self, service, faculty_population):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        artifact = service.release(fingerprint, 4, style="centroid")
        assert artifact.style == "centroid"
        assert artifact.minimum_class_size >= 4


class TestAttack:
    def test_attack_estimates_and_memoization(
        self, service, faculty_population, faculty_auxiliary_table
    ):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        result = service.attack(fingerprint, auxiliary, k=3)
        low, high = faculty_population.assumed_salary_range
        assert len(result["estimates"]) == faculty_population.private.num_rows
        assert all(low <= value <= high for value in result["estimates"])
        assert result["match_rate"] == 1.0

        again = service.attack(fingerprint, auxiliary, k=3)
        assert again is result
        # three computations: the underlying release, the memoized harvest
        # (keyed by identifier-column + corpus fingerprints) and the attack
        assert service.stats()["cache"]["computations"] == 3

    def test_harvest_reused_across_levels_and_engines(
        self, service, faculty_population, faculty_auxiliary_table
    ):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        service.attack(fingerprint, auxiliary, k=3)
        baseline = service.stats()["cache"]["computations"]
        service.attack(fingerprint, auxiliary, k=4)
        # a different level adds a release and an attack, but the harvest
        # (keyed by identifier column + corpus, not by level) is reused
        assert service.stats()["cache"]["computations"] == baseline + 2
        service.attack(fingerprint, auxiliary, k=4, engine="sugeno")
        # a different engine reuses both the release and the harvest
        assert service.stats()["cache"]["computations"] == baseline + 3

    def test_identifier_fingerprint_is_injective_around_nul_bytes(self):
        from repro.service.core import _identifier_fingerprint

        # length-prefixed hashing: NUL bytes inside names cannot make two
        # different identifier columns collide onto one cached harvest
        assert _identifier_fingerprint(["a\x00", "b"]) != _identifier_fingerprint(
            ["a", "\x00b"]
        )
        assert _identifier_fingerprint(["ab"]) != _identifier_fingerprint(["a", "b"])
        assert _identifier_fingerprint(["a", "b"]) == _identifier_fingerprint(
            ("a", "b")
        )

    def test_infinite_auxiliary_cell_leaves_other_estimates_unchanged(
        self, service, faculty_population, faculty_auxiliary_table
    ):
        # One inf cell in a registered auxiliary table used to fail every
        # attack: calibrating that input's terms gave a NaN triangle foot.
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        cells = faculty_auxiliary_table.column("property_holdings")
        estimates = {}
        for label, cell in (("inf", float("inf")), ("blank", None)):
            table = faculty_auxiliary_table.replace_column(
                "property_holdings", [cell] + cells[1:]
            )
            auxiliary = service.register(table)["fingerprint"]
            estimates[label] = np.array(service.attack(fingerprint, auxiliary, k=3)["estimates"])
        assert np.isfinite(estimates["inf"]).all()
        # The inf cell counts as missing, so every estimate, including the
        # matched row's, is bit-identical to the blank cell's.
        np.testing.assert_array_equal(estimates["inf"], estimates["blank"])

    def test_infinite_auxiliary_cell_counts_as_missing(self, service):
        # An inf fact fuzzifies like a blank one (degree 1 in every term), not
        # as degree 0 everywhere, which silenced every rule on that input for
        # its record: 55,630.4 against 56,739.0 for the blank cell at k = 5.
        population = generate_census(CensusConfig(count=200, seed=7))
        names = population.auxiliary_attributes
        schema = Schema(
            [Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]
            + [Attribute(name, AttributeRole.QUASI_IDENTIFIER) for name in names]
        )
        auxiliary = Table.from_rows(
            schema,
            [
                {"name": profile["name"], **{name: profile[name] for name in names}}
                for profile in population.profiles
            ],
        )
        fingerprint = service.register(population.private)["fingerprint"]
        cells = auxiliary.column("home_value")
        estimates = {}
        for label, cell in (("inf", float("inf")), ("blank", None)):
            table = auxiliary.replace_column("home_value", [cell] + cells[1:])
            registered = service.register(table)["fingerprint"]
            estimates[label] = service.attack(fingerprint, registered, k=5)["estimates"]
        assert estimates["inf"] == estimates["blank"]

    def test_attack_rejects_empty_range(
        self, service, faculty_population, faculty_auxiliary_table
    ):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        with pytest.raises(ServiceError):
            service.attack(
                fingerprint, auxiliary, k=3, sensitive_low=10.0, sensitive_high=5.0
            )

    def test_all_nan_sensitive_column_needs_explicit_range(
        self, service, simple_table, faculty_auxiliary_table
    ):
        blank = simple_table.replace_column("salary", [None] * simple_table.num_rows)
        fingerprint = service.register(blank)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        with pytest.raises(ServiceError, match="no numeric values"):
            service.attack(fingerprint, auxiliary, k=2)

    def test_non_numeric_sensitive_bound_is_a_service_error(
        self, service, faculty_population, faculty_auxiliary_table
    ):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        with pytest.raises(ServiceError, match="sensitive_low must be a finite number"):
            service.attack(fingerprint, auxiliary, k=3, sensitive_low="abc")

    def test_infinite_sensitive_bound_is_rejected_up_front(
        self, service, faculty_population, faculty_auxiliary_table
    ):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        with pytest.raises(ServiceError, match="sensitive_high must be a finite number"):
            service.attack(fingerprint, auxiliary, k=3, sensitive_high=float("inf"))
        assert service.stats()["cache"]["computations"] == 0


class TestFredJobs:
    def test_fred_job_runs_and_is_memoized(
        self, service, faculty_population, faculty_auxiliary_table
    ):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        job = service.start_fred(fingerprint, auxiliary, kmin=2, kmax=3)
        snapshot = service._jobs.wait(job, timeout=120)
        assert snapshot["status"] == "done"
        result = snapshot["result"]
        assert result["optimal_level"] in (2, 3)
        assert [entry["level"] for entry in result["levels"]] == [2, 3]
        assert set(result["scores"]) == {"2", "3"}

        fred_computations = service.stats()["cache"]["computations"]
        repeat = service.start_fred(fingerprint, auxiliary, kmin=2, kmax=3)
        repeat_snapshot = service._jobs.wait(repeat, timeout=120)
        assert repeat_snapshot["result"] == result
        assert service.stats()["cache"]["computations"] == fred_computations

    def test_fred_validation(self, service, faculty_population, faculty_auxiliary_table):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        with pytest.raises(ServiceError):
            service.start_fred(fingerprint, auxiliary, kmin=5, kmax=2)
        with pytest.raises(ServiceError):
            service.start_fred(fingerprint, auxiliary, algorithm="nonsense")
        with pytest.raises(UnknownDatasetError):
            service.start_fred(fingerprint, "missing")
        with pytest.raises(UnknownJobError):
            service.job_status("job-999")

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_is_rejected_before_submit(
        self, service, faculty_population, faculty_auxiliary_table, weight
    ):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        with pytest.raises(ServiceError, match="protection_weight"):
            service.start_fred(fingerprint, auxiliary, protection_weight=weight)
        assert service.list_jobs() == []

    def test_non_numeric_threshold_is_rejected_before_submit(
        self, service, faculty_population, faculty_auxiliary_table
    ):
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        with pytest.raises(ServiceError, match="protection_threshold"):
            service.start_fred(fingerprint, auxiliary, protection_threshold="high")
        with pytest.raises(ServiceError, match="utility_threshold"):
            service.start_fred(fingerprint, auxiliary, utility_threshold=float("nan"))
        with pytest.raises(FREDConfigurationError, match="non-negative"):
            service.start_fred(fingerprint, auxiliary, utility_weight=-1.0)
        assert service.list_jobs() == []


class TestLifecycle:
    def test_stats_shape(self, service, simple_table):
        service.register(simple_table)
        stats = service.stats()
        assert stats["datasets"] == 1
        assert {"memory_hits", "misses", "computations"} <= set(stats["cache"])
        assert stats["jobs"]["total"] == 0

    def test_stats_spawns_no_child_process(self):
        # A fresh interpreter, so no earlier test has started a helper process.
        script = (
            "import os\n"
            "from repro.service import AnonymizationService\n"
            "AnonymizationService().stats()\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no children')\n"
            "else:\n"
            "    print('child process')\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert completed.stdout.strip() == "no children"

    def test_close_is_idempotent(self, simple_table):
        instance = AnonymizationService()
        instance.register(simple_table)
        instance.close()
        instance.close()
        with pytest.raises(ServiceError):
            instance._jobs.submit(lambda: None)


class TestAppends:
    def test_append_chains_fingerprint_and_supersedes(self, service, simple_table):
        fingerprint = service.register(simple_table, label="people")["fingerprint"]
        service.release(fingerprint, 2)  # warm a cache entry to invalidate
        delta = simple_table.take([0, 1])
        info = service.append_stream(fingerprint, io.StringIO(render_csv(delta)))
        assert info["superseded"] == fingerprint
        assert info["appended_rows"] == 2
        assert info["rows"] == simple_table.num_rows + 2
        assert info["label"] == "people"
        assert info["fingerprint"] == simple_table.append(delta).fingerprint
        assert info["invalidated_entries"] >= 1
        with pytest.raises(UnknownDatasetError):
            service.dataset(fingerprint)
        assert service.dataset(info["fingerprint"]).num_rows == info["rows"]
        stats = service.stats()["appends"]
        assert stats["count"] == 1 and stats["rows"] == 2
        assert stats["invalidated_entries"] == info["invalidated_entries"]

    def test_append_rejects_bad_inputs(self, service, simple_table):
        fingerprint = service.register(simple_table)["fingerprint"]
        header_only = "\n".join(render_csv(simple_table).splitlines()[:2]) + "\n"
        with pytest.raises(ServiceError, match="empty delta"):
            service.append_stream(fingerprint, io.StringIO(header_only))
        with pytest.raises(UnknownDatasetError):
            service.append_stream("missing", io.StringIO(render_csv(simple_table)))
        mismatched = "name\nidentifier:text\nAda Byron\n"
        with pytest.raises(TableError):
            service.append_stream(fingerprint, io.StringIO(mismatched))
        # A failed append must leave the base dataset registered and intact.
        assert service.dataset(fingerprint).num_rows == simple_table.num_rows

    def test_auxiliary_append_matches_a_cold_register(
        self, service, faculty_population, faculty_auxiliary_table
    ):
        rows = faculty_auxiliary_table.num_rows
        cut = rows - rows // 4
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        truncated = service.register(faculty_auxiliary_table.take(list(range(cut))))
        partial = service.attack(fingerprint, truncated["fingerprint"], k=3)
        assert partial["match_rate"] < 1.0
        # The release, the harvest and the attack are cached; only the last
        # two are keyed by the auxiliary fingerprint.
        assert service.stats()["cache"]["computations"] == 3

        info = service.append_table(
            truncated["fingerprint"],
            faculty_auxiliary_table.take(list(range(cut, rows))),
        )
        assert info["invalidated_entries"] == 2
        grown = service.attack(fingerprint, info["fingerprint"], k=3)
        # The release is reused; the harvest and the attack are recomputed
        # against the grown corpus.
        assert service.stats()["cache"]["computations"] == 5

        cold = AnonymizationService()
        try:
            fingerprint = cold.register(faculty_population.private)["fingerprint"]
            auxiliary = cold.register(faculty_auxiliary_table)["fingerprint"]
            expected = cold.attack(fingerprint, auxiliary, k=3)
        finally:
            cold.close()
        assert grown["estimates"] == expected["estimates"]
        assert grown["match_rate"] == expected["match_rate"]

    def test_supersede_invalidates_the_spill_directory(self, tmp_path, simple_table):
        service = AnonymizationService(cache_dir=tmp_path)
        try:
            fingerprint = service.register(simple_table, label="people")["fingerprint"]
            service.release_csv(fingerprint, 2)  # spills artifact + CSV bytes
            delta = simple_table.take([4, 5])
            info = service.append_stream(fingerprint, io.StringIO(render_csv(delta)))
            with pytest.raises(UnknownDatasetError):
                service.dataset(fingerprint)
            assert service.dataset(info["fingerprint"]).num_rows == info["rows"]
            # The spilled artifacts keyed by the old fingerprint are gone.
            assert info["invalidated_entries"] >= 2
            for path in tmp_path.rglob("*.npc"):
                assert fingerprint not in path.read_bytes().decode("latin-1")
            # Re-registering the original content makes it live again.
            assert service.register(simple_table)["created"] is True
            assert service.dataset(fingerprint).num_rows == simple_table.num_rows
        finally:
            service.close()
