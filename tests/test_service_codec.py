"""The array-native spill container: round trips, zero-copy, resilience."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.dataset.generalization import SUPPRESSED, CategorySet, Interval
from repro.dataset.io import render_csv
from repro.dataset.table import Table
from repro.service.codec import decode_entry, encode_entry, read_key
from repro.service.core import ReleaseArtifact


def _write(tmp_path, key, value):
    payload = encode_entry(key, value)
    path = tmp_path / "entry.npc"
    path.write_bytes(payload)
    return path


def _tables_equal(left: Table, right: Table) -> None:
    assert left.schema == right.schema
    assert left.num_rows == right.num_rows
    for name in left.schema.names:
        a, b = left.column_array(name), right.column_array(name)
        if a.dtype == object:
            assert list(a) == list(b)
        else:
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


class TestTableRoundTrip:
    def test_numeric_and_text_columns(self, simple_table, tmp_path):
        path = _write(tmp_path, ("k",), simple_table)
        ok, key, value = decode_entry(path)
        assert ok and key == ("k",)
        _tables_equal(simple_table, value)

    def test_numeric_columns_are_views_of_one_mapping(self, simple_table, tmp_path):
        path = _write(tmp_path, ("k",), simple_table)
        _, _, value = decode_entry(path)
        ages = value.column_array("age")
        assert ages.dtype == np.int64
        # A zero-copy view over the file mapping: no write access, and the
        # buffer's ultimate base is a memmap, not a fresh allocation.
        assert not ages.flags.writeable
        import mmap

        base = ages
        while isinstance(getattr(base, "base", None), np.ndarray):
            base = base.base
        assert isinstance(base.base, (np.memmap, mmap.mmap))

    def test_generalized_release_columns(self, simple_table, tmp_path):
        from repro.anonymize.mdav import MDAVAnonymizer

        release = MDAVAnonymizer().anonymize(simple_table, 2).release
        path = _write(tmp_path, ("rel",), release)
        ok, _, value = decode_entry(path)
        assert ok
        _tables_equal(release, value)

    def test_interval_objects_are_shared_per_class(self, tmp_path):
        interval = Interval(1.0, 9.0)
        other = Interval(2.0, 4.0)
        from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema

        schema = Schema([Attribute("age", AttributeRole.QUASI_IDENTIFIER)])
        column = np.empty(4, dtype=object)
        column[:] = [interval, other, interval, interval]
        table = Table._from_arrays(schema, {"age": column}, 4)
        path = _write(tmp_path, ("iv",), table)
        _, _, value = decode_entry(path)
        decoded = value.column_array("age")
        assert decoded[0] == Interval(1.0, 9.0)
        assert decoded[0] is decoded[2] is decoded[3]

    def test_independent_releases_encode_to_identical_bytes(self, simple_table):
        from repro.anonymize.mdav import MDAVAnonymizer

        # Distinct cells are numbered by first appearance, never by address.
        first = MDAVAnonymizer().anonymize(simple_table, 2).release
        second = MDAVAnonymizer().anonymize(simple_table, 2).release
        assert first.column_array("age")[0] is not second.column_array("age")[0]
        assert encode_entry(("rel",), first) == encode_entry(("rel",), second)

    def test_mixed_object_cells(self, tmp_path):
        from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema

        schema = Schema(
            [Attribute("x", AttributeRole.QUASI_IDENTIFIER, AttributeKind.CATEGORICAL)]
        )
        cells = [None, 7, 2.5, Interval(0, 4), SUPPRESSED, 10**30]
        column = np.empty(len(cells), dtype=object)
        column[:] = cells
        table = Table._from_arrays(schema, {"x": column}, len(cells))
        path = _write(tmp_path, ("mix",), table)
        _, _, value = decode_entry(path)
        decoded = list(value.column_array("x"))
        # The big int rides the JSON side list, which keeps it exact.
        assert decoded == cells
        assert type(decoded[1]) is int and type(decoded[2]) is float

    def test_category_set_cells_survive(self, tmp_path):
        from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema

        schema = Schema(
            [Attribute("c", AttributeRole.QUASI_IDENTIFIER, AttributeKind.CATEGORICAL)]
        )
        cells = [CategorySet(("a", "b")), CategorySet(("c",)), SUPPRESSED]
        column = np.empty(len(cells), dtype=object)
        column[:] = cells
        table = Table._from_arrays(schema, {"c": column}, len(cells))
        path = _write(tmp_path, ("cat",), table)
        _, _, value = decode_entry(path)
        assert list(value.column_array("c")) == cells


class TestArtifactRoundTrip:
    @pytest.fixture()
    def artifact(self, simple_table):
        from repro.anonymize.mondrian import MondrianAnonymizer

        result = MondrianAnonymizer().anonymize(simple_table, 2)
        return ReleaseArtifact(
            dataset=simple_table.fingerprint,
            algorithm="mondrian",
            k=2,
            style="interval",
            table=result.release,
            class_sizes=tuple(result.class_sizes),
        )

    def test_round_trip_with_csv(self, artifact, tmp_path):
        expected_csv = artifact.csv_bytes  # render before encoding
        path = _write(tmp_path, ("a",), artifact)
        ok, _, value = decode_entry(path)
        assert ok
        assert value.dataset == artifact.dataset
        assert value.algorithm == "mondrian"
        assert value.k == 2
        assert value.class_sizes == artifact.class_sizes
        assert bytes(value.csv_bytes) == bytes(expected_csv)
        _tables_equal(artifact.table, value.table)

    def test_cached_csv_is_served_without_table_decode(self, artifact, tmp_path):
        artifact.csv_bytes
        path = _write(tmp_path, ("a",), artifact)
        _, _, value = decode_entry(path)
        # The table is a pending loader until someone asks for it.
        assert not isinstance(value._table, Table)
        assert isinstance(value.csv_bytes, memoryview)
        assert not isinstance(value._table, Table)
        assert value.csv_text == render_csv(artifact.table)

    def test_unrendered_artifact_has_no_csv_segment(self, artifact, tmp_path):
        path = _write(tmp_path, ("a",), artifact)
        _, _, value = decode_entry(path)
        assert value.csv_bytes_cache is None
        assert value.csv_text == artifact.csv_text


class TestGenericValues:
    def test_bytes_come_back_as_mapping_view(self, tmp_path):
        blob = b"x" * 10_000
        path = _write(tmp_path, ("b",), blob)
        ok, key, value = decode_entry(path)
        assert ok and key == ("b",)
        assert isinstance(value, memoryview)
        assert bytes(value) == blob

    def test_nested_dict_with_numeric_lists(self, tmp_path):
        payload = {
            "estimates": [float(i) / 3 for i in range(5000)],
            "names": [f"person {i}" for i in range(5000)],
            "match_rate": 0.25,
            "meta": {"algorithm": "mdav", "k": 4, "levels": (2, 3, 4)},
            "odd": {1: "non-string-key"},
        }
        path = _write(tmp_path, ("d",), payload)
        ok, _, value = decode_entry(path)
        assert ok
        assert value["estimates"] == payload["estimates"]
        assert value["names"] == payload["names"]
        assert value["match_rate"] == 0.25
        assert value["meta"] == payload["meta"]
        assert isinstance(value["meta"]["levels"], tuple)
        assert value["odd"] == {1: "non-string-key"}

    def test_int_list_and_ndarray(self, tmp_path):
        payload = {"ids": list(range(4000)), "vector": np.arange(300, dtype=np.float64)}
        path = _write(tmp_path, ("n",), payload)
        _, _, value = decode_entry(path)
        assert value["ids"] == list(range(4000))
        assert np.array_equal(value["vector"], np.arange(300, dtype=np.float64))

    def test_non_finite_floats_survive(self, tmp_path):
        payload = {"edge": [float("nan"), float("inf"), float("-inf")] * 20}
        path = _write(tmp_path, ("f",), payload)
        _, _, value = decode_entry(path)
        edge = value["edge"]
        assert np.isnan(edge[0]) and edge[1] == float("inf") and edge[2] == float("-inf")


class TestHeuristics:
    """There is no size heuristic: every encodable value gets a container."""

    def test_small_values_get_a_container(self, tmp_path):
        for value in ({"a": 1}, [1.0] * 2047):
            payload = encode_entry(("k",), value)
            assert payload.startswith(b"#repro-npc1\n")
            path = tmp_path / "small.npc"
            path.write_bytes(payload)
            assert decode_entry(path) == (True, ("k",), value)

    def test_large_values_get_one(self):
        assert encode_entry(("k",), [1.0] * 2048).startswith(b"#repro-npc1\n")

    def test_tables_of_any_size_get_a_container(self, simple_table, tmp_path):
        path = _write(tmp_path, ("k",), simple_table)
        ok, key, value = decode_entry(path)
        assert ok and key == ("k",)
        _tables_equal(simple_table, value)

    def test_small_value_round_trips(self, tmp_path):
        path = _write(tmp_path, ("k",), {"a": 1})
        ok, key, value = decode_entry(path)
        assert ok and key == ("k",) and value == {"a": 1}


class TestPickleFree:
    def test_key_lives_in_the_json_manifest(self, tmp_path):
        key = ("fp", "release", "mdav", 4, "interval", None, 0.5, -0.0, 10**30)
        path = _write(tmp_path, key, b"payload")
        assert read_key(path) == key
        ok, stored, _ = decode_entry(path)
        assert ok and stored == key and isinstance(stored, tuple)
        assert str(stored[7]) == "-0.0"

    def test_read_key_decodes_no_value(self, tmp_path, monkeypatch):
        from repro.service import codec

        path = _write(tmp_path, ("k", 1), {"estimates": [0.5] * 100})

        def forbidden(*args, **kwargs):
            raise AssertionError("read_key must not decode the value")

        monkeypatch.setattr(codec._Reader, "decode", forbidden)
        assert read_key(path) == ("k", 1)

    def test_json_leaves_round_trip_exactly(self, tmp_path):
        value = {
            "nan": float("nan"),
            "inf": [float("inf"), float("-inf")],
            "neg_zero": -0.0,
            "big": 10**40,
            "neg_big": -(10**25),
            "flags": (True, False, None),
        }
        _, _, decoded = decode_entry(_write(tmp_path, ("j",), value))
        assert np.isnan(decoded["nan"])
        assert decoded["inf"] == [float("inf"), float("-inf")]
        assert str(decoded["neg_zero"]) == "-0.0"
        assert decoded["big"] == 10**40 and decoded["neg_big"] == -(10**25)
        assert decoded["flags"] == (True, False, None)

    def test_text_column_with_blanks_and_nul_suffixes(self, tmp_path):
        from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema

        schema = Schema([Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)])
        for cells in (["ann", None, "bob", None], ["nul\x00", "plain"]):
            column = np.empty(len(cells), dtype=object)
            column[:] = cells
            table = Table._from_arrays(schema, {"name": column}, len(cells))
            _, _, value = decode_entry(_write(tmp_path, ("t",), table))
            assert list(value.column_array("name")) == cells

    def test_values_without_an_encoding_raise_type_error(self):
        from repro.fusion.auxiliary import AuxiliaryRecord

        with pytest.raises(TypeError):
            encode_entry(("h",), [None, AuxiliaryRecord(name="a", attributes={})])
        with pytest.raises(TypeError):
            encode_entry(("o",), np.array([object()], dtype=object))
        with pytest.raises(TypeError):
            encode_entry(("nested", ("key",)), b"")


class TestResilience:
    def test_missing_file_is_a_miss(self, tmp_path):
        assert decode_entry(tmp_path / "absent.npc") == (False, None, None)

    def test_foreign_file_is_a_miss(self, tmp_path):
        path = tmp_path / "foreign.npc"
        path.write_bytes(b"not a container at all")
        assert decode_entry(path) == (False, None, None)

    def test_truncated_container_is_a_miss(self, tmp_path):
        blob = b"y" * 50_000
        path = _write(tmp_path, ("t",), blob)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        ok, _, _ = decode_entry(path)
        assert not ok

    def test_version_2_container_is_a_miss(self, simple_table, tmp_path):
        data = encode_entry(("v",), simple_table)
        assert data.count(b'"version":3') == 1
        # A same-length manifest edit keeps every segment offset valid.
        path = tmp_path / "old.npc"
        path.write_bytes(data.replace(b'"version":3', b'"version":2'))
        assert decode_entry(path) == (False, None, None)
        assert read_key(path) is None

    def test_negative_cell_code_is_a_miss(self, tmp_path):
        import json

        from repro.dataset.schema import Attribute, AttributeRole, Schema

        schema = Schema([Attribute("age", AttributeRole.QUASI_IDENTIFIER)])
        column = np.empty(2, dtype=object)
        column[:] = [Interval(1.0, 2.0), SUPPRESSED]
        table = Table._from_arrays(schema, {"age": column}, 2)
        data = bytearray(encode_entry(("neg",), table))
        start = len(b"#repro-npc1\n") + 4
        end = start + int.from_bytes(data[start - 4 : start], "big")
        manifest = json.loads(bytes(data[start:end]))
        record = manifest["segments"][manifest["root"]["columns"][0]["codes"]]
        # A negative code would otherwise wrap around to the last cell.
        position = end + (-end) % 64 + record["offset"]
        data[position : position + 8] = np.int64(-1).tobytes()
        path = tmp_path / "neg.npc"
        path.write_bytes(bytes(data))
        assert decode_entry(path) == (False, None, None)

    def test_pickled_garbage_is_a_miss(self, tmp_path):
        path = tmp_path / "entry.npc"
        path.write_bytes(pickle.dumps(("some", "tuple")))
        assert decode_entry(path) == (False, None, None)
