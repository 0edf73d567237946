"""The array-native spill container: round trips, zero-copy, resilience."""

from __future__ import annotations

import json
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


def _unpack(payload: bytes) -> tuple[bytearray, dict, int]:
    """A writable copy of a container, its manifest and its segment base."""
    data = bytearray(payload)
    start = len(b"#repro-npc1\n") + 4
    end = start + int.from_bytes(data[start - 4 : start], "big")
    return data, json.loads(bytes(data[start:end])), end + (-end) % 64


def _segment(data: bytearray, manifest: dict, base: int, index: int) -> np.ndarray:
    """A writable view of segment ``index`` inside ``data``."""
    record = manifest["segments"][index]
    start = base + record["offset"]
    raw = np.frombuffer(data, dtype=np.uint8)[start : start + record["nbytes"]]
    return raw.view(np.dtype(record["dtype"])).reshape(record["shape"])


def _interval_column(data: bytearray, manifest: dict, base: int) -> tuple[dict, int]:
    """The first ``col-tagged`` column holding an interval, and that cell's code."""
    from repro.service.codec import _TAG_INTERVAL

    root = manifest["root"]
    table = root["table"] if root["t"] == "artifact" else root
    for column in table["columns"]:
        if column["t"] == "col-tagged":
            codes = np.flatnonzero(_segment(data, manifest, base, column["tags"]) == _TAG_INTERVAL)
            if codes.size:
                return column, int(codes[0])
    raise AssertionError("no column holds an interval cell")


def _one_column_table(cells: list, kind=None) -> Table:
    from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema

    schema = Schema(
        [Attribute("x", AttributeRole.QUASI_IDENTIFIER, kind or AttributeKind.NUMERIC)]
    )
    column = np.empty(len(cells), dtype=object)
    column[:] = cells
    return Table._from_arrays(schema, {"x": column}, len(cells))


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
        path = _write(tmp_path, ("a",), artifact)
        ok, _, value = decode_entry(path)
        assert ok
        assert value.dataset == artifact.dataset
        assert value.algorithm == "mondrian"
        assert value.k == 2
        assert value.class_sizes == artifact.class_sizes
        assert value.info() == artifact.info()
        # The table is decoded by decode_entry itself, never on first use.
        assert isinstance(value.table, Table)
        assert render_csv(value.table) == render_csv(artifact.table)
        _tables_equal(artifact.table, value.table)


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
        table = _one_column_table([Interval(1.0, 2.0), SUPPRESSED])
        data, manifest, base = _unpack(encode_entry(("neg",), table))
        # A negative code would otherwise wrap around to the last cell.
        _segment(data, manifest, base, manifest["root"]["columns"][0]["codes"])[0] = -1
        path = tmp_path / "neg.npc"
        path.write_bytes(bytes(data))
        assert decode_entry(path) == (False, None, None)

    def test_pickled_garbage_is_a_miss(self, tmp_path):
        path = tmp_path / "entry.npc"
        path.write_bytes(pickle.dumps(("some", "tuple")))
        assert decode_entry(path) == (False, None, None)


class TestCorruptValues:
    """A container whose cells or shapes fail their own checks reads as a miss.

    Each case patches one value of a well-formed container in place, so every
    segment offset stays valid and only the decoded value is wrong.
    """

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

    @staticmethod
    def _decode_patched(tmp_path, value, patch) -> tuple:
        data, manifest, base = _unpack(encode_entry(("c",), value))
        patch(data, manifest, base)
        path = tmp_path / "patched.npc"
        path.write_bytes(bytes(data))
        return decode_entry(path)

    @staticmethod
    def _set_interval(low, high):
        def patch(data, manifest, base):
            column, code = _interval_column(data, manifest, base)
            _segment(data, manifest, base, column["values"])[code] = (low, high)

        return patch

    def test_artifact_interval_with_low_above_high_is_a_miss(self, artifact, tmp_path):
        patch = self._set_interval(9.0, 1.0)
        assert self._decode_patched(tmp_path, artifact, patch) == (False, None, None)

    def test_artifact_cell_code_past_the_cells_is_a_miss(self, artifact, tmp_path):
        def patch(data, manifest, base):
            column, _ = _interval_column(data, manifest, base)
            _segment(data, manifest, base, column["codes"])[0] = 10**6

        assert self._decode_patched(tmp_path, artifact, patch) == (False, None, None)

    @pytest.mark.parametrize(
        "low, high", [(2.0, 1.0), (float("nan"), float("nan"))], ids=["reversed", "nan"]
    )
    def test_table_interval_with_invalid_bounds_is_a_miss(self, tmp_path, low, high):
        table = _one_column_table([Interval(1.0, 2.0), None])
        patch = self._set_interval(low, high)
        assert self._decode_patched(tmp_path, table, patch) == (False, None, None)

    def test_empty_category_set_side_entry_is_a_miss(self, tmp_path):
        from repro.dataset.schema import AttributeKind

        table = _one_column_table(
            [CategorySet(("a", "b")), SUPPRESSED], kind=AttributeKind.CATEGORICAL
        )

        def patch(data, manifest, base):
            segment = _segment(data, manifest, base, manifest["root"]["columns"][0]["side"])
            side = json.loads(segment.tobytes())
            side[0][0] = []  # a CategorySet with no members
            text = json.dumps(side).encode("utf-8")
            segment[:] = np.frombuffer(text.ljust(segment.size), dtype=np.uint8)

        assert self._decode_patched(tmp_path, table, patch) == (False, None, None)

    def test_unknown_cell_tag_is_a_miss(self, tmp_path):
        table = _one_column_table([None, Interval(1.0, 2.0)])

        def patch(data, manifest, base):
            tags = _segment(data, manifest, base, manifest["root"]["columns"][0]["tags"])
            tags[0] = 99  # no cell type has this tag; cell 0 is the None

        assert self._decode_patched(tmp_path, table, patch) == (False, None, None)

    def test_row_count_disagreeing_with_the_columns_is_a_miss(self, simple_table, tmp_path):
        def patch(data, manifest, base):
            # A same-length manifest edit keeps every segment offset valid.
            old = f'"rows":{simple_table.num_rows}'.encode()
            assert data.count(old) == 1
            data[:] = data.replace(old, f'"rows":{simple_table.num_rows - 1}'.encode())

        assert self._decode_patched(tmp_path, simple_table, patch) == (False, None, None)

    def test_schema_column_without_a_column_node_is_a_miss(self, simple_table, tmp_path):
        def patch(data, manifest, base):
            # Blanking the last column node keeps the manifest valid JSON of
            # the same length, so every segment offset stays valid.
            node = b"," + json.dumps(
                manifest["root"]["columns"][-1], separators=(",", ":")
            ).encode()
            assert data.count(node) == 1
            data[:] = data.replace(node, b" " * len(node))

        assert self._decode_patched(tmp_path, simple_table, patch) == (False, None, None)


class TestCorruptSpillInService:
    def test_corrupt_spilled_release_is_recomputed(
        self, tmp_path, faculty_population, faculty_auxiliary_table
    ):
        from repro.service import AnonymizationService

        def attack(service):
            fingerprint = service.register(faculty_population.private)["fingerprint"]
            auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
            return service.attack(fingerprint, auxiliary, k=3, algorithm="mondrian")

        cold = AnonymizationService()
        try:
            expected = attack(cold)
        finally:
            cold.close()

        first = AnonymizationService(cache_dir=tmp_path)
        try:
            fingerprint = first.register(faculty_population.private)["fingerprint"]
            first.release(fingerprint, 3, algorithm="mondrian")
        finally:
            first.close()
        [path] = list(tmp_path.glob("*.npc"))
        data, manifest, base = _unpack(path.read_bytes())
        column, code = _interval_column(data, manifest, base)
        _segment(data, manifest, base, column["values"])[code] = (9.0, 1.0)  # low > high
        path.write_bytes(bytes(data))

        service = AnonymizationService(cache_dir=tmp_path)
        try:
            assert attack(service) == expected
            stats = service.stats()["cache"]
        finally:
            service.close()
        # The corrupt container was a miss: the release was computed again.
        assert stats["disk_hits"] == 0
        assert stats["computations"] == 3  # the release, its harvest and the attack
