"""The service's one on-disk format: the array-native ``.npc`` container.

Every spilled cache entry is one container file.
For the artifacts the serving tier caches — anonymized release tables, their
rendered CSV bytes, per-record attack estimate vectors, FRED sweep summaries —
the container stores large payloads as raw, 64-byte-aligned array segments
behind a JSON manifest.

Loading maps the file **once** (``np.memmap(path, mode="r")``) and hands out
zero-copy views into the mapping:

* ``int64`` / ``float64`` table columns come back as read-only array views of
  the mapping — a spilled 1M-row release is *mapped*, not re-materialized;
* text columns are stored as fixed-width ``U`` segments and viewed in place;
* other object columns store :meth:`~repro.dataset.table.Table.factorize`
  codes plus a tag and payload per *distinct* cell, so decoded rows of one
  equivalence class share one cell object again;
* cached CSV renderings come back as a :class:`memoryview` over the mapping,
  so serving a spilled release writes straight from the page cache to the
  socket.

Nothing in a container is executable: the manifest is JSON and segments are
raw numbers, text or bytes.  Values the encoders do not cover raise
:class:`TypeError` from :func:`encode_entry`; the cache then keeps them in
its memory tier only.

Container layout
----------------
::

    magic "#repro-npc1\\n"  | uint32 manifest length | manifest JSON | pad
    segment 0 (64-byte aligned) | segment 1 | ...

The manifest holds the format version (3; any other reads as a miss), the
cache key (a JSON list, restored as a tuple), a JSON tree describing how to
reassemble the value, and one ``(dtype, shape, offset, nbytes)`` record per
segment.  :func:`read_key` reads the key from
the manifest alone, without decoding the value.  Writers are atomic at the
caller (temp file + ``os.replace``), so a torn container can never be
observed under its final name; :func:`decode_entry` additionally treats any
malformed container as a cache miss rather than an error: the whole value,
release tables included, is decoded and validated before it is returned.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.dataset.generalization import SUPPRESSED, CategorySet, Interval, Suppressed
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.exceptions import ReproError

__all__ = ["encode_entry", "decode_entry", "read_key", "SPILL_CONTAINER_SUFFIX"]

#: File suffix of container files.
SPILL_CONTAINER_SUFFIX = ".npc"

#: Leaf lists shorter than this are inlined in the manifest instead of
#: getting their own segment.
_MIN_SEGMENT_ITEMS = 16

_MAGIC = b"#repro-npc1\n"
_VERSION = 3
_ALIGN = 64

#: Object-column cell tags of the ``col-tagged`` encoding.
_TAG_NONE = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_INTERVAL = 3
_TAG_SUPPRESSED = 4
_TAG_SIDE = 5  # str, big int and CategorySet cells, held in a JSON side list

#: Largest integer magnitude stored through the float64 payload lanes of the
#: ``col-tagged`` encoding without precision loss.
_EXACT_INT = 2**53

#: What a malformed, truncated or foreign file raises while being read
#: (:class:`ReproError` covers cells and schemas that fail their own checks).
_MALFORMED = (OSError, ValueError, KeyError, IndexError, TypeError, ReproError)


class _Writer:
    """Accumulates aligned segments and their manifest records."""

    def __init__(self) -> None:
        self.records: list[dict[str, object]] = []
        self.payloads: list[bytes | memoryview] = []
        self.offset = 0  # relative to the start of the segment area

    def add(self, array: np.ndarray) -> int:
        data = np.ascontiguousarray(array)
        payload = data.view(np.uint8).reshape(-1).data if data.nbytes else b""
        index = len(self.records)
        self.records.append(
            {
                "dtype": data.dtype.str,
                "shape": list(data.shape),
                "offset": self.offset,
                "nbytes": data.nbytes,
            }
        )
        self.payloads.append(payload)
        self.offset += data.nbytes + (-data.nbytes) % _ALIGN
        return index

    def add_bytes(self, payload: bytes) -> int:
        return self.add(np.frombuffer(payload, dtype=np.uint8))


def _json_leaf(value: object) -> bool:
    """Whether a scalar round-trips exactly through Python's ``json``.

    That covers every int and float: ``json`` writes NaN, ±inf and -0.0 and
    reads them back, and its ints are unbounded.
    """
    return value is None or isinstance(value, (bool, int, float, str))


def _fits_unicode(values: list) -> bool:
    """Whether a ``U`` segment keeps these strings (it strips trailing NULs)."""
    return "\x00" not in "".join(values)


def _encode_listlike(writer: _Writer, values: list | tuple) -> dict[str, object]:
    """A list/tuple node; long homogeneous primitive runs become segments."""
    kind = "tuple" if isinstance(values, tuple) else "list"
    if len(values) >= _MIN_SEGMENT_ITEMS:
        if all(type(v) is float for v in values):
            return {"t": f"{kind}-seg", "i": writer.add(np.asarray(values, dtype=np.float64))}
        if all(type(v) is int for v in values):
            try:
                array = np.asarray(values, dtype=object).astype(np.int64)
                return {"t": f"{kind}-seg", "i": writer.add(array)}
            except OverflowError:
                pass
        if all(type(v) is str for v in values) and _fits_unicode(values):
            return {"t": f"{kind}-seg", "i": writer.add(np.asarray(values, dtype="U"))}
    return {"t": kind, "items": [_encode_node(writer, v) for v in values]}


def _encode_object_column(writer: _Writer, table: Table, name: str) -> dict[str, object]:
    """One object storage column: a ``U`` segment, or codes over tagged distinct cells."""
    values = list(table.column_array(name))
    if all(type(v) is str for v in values) and _fits_unicode(values):
        return {"t": "col-str", "i": writer.add(np.asarray(values, dtype="U"))}

    codes, cells = table.factorize(name)
    tags = np.empty(cells.shape[0], dtype=np.uint8)
    payload = np.zeros((cells.shape[0], 2), dtype=np.float64)
    side: list[object] = []
    for code, value in enumerate(cells):
        if value is None:
            tags[code] = _TAG_NONE
        elif isinstance(value, Suppressed):
            tags[code] = _TAG_SUPPRESSED
        elif isinstance(value, Interval):
            tags[code] = _TAG_INTERVAL
            payload[code, 0] = value.low
            payload[code, 1] = value.high
        elif type(value) is int and -_EXACT_INT <= value <= _EXACT_INT:
            tags[code] = _TAG_INT
            payload[code, 0] = float(value)
        elif type(value) is float:
            tags[code] = _TAG_FLOAT
            payload[code, 0] = value
        elif isinstance(value, CategorySet):
            tags[code] = _TAG_SIDE
            side.append([list(value.members), value.label])
        elif _json_leaf(value):
            tags[code] = _TAG_SIDE
            side.append(value)
        else:
            raise TypeError(f"no container encoding for a {type(value).__name__} cell")
    node = {
        "t": "col-tagged",
        "codes": writer.add(codes.astype(np.int64)),
        "tags": writer.add(tags),
        "values": writer.add(payload),
    }
    if side:
        node["side"] = writer.add_bytes(json.dumps(side).encode("utf-8"))
    return node


def _encode_table(writer: _Writer, table: Table) -> dict[str, object]:
    columns = []
    for name in table.schema.names:
        array = table.column_array(name)
        if array.dtype.kind in "if":
            columns.append({"t": "col-num", "i": writer.add(array)})
        else:
            columns.append(_encode_object_column(writer, table, name))
    return {
        "t": "table",
        "rows": table.num_rows,
        "schema": [
            [a.name, a.role.value, a.kind.value, a.description]
            for a in table.schema.attributes
        ],
        "columns": columns,
    }


def _encode_node(writer: _Writer, value: object) -> dict[str, object]:
    """Encode one value into a manifest node, adding segments as needed."""
    # Imported lazily to avoid a circular import at module load.
    from repro.service.core import ReleaseArtifact

    if isinstance(value, Table):
        return _encode_table(writer, value)
    if isinstance(value, ReleaseArtifact):
        return {
            "t": "artifact",
            "dataset": value.dataset,
            "algorithm": value.algorithm,
            "k": value.k,
            "style": value.style,
            "class_sizes": _encode_listlike(writer, tuple(value.class_sizes)),
            "table": _encode_table(writer, value.table),
        }
    if isinstance(value, np.ndarray) and not value.dtype.hasobject:
        return {"t": "ndarray", "i": writer.add(value)}
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"t": "bytes", "i": writer.add_bytes(bytes(value))}
    if isinstance(value, dict):
        return {
            "t": "dict",
            "keys": [_encode_node(writer, k) for k in value],
            "values": [_encode_node(writer, v) for v in value.values()],
        }
    if isinstance(value, (list, tuple)):
        return _encode_listlike(writer, value)
    if _json_leaf(value):
        return {"t": "json", "v": value}
    raise TypeError(f"no container encoding for {type(value).__name__}")


def encode_entry(key: tuple, value: object) -> bytes:
    """Serialize ``(key, value)`` as one container.

    ``key`` must be a flat tuple of JSON scalars; it is written into the
    manifest.  Raises :class:`TypeError` when the key or some part of the
    value has no container encoding.
    """
    if not isinstance(key, tuple) or not all(_json_leaf(part) for part in key):
        raise TypeError(f"container keys are flat tuples of JSON scalars, got {key!r}")
    writer = _Writer()
    root = _encode_node(writer, value)
    manifest = json.dumps(
        {"version": _VERSION, "key": list(key), "root": root, "segments": writer.records},
        separators=(",", ":"),
    ).encode("utf-8")

    buffer = io.BytesIO()
    buffer.write(_MAGIC)
    buffer.write(len(manifest).to_bytes(4, "big"))
    buffer.write(manifest)
    header_end = buffer.tell()
    buffer.write(b"\x00" * ((-header_end) % _ALIGN))
    base = buffer.tell()
    for record, payload in zip(writer.records, writer.payloads):
        position = base + int(record["offset"])  # type: ignore[arg-type]
        buffer.write(b"\x00" * (position - buffer.tell()))
        buffer.write(payload)
    return buffer.getvalue()


class _Reader:
    """Decodes manifest nodes against one shared memory mapping."""

    def __init__(self, mapping: np.ndarray, base: int, segments: list[dict]) -> None:
        self._mapping = mapping
        self._base = base
        self._segments = segments

    def segment(self, index: int) -> np.ndarray:
        record = self._segments[index]
        start = self._base + int(record["offset"])
        stop = start + int(record["nbytes"])
        flat = self._mapping[start:stop]
        array = flat.view(np.dtype(record["dtype"]))
        return array.reshape(tuple(record["shape"]))

    def raw(self, index: int) -> bytes:
        return self.segment(index).tobytes()

    def decode(self, node: dict) -> object:
        kind = node["t"]
        if kind == "json":
            return node["v"]
        if kind == "bytes":
            # Zero-copy: a memoryview over the mapping, written to the
            # socket without materializing the payload.
            segment = self.segment(node["i"])
            return segment.data if segment.size else memoryview(b"")
        if kind == "ndarray":
            return self.segment(node["i"])
        if kind in ("list-seg", "tuple-seg"):
            values = self.segment(node["i"]).tolist()
            return tuple(values) if kind == "tuple-seg" else values
        if kind in ("list", "tuple"):
            items = [self.decode(item) for item in node["items"]]
            return tuple(items) if kind == "tuple" else items
        if kind == "dict":
            return {
                self.decode(key): self.decode(item)
                for key, item in zip(node["keys"], node["values"])
            }
        if kind == "table":
            return self.decode_table(node)
        if kind == "artifact":
            return self._decode_artifact(node)
        raise ValueError(f"unknown container node type: {kind!r}")

    def decode_table(self, node: dict) -> Table:
        schema = Schema(
            [
                Attribute(name, AttributeRole(role), AttributeKind(kind), description)
                for name, role, kind, description in node["schema"]
            ]
        )
        rows = int(node["rows"])
        arrays: dict[str, np.ndarray] = {}
        for attribute, column in zip(schema.attributes, node["columns"], strict=True):
            array = self._decode_column(column)
            if array.shape != (rows,):
                raise ValueError(
                    f"column {attribute.name!r} has shape {array.shape}, expected ({rows},)"
                )
            arrays[attribute.name] = array
        return Table._from_arrays(schema, arrays, rows)

    def _decode_column(self, node: dict) -> np.ndarray:
        kind = node["t"]
        if kind == "col-num":
            return self.segment(node["i"])  # zero-copy view of the mapping
        if kind == "col-str":
            return self.segment(node["i"]).astype(object)
        if kind == "col-tagged":
            side = json.loads(self.raw(node["side"])) if "side" in node else []
            cells = self._decode_cells(
                self.segment(node["tags"]), self.segment(node["values"]), side
            )
            codes = self.segment(node["codes"])
            if codes.size and int(codes.min()) < 0:
                raise ValueError("negative cell code")
            # Rows of one class share one cell object again, as in the release.
            return cells[codes]
        raise ValueError(f"unknown container column type: {kind!r}")

    @staticmethod
    def _decode_cells(tags: np.ndarray, payload: np.ndarray, side: list) -> np.ndarray:
        out = np.empty(tags.shape[0], dtype=object)
        tag_list = tags.tolist()
        payload_list = payload.tolist()
        side_row = 0
        for code, tag in enumerate(tag_list):
            if tag == _TAG_NONE:
                out[code] = None
            elif tag == _TAG_INT:
                out[code] = int(payload_list[code][0])
            elif tag == _TAG_FLOAT:
                out[code] = payload_list[code][0]
            elif tag == _TAG_SUPPRESSED:
                out[code] = SUPPRESSED
            elif tag == _TAG_SIDE:
                cell = side[side_row]
                side_row += 1
                # JSON lists only ever hold CategorySet cells (members, label).
                out[code] = CategorySet(cell[0], label=cell[1]) if isinstance(cell, list) else cell
            elif tag == _TAG_INTERVAL:
                out[code] = Interval(payload_list[code][0], payload_list[code][1])
            else:
                raise ValueError(f"unknown cell tag {tag}")
        return out

    def _decode_artifact(self, node: dict):
        from repro.service.core import ReleaseArtifact

        return ReleaseArtifact(
            dataset=node["dataset"],
            algorithm=node["algorithm"],
            k=int(node["k"]),
            style=node["style"],
            table=self.decode_table(node["table"]),
            class_sizes=tuple(self.decode(node["class_sizes"])),
        )


def _open(path: str | Path) -> tuple[np.ndarray, dict, int]:
    """Map a container: ``(mapping, manifest, segment base)``; raises if malformed."""
    mapping = np.memmap(path, dtype=np.uint8, mode="r")
    if bytes(mapping[: len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a container")
    length_end = len(_MAGIC) + 4
    manifest_length = int.from_bytes(bytes(mapping[len(_MAGIC):length_end]), "big")
    header_end = length_end + manifest_length
    manifest = json.loads(bytes(mapping[length_end:header_end]).decode("utf-8"))
    if manifest.get("version") != _VERSION:
        raise ValueError("unsupported container version")
    return mapping, manifest, header_end + (-header_end) % _ALIGN


def read_key(path: str | Path) -> tuple | None:
    """The key of a container, read from its manifest alone, or ``None``."""
    try:
        return tuple(_open(path)[1]["key"])
    except _MALFORMED:
        return None


def decode_entry(path: str | Path) -> tuple[bool, tuple | None, object | None]:
    """Load a container written by :func:`encode_entry`.

    Returns ``(ok, key, value)``; any malformed, truncated or foreign file
    yields ``(False, None, None)`` so the cache treats it as a miss.  The
    value's array payloads are zero-copy views over one ``np.memmap`` of the
    file; unlinking the file later (garbage collection, eviction) is safe —
    the mapping keeps the data alive until the views are released.
    """
    try:
        mapping, manifest, base = _open(path)
        key = tuple(manifest["key"])
        value = _Reader(mapping, base, manifest["segments"]).decode(manifest["root"])
        return True, key, value
    except _MALFORMED:
        return False, None, None
