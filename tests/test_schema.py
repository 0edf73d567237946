"""Unit tests for repro.dataset.schema."""

from __future__ import annotations

import pytest

from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.exceptions import SchemaError


class TestAttribute:
    def test_basic_construction(self):
        attribute = Attribute("age", AttributeRole.QUASI_IDENTIFIER)
        assert attribute.name == "age"
        assert attribute.kind is AttributeKind.NUMERIC
        assert attribute.is_quasi_identifier
        assert not attribute.is_identifier
        assert not attribute.is_sensitive

    def test_identifier_predicates(self):
        attribute = Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)
        assert attribute.is_identifier
        assert not attribute.is_numeric

    def test_sensitive_predicates(self):
        attribute = Attribute("salary", AttributeRole.SENSITIVE)
        assert attribute.is_sensitive
        assert attribute.is_numeric

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("", AttributeRole.SENSITIVE)

    def test_bad_role_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("x", "sensitive")  # type: ignore[arg-type]

    def test_bad_kind_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("x", AttributeRole.SENSITIVE, "numeric")  # type: ignore[arg-type]


class TestSchemaConstruction:
    def test_from_attributes(self, simple_schema):
        assert len(simple_schema) == 4
        assert simple_schema.names == ("name", "age", "city", "salary")

    def test_from_tuples(self):
        schema = Schema([("name", "identifier"), ("age", "quasi_identifier", "numeric")])
        assert schema["name"].is_identifier
        assert schema["age"].is_quasi_identifier

    def test_from_dicts(self):
        schema = Schema(
            [
                {"name": "name", "role": "identifier", "kind": "text"},
                {"name": "salary", "role": "sensitive"},
            ]
        )
        assert schema.sensitive_attribute == "salary"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([("a", "sensitive"), ("a", "sensitive")])

    def test_bad_spec_rejected(self):
        with pytest.raises(SchemaError):
            Schema([42])  # type: ignore[list-item]


class TestSchemaLookups:
    def test_contains_and_getitem(self, simple_schema):
        assert "age" in simple_schema
        assert "missing" not in simple_schema
        assert simple_schema["age"].is_quasi_identifier
        with pytest.raises(SchemaError):
            simple_schema["missing"]

    def test_role_views(self, simple_schema):
        assert simple_schema.identifiers == ("name",)
        assert simple_schema.quasi_identifiers == ("age", "city")
        assert simple_schema.sensitive_attributes == ("salary",)
        assert simple_schema.sensitive_attribute == "salary"

    def test_numeric_and_categorical_quasi_identifiers(self, simple_schema):
        assert simple_schema.numeric_quasi_identifiers == ("age",)

    def test_sensitive_attribute_requires_exactly_one(self):
        schema = Schema([("a", "quasi_identifier")])
        with pytest.raises(SchemaError, match="exactly one"):
            _ = schema.sensitive_attribute
        two = Schema([("a", "sensitive"), ("b", "sensitive")])
        with pytest.raises(SchemaError, match="exactly one"):
            _ = two.sensitive_attribute

    def test_iteration_order(self, simple_schema):
        assert [a.name for a in simple_schema] == list(simple_schema.names)


class TestSchemaDerivations:
    def test_project(self, simple_schema):
        projected = simple_schema.project(["salary", "age"])
        assert projected.names == ("salary", "age")
        with pytest.raises(SchemaError):
            simple_schema.project(["missing"])

    def test_drop(self, simple_schema):
        dropped = simple_schema.drop(["salary"])
        assert "salary" not in dropped
        assert len(dropped) == 3
        with pytest.raises(SchemaError):
            simple_schema.drop(["missing"])

    def test_release_schema_drops_sensitive(self, simple_schema):
        release = simple_schema.release_schema()
        assert "salary" not in release
        assert "name" in release

    def test_release_schema_keep_sensitive(self, simple_schema):
        assert simple_schema.release_schema(keep_sensitive=True) == simple_schema
