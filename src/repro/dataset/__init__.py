"""Tabular enterprise-database substrate (schemas, tables, generalization)."""

from repro.dataset.generalization import (
    SUPPRESSED,
    CategorySet,
    Interval,
    Suppressed,
    cover_values,
    numeric_representative,
)
from repro.dataset.hierarchy import NumericHierarchy
from repro.dataset.io import append_csv, read_csv, write_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.statistics import standardize_matrix
from repro.dataset.table import Table

__all__ = [
    "Attribute",
    "AttributeKind",
    "AttributeRole",
    "Schema",
    "Table",
    "Interval",
    "CategorySet",
    "Suppressed",
    "SUPPRESSED",
    "cover_values",
    "numeric_representative",
    "NumericHierarchy",
    "read_csv",
    "write_csv",
    "append_csv",
    "standardize_matrix",
]
