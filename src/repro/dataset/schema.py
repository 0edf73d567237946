"""Schema definitions for enterprise databases.

The paper classifies the attributes of an individual-specific database into
three roles (Section I):

* **identifier** attributes carry explicit identifiers (Name, SSN, ...);
* **quasi-identifier** attributes could indirectly identify individuals
  (Age, Zipcode, performance-review scores, ...) and are the columns that
  partitioning-based anonymization generalizes;
* **sensitive** attributes carry the information whose disclosure must be
  prevented (Disease, Income, Salary, ...).

The key departure of the paper from prior work is that identifier attributes
are *kept* in the release (they are needed for the release to be useful inside
the enterprise), which is exactly what enables the web-based information-fusion
attack.  The :class:`Schema` class therefore models all three roles explicitly
instead of assuming identifiers were stripped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.exceptions import SchemaError

__all__ = [
    "AttributeRole",
    "AttributeKind",
    "Attribute",
    "Schema",
]


class AttributeRole(enum.Enum):
    """Privacy role of an attribute, following the paper's classification."""

    IDENTIFIER = "identifier"
    QUASI_IDENTIFIER = "quasi_identifier"
    SENSITIVE = "sensitive"
    #: Attributes that play no privacy role (bookkeeping columns, row ids).
    INSENSITIVE = "insensitive"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class AttributeKind(enum.Enum):
    """Value domain of an attribute."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    TEXT = "text"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Attribute:
    """A single column declaration.

    Parameters
    ----------
    name:
        Column name, unique within a :class:`Schema`.
    role:
        Privacy role (identifier, quasi-identifier, sensitive, insensitive).
    kind:
        Value domain.  Quasi-identifiers may be numeric or categorical;
        identifiers are typically text; sensitive attributes in this paper are
        numeric (income / salary).
    description:
        Optional human-readable description used by report generators.
    """

    name: str
    role: AttributeRole
    kind: AttributeKind = AttributeKind.NUMERIC
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError("attribute name must be a non-empty string")
        if not isinstance(self.role, AttributeRole):
            raise SchemaError(f"invalid role for attribute {self.name!r}: {self.role!r}")
        if not isinstance(self.kind, AttributeKind):
            raise SchemaError(f"invalid kind for attribute {self.name!r}: {self.kind!r}")

    # Convenience predicates -------------------------------------------------

    @property
    def is_identifier(self) -> bool:
        """Whether the attribute explicitly identifies an individual."""
        return self.role is AttributeRole.IDENTIFIER

    @property
    def is_quasi_identifier(self) -> bool:
        """Whether the attribute belongs to the quasi-identifier set."""
        return self.role is AttributeRole.QUASI_IDENTIFIER

    @property
    def is_sensitive(self) -> bool:
        """Whether the attribute is sensitive (to be protected)."""
        return self.role is AttributeRole.SENSITIVE

    @property
    def is_numeric(self) -> bool:
        """Whether values of the attribute live in a numeric domain."""
        return self.kind is AttributeKind.NUMERIC


def _normalize_attribute(spec: Attribute | tuple | dict) -> Attribute:
    """Coerce user-supplied attribute specifications into :class:`Attribute`."""
    if isinstance(spec, Attribute):
        return spec
    if isinstance(spec, dict):
        return Attribute(
            name=spec["name"],
            role=AttributeRole(spec.get("role", "quasi_identifier")),
            kind=AttributeKind(spec.get("kind", "numeric")),
            description=spec.get("description", ""),
        )
    if isinstance(spec, tuple):
        if len(spec) == 2:
            name, role = spec
            return Attribute(name=name, role=AttributeRole(role))
        if len(spec) == 3:
            name, role, kind = spec
            return Attribute(name=name, role=AttributeRole(role), kind=AttributeKind(kind))
    raise SchemaError(f"cannot interpret attribute specification: {spec!r}")


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Attribute` declarations.

    The schema is immutable; derived schemas are produced by the ``project``,
    ``drop`` and ``release_schema`` methods, mirroring how the anonymizers
    derive release schemas from the private schema.

    Examples
    --------
    >>> schema = Schema([
    ...     Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
    ...     Attribute("invst_vol", AttributeRole.QUASI_IDENTIFIER),
    ...     Attribute("income", AttributeRole.SENSITIVE),
    ... ])
    >>> schema.quasi_identifiers
    ('invst_vol',)
    >>> schema.sensitive_attribute
    'income'
    """

    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __init__(self, attributes: Iterable[Attribute | tuple | dict]) -> None:
        attrs = tuple(_normalize_attribute(a) for a in attributes)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names in schema: {dupes}")
        object.__setattr__(self, "attributes", attrs)

    # Basic container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: object) -> bool:
        return any(a.name == name for a in self.attributes)

    def __getitem__(self, name: str) -> Attribute:
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise SchemaError(f"unknown attribute: {name!r}")

    # Role-based views ---------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """All attribute names, in schema order."""
        return tuple(a.name for a in self.attributes)

    @property
    def identifiers(self) -> tuple[str, ...]:
        """Names of identifier attributes."""
        return tuple(a.name for a in self.attributes if a.is_identifier)

    @property
    def quasi_identifiers(self) -> tuple[str, ...]:
        """Names of quasi-identifier attributes."""
        return tuple(a.name for a in self.attributes if a.is_quasi_identifier)

    @property
    def sensitive_attributes(self) -> tuple[str, ...]:
        """Names of sensitive attributes."""
        return tuple(a.name for a in self.attributes if a.is_sensitive)

    @property
    def sensitive_attribute(self) -> str:
        """The single sensitive attribute.

        The paper's formulation estimates one sensitive column (personal
        income / salary); this accessor enforces that cardinality and raises
        :class:`~repro.exceptions.SchemaError` otherwise.
        """
        sensitive = self.sensitive_attributes
        if len(sensitive) != 1:
            raise SchemaError(
                f"expected exactly one sensitive attribute, found {len(sensitive)}: {sensitive}"
            )
        return sensitive[0]

    @property
    def numeric_quasi_identifiers(self) -> tuple[str, ...]:
        """Quasi-identifiers with a numeric domain (the MDAV-able columns)."""
        return tuple(
            a.name for a in self.attributes if a.is_quasi_identifier and a.is_numeric
        )

    # Derivations --------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a schema restricted to ``names``, preserving their order."""
        missing = [n for n in names if n not in self]
        if missing:
            raise SchemaError(f"cannot project unknown attributes: {missing}")
        return Schema([self[n] for n in names])

    def drop(self, names: Sequence[str]) -> "Schema":
        """Return a schema without the attributes in ``names``."""
        missing = [n for n in names if n not in self]
        if missing:
            raise SchemaError(f"cannot drop unknown attributes: {missing}")
        keep = [a for a in self.attributes if a.name not in set(names)]
        return Schema(keep)

    def release_schema(self, keep_sensitive: bool = False) -> "Schema":
        """Schema of an enterprise release.

        The enterprise release keeps identifiers and quasi-identifiers; the
        sensitive column is dropped unless ``keep_sensitive`` is set (useful
        for constructing ground-truth tables in experiments).
        """
        if keep_sensitive:
            return self
        return self.drop(list(self.sensitive_attributes))
