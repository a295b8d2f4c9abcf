"""Schema catalog: tables, columns, type affinities, index metadata."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError

INTEGER = "integer"
REAL = "real"
TEXT = "text"
NONE = "none"

AFFINITIES = (INTEGER, REAL, TEXT, NONE)


def affinity_of(type_name: str) -> str:
    """Derive a type affinity from a declared column type (SQLite rules).

    >>> affinity_of("BIGINT")
    'integer'
    >>> affinity_of("VARCHAR(20)")
    'text'
    >>> affinity_of("double precision")
    'real'
    >>> affinity_of("blob")
    'none'
    """
    upper = type_name.upper()
    if "INT" in upper:
        return INTEGER
    if any(tag in upper for tag in ("CHAR", "CLOB", "TEXT", "STRING")):
        return TEXT
    if any(tag in upper for tag in ("REAL", "FLOA", "DOUB", "NUMERIC", "DEC")):
        return REAL
    return NONE


@dataclass(frozen=True)
class ColumnDef:
    """One column: declared type plus the derived affinity."""

    name: str
    type_name: str
    affinity: str

    @classmethod
    def make(cls, name: str, type_name: str) -> "ColumnDef":
        return cls(name, type_name, affinity_of(type_name))


@dataclass(frozen=True)
class IndexDef:
    """Index metadata as recorded in the catalog."""

    name: str
    table: str
    columns: tuple
    kind: str = "btree"
    unique: bool = False

    def to_dict(self) -> dict:
        """JSON-serializable form for the durable catalog page."""
        return {"name": self.name, "table": self.table,
                "columns": list(self.columns), "kind": self.kind,
                "unique": self.unique}

    @classmethod
    def from_dict(cls, data: dict) -> "IndexDef":
        return cls(data["name"], data["table"], tuple(data["columns"]),
                   data.get("kind", "btree"), bool(data.get("unique", False)))


def partitioned_table_error(name: str) -> CatalogError:
    """The error refusing a partitioned table, which older versions wrote
    to the catalog page and the WAL."""
    return CatalogError(
        f"table {name!r} is partitioned; partitioned tables are no longer supported"
    )


@dataclass
class TableSchema:
    """Column layout of one table, with fast name -> position lookup.

    The name and the ordered column list are the whole schema; it
    round-trips through the durable catalog page as ``to_dict`` /
    ``from_dict``.
    """

    name: str
    columns: list[ColumnDef] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._positions = {c.name: i for i, c in enumerate(self.columns)}
        if len(self._positions) != len(self.columns):
            raise CatalogError(f"duplicate column names in table {self.name!r}")

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def position(self, column: str) -> int:
        """0-based position of ``column`` within a stored row."""
        try:
            return self._positions[column]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {column!r} "
                f"(has: {', '.join(self.column_names)})"
            ) from None

    def has_column(self, column: str) -> bool:
        return column in self._positions

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.position(name)]

    def add_column(self, coldef: ColumnDef) -> None:
        """Append a column (ALTER TABLE ADD COLUMN)."""
        if coldef.name in self._positions:
            raise CatalogError(
                f"table {self.name!r} already has column {coldef.name!r}"
            )
        self._positions[coldef.name] = len(self.columns)
        self.columns.append(coldef)

    def to_dict(self) -> dict:
        """JSON-serializable form for the durable catalog page."""
        return {
            "name": self.name,
            "columns": [[c.name, c.type_name] for c in self.columns],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableSchema":
        # files written by older versions may carry a partitioned table;
        # refuse it by name instead of failing on its missing heap pointer
        if "partition" in data:
            raise partitioned_table_error(data["name"])
        return cls(
            data["name"],
            [ColumnDef.make(name, type_name)
             for name, type_name in data["columns"]],
        )
