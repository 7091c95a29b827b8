"""Row/page codecs and heap table files on the device filesystem.

Row format (little-endian): per column by type —
``int``/``date`` → 8-byte signed; ``float`` → 8-byte double; ``str`` →
2-byte length + UTF-8 bytes.  Page format: 2-byte row count, then rows
back-to-back.  Rows never span pages (XtraDB-style slotted simplicity).

Indexes are in-memory maps from key value to the list of page numbers
holding matching rows — modeling a warm B-tree whose leaf lookups are
RAM-resident while the *data* page fetches pay real I/O (the dominant cost
in the paper's join analysis).
"""

from __future__ import annotations

import struct
from itertools import groupby
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.catalog import Catalog, TableSchema
from repro.fs.filesystem import FileSystem, Inode

__all__ = ["encode_row", "decode_rows", "pack_pages", "TableStorage", "Database"]

_PAGE_HEADER = struct.Struct("<H")
_LEN = struct.Struct("<H")
_FIXED = {"int": ("q", int), "date": ("q", int), "float": ("d", float)}


class _RowCodec:
    """One schema's row format, compiled once.

    Each run of consecutive fixed-width columns packs and unpacks as one
    :class:`struct.Struct`; a string column stays length-prefixed between
    the runs.  ``steps`` lists, in column order, ``(struct, start, stop,
    coercions)`` for the fixed run over columns ``start:stop`` and
    ``(None, index, index + 1, None)`` for the string column at ``index``.
    """

    __slots__ = ("steps", "unpack_steps")

    def __init__(self, schema: TableSchema):
        steps: List[Tuple[Optional[struct.Struct], int, int, Any]] = []
        start = 0
        for fixed, group in groupby(schema.columns, key=lambda c: c.ctype in _FIXED):
            columns = list(group)
            stop = start + len(columns)
            if fixed:
                codes, coercions = zip(*(_FIXED[column.ctype] for column in columns))
                steps.append((struct.Struct("<" + "".join(codes)), start, stop, coercions))
            else:
                steps.extend((None, index, index + 1, None) for index in range(start, stop))
            start = stop
        self.steps = steps
        # Decode needs only each run's unpacker and width; None is a string.
        self.unpack_steps = [None if packer is None else (packer.unpack_from, packer.size)
                             for packer, _start, _stop, _coercions in steps]


def _codec(schema: TableSchema) -> _RowCodec:
    """The schema's compiled codec, built on first use and kept on it."""
    codec = schema.__dict__.get("_row_codec")
    if codec is None:
        codec = schema.__dict__["_row_codec"] = _RowCodec(schema)
    return codec


def encode_row(schema: TableSchema, row: Sequence[Any]) -> bytes:
    """Serialize one row tuple per the schema."""
    if len(row) != schema.width:
        raise ValueError(
            "%s row has %d values, schema has %d" % (schema.name, len(row), schema.width)
        )
    parts: List[bytes] = []
    for packer, start, stop, coercions in _codec(schema).steps:
        if packer is None:
            blob = str(row[start]).encode("utf-8")
            if len(blob) > 0xFFFF:
                raise ValueError("string too long for row format")
            parts.append(_LEN.pack(len(blob)))
            parts.append(blob)
            continue
        fields = row[start:stop]
        try:
            # struct takes a value as is exactly when int()/float() would
            # not change its bytes (an int, a float, an int for a double).
            parts.append(packer.pack(*fields))
        except struct.error:
            # A value it rejects (a float in an int column, a numeric
            # string) is coerced first, raising what the coercion raises.
            parts.append(packer.pack(*[coerce(value) for coerce, value
                                       in zip(coercions, fields)]))
    return b"".join(parts)


def decode_rows(schema: TableSchema, page: bytes) -> List[Tuple[Any, ...]]:
    """Deserialize every row in a page."""
    if len(page) < _PAGE_HEADER.size:
        return []
    (count,) = _PAGE_HEADER.unpack_from(page, 0)
    steps = _codec(schema).unpack_steps
    unpack_len = _LEN.unpack_from
    offset = _PAGE_HEADER.size
    rows: List[Tuple[Any, ...]] = []
    for _ in range(count):
        values: List[Any] = []
        for step in steps:
            if step is None:
                (length,) = unpack_len(page, offset)
                offset += _LEN.size
                values.append(page[offset:offset + length].decode("utf-8"))
                offset += length
            else:
                unpack, size = step
                values += unpack(page, offset)
                offset += size
        rows.append(tuple(values))
    return rows


def pack_pages(
    schema: TableSchema, rows: Iterable[Sequence[Any]], page_size: int
) -> Tuple[bytes, List[int]]:
    """Pack rows into pages; returns (blob, rows_per_page list)."""
    pages: List[bytes] = []
    current: List[bytes] = []
    used = _PAGE_HEADER.size
    counts: List[int] = []

    def flush():
        if not current:
            return
        body = b"".join(current)
        page = _PAGE_HEADER.pack(len(current)) + body
        pages.append(page.ljust(page_size, b"\x00"))
        counts.append(len(current))

    for row in rows:
        encoded = encode_row(schema, row)
        if len(encoded) + _PAGE_HEADER.size > page_size:
            raise ValueError("row larger than a page")
        if used + len(encoded) > page_size:
            flush()
            current = []
            used = _PAGE_HEADER.size
        current.append(encoded)
        used += len(encoded)
    flush()
    return b"".join(pages), counts


class TableStorage:
    """One table's heap file plus its indexes."""

    def __init__(self, schema: TableSchema, inode: Inode, num_rows: int, page_size: int):
        self.schema = schema
        self.inode = inode
        self.num_rows = num_rows
        self.page_size = page_size
        # column name -> {key value: sorted list of page numbers}
        self.indexes: Dict[str, Dict[Any, List[int]]] = {}

    @property
    def num_pages(self) -> int:
        return self.inode.num_pages

    @property
    def path(self) -> str:
        return self.inode.path

    def build_index(self, fs: FileSystem, column: str) -> None:
        position = self.schema.position(column)
        index: Dict[Any, List[int]] = {}
        for page_no in range(self.num_pages):
            data = fs.page_content(self.inode, page_no)
            for row in decode_rows(self.schema, data):
                pages = index.setdefault(row[position], [])
                if not pages or pages[-1] != page_no:
                    pages.append(page_no)
        self.indexes[column] = index

    def index_pages(self, column: str, key: Any) -> List[int]:
        """Data pages containing rows with ``column == key`` (warm B-tree)."""
        return self.indexes[column].get(key, [])

    def has_index(self, column: str) -> bool:
        return column in self.indexes

    def index_pages_per_key(self, column: str) -> float:
        """Mean data pages per key (the optimizer's probe-cost statistic)."""
        index = self.indexes[column]
        if not index:
            return 1.0
        return sum(len(pages) for pages in index.values()) / len(index)


class Database:
    """A catalog plus the storage of every loaded table."""

    def __init__(self, fs: FileSystem, catalog: Optional[Catalog] = None, prefix: str = "/db"):
        self.fs = fs
        self.catalog = catalog or Catalog()
        self.prefix = prefix
        self.tables: Dict[str, TableStorage] = {}

    def load_table(
        self, schema: TableSchema, rows: Sequence[Sequence[Any]],
        name: Optional[str] = None,
    ) -> TableStorage:
        """Install a table's rows as a heap file and build declared indexes.

        ``name`` overrides the *storage* name — the ``tables`` key and the
        heap-file path — while the schema keeps its logical name.  This is
        how one database holds several shard copies of the same logical
        table (``lineitem#s3``): each copy gets its own heap file and
        indexes, and the shared schema stays registered once.
        """
        if schema.name not in self.catalog:
            self.catalog.add(schema)
        storage_name = name or schema.name
        blob, _counts = pack_pages(schema, rows, self.fs.page_size)
        path = "%s/%s.tbl" % (self.prefix, storage_name)
        if self.fs.exists(path):
            self.fs.delete(path)
        inode = self.fs.install(path, blob)
        storage = TableStorage(schema, inode, len(rows), self.fs.page_size)
        self.tables[storage_name] = storage
        for key in tuple(schema.primary_key) + tuple(schema.indexes):
            storage.build_index(self.fs, key)
        return storage

    def alias_table(self, name: str, storage: TableStorage) -> None:
        """Register an existing storage under an extra name (catalog only).

        Used by the cluster layer so a logical table name binds during SQL
        compilation on nodes that store only shard copies; the alias is
        never scanned directly."""
        self.tables[name] = storage

    def table(self, name: str) -> TableStorage:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError("table %r is not loaded" % name) from None

    def read_page_rows(self, storage: TableStorage, page_no: int) -> List[Tuple[Any, ...]]:
        """Decode a page's rows from the content store (no timing)."""
        data = self.fs.page_content(storage.inode, page_no)
        return decode_rows(storage.schema, data)
