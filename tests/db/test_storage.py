"""Row/page codecs, heap files, indexes."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.catalog import Catalog, Column, TableSchema, d, date_to_int, int_to_date
from repro.db.storage import Database, decode_rows, encode_row, pack_pages
from repro.db.tpch.schema import TPCH_SCHEMAS
from repro.host.platform import System

SCHEMA = TableSchema(
    "things",
    [Column("id", "int"), Column("name", "str"), Column("price", "float"),
     Column("when", "date")],
    primary_key=("id",),
)


# ----------------------------------------------------------------- catalog
def test_column_type_validated():
    with pytest.raises(ValueError):
        Column("x", "varchar")


def test_duplicate_column_rejected():
    with pytest.raises(ValueError):
        TableSchema("t", [Column("a", "int"), Column("a", "str")])


def test_unknown_key_column_rejected():
    with pytest.raises(ValueError):
        TableSchema("t", [Column("a", "int")], primary_key=("b",))


def test_positions():
    assert SCHEMA.position("price") == 2
    with pytest.raises(KeyError):
        SCHEMA.position("nope")


def test_catalog_add_get():
    catalog = Catalog()
    catalog.add(SCHEMA)
    assert catalog.get("things") is SCHEMA
    assert "things" in catalog
    with pytest.raises(ValueError):
        catalog.add(SCHEMA)
    with pytest.raises(KeyError):
        catalog.get("other")


def test_date_conversion_roundtrip():
    assert int_to_date(date_to_int("1995-09-01")) == "1995-09-01"
    assert d("1970-01-01") == 0
    assert d("1970-01-02") == 1


# ------------------------------------------------------------------- codec
def test_row_roundtrip():
    row = (7, "wídget", 3.25, d("1994-06-01"))
    page = (len(row) and b"\x01\x00") + encode_row(SCHEMA, row)
    decoded = decode_rows(SCHEMA, page)
    assert decoded == [row]


def test_wrong_width_rejected():
    with pytest.raises(ValueError):
        encode_row(SCHEMA, (1, "x", 2.0))


def test_pack_pages_respects_page_size():
    rows = [(i, "name-%d" % i, float(i), i) for i in range(500)]
    blob, counts = pack_pages(SCHEMA, rows, 4096)
    assert len(blob) % 4096 == 0
    assert sum(counts) == 500
    assert all(count > 0 for count in counts)


def test_row_larger_than_page_rejected():
    big = (1, "x" * 5000, 1.0, 0)
    with pytest.raises(ValueError):
        pack_pages(SCHEMA, [big], 4096)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(-2**60, 2**60),
        st.text(max_size=50),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(0, 40000),
    ),
    max_size=30,
))
def test_property_pages_roundtrip(rows):
    blob, counts = pack_pages(SCHEMA, rows, 4096)
    out = []
    for page_no in range(len(counts)):
        out.extend(decode_rows(SCHEMA, blob[page_no * 4096:(page_no + 1) * 4096]))
    assert out == rows


# ------------------------------------------- compiled codec vs reference
# Frozen per-column reference for the row format: the compiled per-schema
# codec must produce and accept exactly these bytes.
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U16 = struct.Struct("<H")


def reference_encode_row(schema, row):
    if len(row) != schema.width:
        raise ValueError("row width")
    parts = []
    for column, value in zip(schema.columns, row):
        if column.ctype in ("int", "date"):
            parts.append(_I64.pack(int(value)))
        elif column.ctype == "float":
            parts.append(_F64.pack(float(value)))
        else:
            blob = str(value).encode("utf-8")
            if len(blob) > 0xFFFF:
                raise ValueError("string too long for row format")
            parts.append(_U16.pack(len(blob)) + blob)
    return b"".join(parts)


def reference_decode_rows(schema, page):
    if len(page) < _U16.size:
        return []
    (count,) = _U16.unpack_from(page, 0)
    offset = _U16.size
    rows = []
    for _ in range(count):
        values = []
        for column in schema.columns:
            if column.ctype in ("int", "date"):
                (value,) = _I64.unpack_from(page, offset)
                offset += _I64.size
            elif column.ctype == "float":
                (value,) = _F64.unpack_from(page, offset)
                offset += _F64.size
            else:
                (length,) = _U16.unpack_from(page, offset)
                offset += _U16.size
                value = page[offset:offset + length].decode("utf-8")
                offset += length
            values.append(value)
        rows.append(tuple(values))
    return rows


def assert_codec_matches_reference(schema, rows):
    for row in rows:
        assert encode_row(schema, row) == reference_encode_row(schema, row)
    blob, counts = pack_pages(schema, rows, 4096)
    decoded = []
    for page_no in range(len(counts)):
        page = blob[page_no * 4096:(page_no + 1) * 4096]
        got = decode_rows(schema, page)
        expected = reference_decode_rows(schema, page)
        assert got == expected
        assert ([[type(value) for value in row] for row in got]
                == [[type(value) for value in row] for row in expected])
        decoded.extend(got)
    assert len(decoded) == len(rows)


def test_codec_matches_reference_on_every_tpch_table(tpch_data):
    for name, schema in TPCH_SCHEMAS.items():
        rows = tpch_data[name]
        assert rows, name
        assert_codec_matches_reference(schema, rows)


SYNTHETIC = {
    "string_between_runs": ["int", "float", "str", "date", "int"],
    "leading_string": ["str", "int", "float"],
    "all_strings": ["str", "str", "str"],
    "all_fixed": ["int", "float", "date", "float"],
}


def _synthetic_schema(name, ctypes):
    return TableSchema(name, [Column("c%d" % i, ctype) for i, ctype in enumerate(ctypes)])


def _value(ctype, i):
    if ctype in ("int", "date"):
        return i * 7 - 3
    if ctype == "float":
        return i / 4.0
    return ["", "plain", "naïve ☃ 東京", "x" * 300][i % 4]


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_codec_matches_reference_on_synthetic_schemas(name):
    ctypes = SYNTHETIC[name]
    schema = _synthetic_schema(name, ctypes)
    rows = [tuple(_value(ctype, i + k) for k, ctype in enumerate(ctypes))
            for i in range(200)]
    assert_codec_matches_reference(schema, rows)


def test_codec_coerces_like_reference():
    schema = _synthetic_schema("coerce", ["int", "float", "str", "date", "float"])
    rows = [
        (3.9, 2, 5, "12", "2.5"),       # float in int, int in float, numeric strings
        ("-7", 1.0, 4.25, 9.0, 3),      # numeric string in int, float in date
        (True, False, None, -1.5, 10 ** 6),
    ]
    assert_codec_matches_reference(schema, rows)
    assert decode_rows(schema, _U16.pack(1) + encode_row(schema, rows[0])) == [
        (3, 2.0, "5", 12, 2.5)]


def _raised(encode, schema, row):
    with pytest.raises(Exception) as info:
        encode(schema, row)
    return type(info.value), str(info.value)


def test_codec_errors_match_reference():
    schema = _synthetic_schema("errors", ["int", "str", "float"])
    bad_rows = [
        (1, "y" * 0x10000, 1.0),     # string length past the 0xFFFF prefix
        (1.5j, "x", 1.0),            # int() rejects the type
        ("1.5", "x", 1.0),           # int() rejects the string
        (1, "x", "not a number"),    # float() rejects the string
        (2 ** 63, "x", 1.0),         # out of the 8-byte range
        (1, "x", 10 ** 400),         # too large for a double
    ]
    for row in bad_rows:
        assert _raised(encode_row, schema, row) == _raised(
            reference_encode_row, schema, row)
    assert _raised(encode_row, schema, bad_rows[0]) == (
        ValueError, "string too long for row format")
    encode_row(schema, (1, "y" * 0xFFFF, 1.0))  # the longest string that fits
    with pytest.raises(ValueError, match="errors row has 2 values, schema has 3"):
        encode_row(schema, (1, "x"))
    with pytest.raises(ValueError, match="errors row has 4 values, schema has 3"):
        encode_row(schema, (1, "x", 1.0, 2))


# ---------------------------------------------------------------- database
def make_db():
    system = System()
    db = Database(system.fs)
    rows = [(i, "item-%d" % i, i * 1.5, 1000 + i % 7) for i in range(200)]
    storage = db.load_table(SCHEMA, rows)
    return system, db, storage, rows


def test_load_table_and_read_back():
    system, db, storage, rows = make_db()
    assert storage.num_rows == 200
    out = []
    for page_no in range(storage.num_pages):
        out.extend(db.read_page_rows(storage, page_no))
    assert out == rows


def test_primary_index_built():
    _, db, storage, rows = make_db()
    assert storage.has_index("id")
    pages = storage.index_pages("id", 150)
    assert len(pages) == 1
    found = [r for r in db.read_page_rows(storage, pages[0]) if r[0] == 150]
    assert found == [rows[150]]


def test_index_missing_key_empty():
    _, _, storage, _ = make_db()
    assert storage.index_pages("id", 99999) == []


def test_index_pages_per_key():
    _, _, storage, _ = make_db()
    assert storage.index_pages_per_key("id") == 1.0


def test_reload_replaces_table():
    system, db, storage, _ = make_db()
    # Loading again must replace, not duplicate, the heap file.
    schema2 = TableSchema("things2", SCHEMA.columns, primary_key=("id",))
    db.load_table(schema2, [(1, "a", 1.0, 0)])
    assert db.table("things2").num_rows == 1


def test_unknown_table():
    _, db, _, _ = make_db()
    with pytest.raises(KeyError):
        db.table("ghosts")
