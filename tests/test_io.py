"""Persistence format contracts: headers, precision, line endings."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from chemowave import io as cw_io
from chemowave.fields import Field, Grid


def test_fmt_fifteen_significant_digits():
    assert cw_io.fmt(1.0 / 3.0) == "0.333333333333333"
    assert cw_io.fmt(2.0) == "2"
    assert cw_io.fmt(math.nan) == "nan"
    assert cw_io.fmt(12) == "12"


def test_field_csv_roundtrip(tmp_path):
    g = Grid.from_bounds(-1.0, 1.0, 0.25)
    f = Field(g, np.linspace(0.0, 1.0, g.n))
    path = tmp_path / "field.csv"
    cw_io.write_csv(str(path), ("x", "value"), zip(f.x, f.values))
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == g.n + 1
    x, v = np.loadtxt(str(path), delimiter=",", skiprows=1, unpack=True)
    assert np.abs(x - g.x).max() < 1e-14
    assert np.abs(v - f.values).max() < 1e-14


EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf,
                               -math.inf, 5e-324, -5e-324, 2.2250738585072e-308,
                               1.7976931348623157e308])
FLOATS = st.one_of(EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True,
                                         allow_subnormal=True))


@settings(max_examples=200)
@given(columns=st.integers(1, 4), values=st.lists(FLOATS, max_size=40),
       as_numpy=st.booleans())
def test_float_rows_format_byte_for_byte_as_fmt(columns, values, as_numpy):
    values = values[:len(values) // columns * columns]
    if as_numpy:
        values = list(np.array(values, dtype=float))
    rows = [tuple(values[i:i + columns]) for i in range(0, len(values), columns)]
    header = tuple(f"c{j}" for j in range(columns))
    expected = "".join(",".join(cw_io.fmt(v) for v in row) + "\n"
                       for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        cw_io.write_csv(str(path), header, iter(rows))
        assert path.read_bytes() == (",".join(header) + "\n"
                                     + expected).encode()


def test_mixed_rows_keep_per_value_format(tmp_path):
    path = tmp_path / "mixed.csv"
    cw_io.write_csv(str(path), ("a", "b", "c"),
                    [(1, 0.5, "x"), (math.nan, -0.0, 2.0), (3.0, 4.0)])
    assert path.read_text() == "a,b,c\n1,0.5,x\nnan,-0,2\n3,4\n"


def test_manifest_contains_version(tmp_path):
    cw_io.write_manifest(str(tmp_path), {"chi": 0.0}, {"note": "x"})
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["artifact"] == "chemowave"
    assert payload["config"]["chi"] == 0.0
    assert payload["version"]
    assert payload["note"] == "x"


def test_read_config_comments_and_errors(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# header\nchi = -1  # inline\n\nm=2\n")
    assert cw_io.read_config_file(str(p)) == {"chi": "-1", "m": "2"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("justakey\n")
    try:
        cw_io.read_config_file(str(bad))
    except Exception as exc:
        assert "key=value" in str(exc)
    else:
        raise AssertionError("expected parse error")
