"""Persistence format contracts: headers, precision, line endings."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from chemowave import io as cw_io
from chemowave.fields import Field, Grid


def test_csv_fifteen_significant_digits(tmp_path):
    path = tmp_path / "digits.csv"
    cw_io.write_csv(str(path), ("a", "b"),
                    ([1.0 / 3.0, math.nan], [2.0, 12]))
    assert path.read_text() == "a,b\n0.333333333333333,2\nnan,12\n"


def test_field_csv_roundtrip(tmp_path):
    g = Grid.from_bounds(-1.0, 1.0, 0.25)
    f = Field(g, np.linspace(0.0, 1.0, g.n))
    path = tmp_path / "field.csv"
    cw_io.write_csv(str(path), ("x", "value"), (f.x, f.values))
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
def test_float_columns_format_byte_for_byte(columns, values, as_numpy):
    values = values[:len(values) // columns * columns]
    if as_numpy:
        values = list(np.array(values, dtype=float))
    rows = [values[i:i + columns] for i in range(0, len(values), columns)]
    cols = [[row[j] for row in rows] for j in range(columns)]
    header = tuple(f"c{j}" for j in range(columns))
    expected = "".join(",".join("%.15g" % v for v in row) + "\n"
                       for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cols.csv"
        cw_io.write_csv(str(path), header, iter(cols))
        assert path.read_bytes() == (",".join(header) + "\n"
                                     + expected).encode()


def test_kept_row_format_never_leaks_another_files_x(tmp_path):
    # same length, one value apart or only 0.0 against -0.0: each file
    # must carry its own first column, however the calls interleave
    x = np.linspace(-1.0, 1.0, 5)
    assert x[2] == 0.0 and not np.signbit(x[2])
    other = x.copy()
    other[3] = 0.75
    signed = x.copy()
    signed[2] = -0.0
    firsts = [x, other, x, signed, x, signed, other]
    for i, first in enumerate(firsts):
        path = tmp_path / f"f{i}.csv"
        values = np.arange(5.0) + i
        cw_io.write_csv(str(path), ("x", "u"), (first, values))
        expected = "".join("%.15g,%.15g\n" % pair
                           for pair in zip(first.tolist(), values.tolist()))
        assert path.read_text() == "x,u\n" + expected


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
