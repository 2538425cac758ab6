"""Persistence format contracts: headers, precision, line endings."""

import json
import math

import numpy as np

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
