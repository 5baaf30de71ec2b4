"""Generator-file reading and writing."""

import pytest

from idealdec.domains import QQ, PrimeField
from idealdec.files import (
    FileFormatError,
    generator_lines,
    parse_generator_lines,
    read_generators,
    write_generators,
)
from idealdec.ideals import Ideal
from idealdec.rings import PolyRing


def test_round_trip(tmp_path, rxyz):
    polys = [rxyz.parse(t) for t in ("x*y - z", "x^2 + 1")]
    path = tmp_path / "io.gens"
    write_generators(path, rxyz, polys, comments=("demo",))
    ring, back, _ = read_generators(path)
    assert ring == rxyz
    assert back == polys
    text = path.read_text()
    assert text.startswith("# demo\nring Q[x,y,z]\n")
    assert text.endswith("\n")


def test_comments_and_blank_lines_anywhere(tmp_path):
    path = tmp_path / "c.gens"
    path.write_text(
        "# leading comment\n"
        "\n"
        "ring Q[x,y]\n"
        "   # indented comment\n"
        "x + y\n"
        "\n"
        "x - y  # trailing comment\n"
    )
    ring, polys, _ = read_generators(path)
    assert [str(p) for p in polys] == ["x + y", "x - y"]


def test_prime_field_header_round_trip(tmp_path):
    ring = PolyRing(("a", "b"), PrimeField(7))
    polys = [ring.parse("a^2 + 6*b")]
    path = tmp_path / "gf.gens"
    write_generators(path, ring, polys)
    back_ring, back, _ = read_generators(path)
    assert back_ring == ring
    assert back == polys


def test_range_compressed_header(tmp_path):
    names = tuple(f"x{i}" for i in range(1, 13))
    ring = PolyRing(names, QQ)
    path = tmp_path / "r.gens"
    write_generators(path, ring, [ring.parse("x1*x12")])
    assert "ring Q[x1..x12]" in path.read_text()
    assert read_generators(path)[0] == ring


def test_error_lines_are_numbered(tmp_path):
    path = tmp_path / "bad.gens"
    path.write_text("# c\nring Q[x,y]\nx + y\nx +* y\n")
    with pytest.raises(FileFormatError) as err:
        read_generators(path)
    assert str(err.value).startswith("line 4:")


def test_bad_header_is_numbered(tmp_path):
    path = tmp_path / "bad.gens"
    path.write_text("ring Q[x,x]\n")
    with pytest.raises(FileFormatError) as err:
        read_generators(path)
    assert str(err.value).startswith("line 1:")


def test_missing_header(tmp_path):
    path = tmp_path / "empty.gens"
    path.write_text("# only comments\n\n")
    with pytest.raises(FileFormatError) as err:
        read_generators(path)
    assert "no ring header" in str(err.value)


def test_read_ideal(tmp_path):
    path = tmp_path / "i.gens"
    path.write_text("ring Q[x,y]\nx*y\nx^2\n")
    I = Ideal(*read_generators(path)[:2])
    assert [str(g) for g in I.generators] == ["x*y", "x^2"]


def test_generator_lines_shape(rxy):
    lines = generator_lines(rxy, [rxy.parse("x")], comments=("a", "b"))
    assert lines == ["# a", "# b", "ring Q[x,y]", "x"]


def test_parse_generator_lines_standalone():
    ring, polys = parse_generator_lines(["ring Q[x]", "x - 1"])
    assert ring.names == ("x",)
    assert [str(p) for p in polys] == ["x - 1"]


def test_sha256_matches_hashlib(tmp_path):
    import hashlib

    path = tmp_path / "h.gens"
    path.write_bytes(b"ring Q[x]\nx\n")
    ring, polys, digest = read_generators(path)
    assert (ring.names, [str(p) for p in polys]) == (("x",), ["x"])
    assert digest == hashlib.sha256(b"ring Q[x]\nx\n").hexdigest()
