"""Generator files: a ring header line, then one polynomial per line.

Blank lines and ``#`` comments are allowed anywhere; everything is UTF-8
with LF line endings.  Example::

    ring Q[x,y,z]
    # twisted cubic
    y - x^2
    z - x^3
"""

from __future__ import annotations

import hashlib
import io
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .rings import (
    ParseError,
    Polynomial,
    PolyRing,
    format_poly,
    format_ring_header,
    parse_ring_header,
)


class FileFormatError(ValueError):
    pass


def _strip(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def _content_lines(lines: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """(line number from 1, stripped text) for each line that is not blank
    once its ``#`` comment is cut."""
    for lineno, raw in enumerate(lines, start=1):
        text = _strip(raw)
        if text:
            yield lineno, text


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _text_lines(path: str, data: bytes) -> io.StringIO:
    """The lines of ``data``, the bytes of the UTF-8 text file ``path``,
    with universal newlines.  Bytes that are not UTF-8 raise
    FileFormatError naming the path and the line."""
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as ex:
        before = io.StringIO(data[:ex.start].decode("utf-8"), newline=None).read()
        line = before.count("\n") + 1
        raise FileFormatError(
            f"{path}: line {line}: not UTF-8 ({ex.reason}, byte 0x{data[ex.start]:02x})"
        ) from None


def read_content_lines(path: str) -> List[Tuple[int, str]]:
    """(line number from 1, stripped text) for each line of a UTF-8 text
    file that is not blank once its ``#`` comment is cut."""
    return list(_content_lines(_text_lines(path, _read_bytes(path))))


def parse_generator_lines(lines: Iterable[str]) -> Tuple[PolyRing, List[Polynomial]]:
    ring: Optional[PolyRing] = None
    polys: List[Polynomial] = []
    for lineno, text in _content_lines(lines):
        try:
            if ring is None:
                ring = parse_ring_header(text)
            else:
                polys.append(ring.parse(text))
        except (ParseError, ValueError) as ex:
            raise FileFormatError(f"line {lineno}: {ex}") from ex
    if ring is None:
        raise FileFormatError("no ring header line found")
    return ring, polys


def read_generators(path: str) -> Tuple[PolyRing, List[Polynomial], str]:
    """The ring and generators of a generator file, and the sha256 hex
    digest of the bytes they were parsed from (the file is read once)."""
    data = _read_bytes(path)
    ring, polys = parse_generator_lines(_text_lines(path, data))
    return ring, polys, hashlib.sha256(data).hexdigest()


def generator_lines(
    ring: PolyRing, polys: Sequence[Polynomial], comments: Sequence[str] = ()
) -> List[str]:
    out = [f"# {c}" for c in comments]
    out.append(format_ring_header(ring))
    out.extend(format_poly(p) for p in polys)
    return out


def write_generators(
    path: str,
    ring: PolyRing,
    polys: Sequence[Polynomial],
    comments: Sequence[str] = (),
) -> None:
    text = "\n".join(generator_lines(ring, polys, comments)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)

