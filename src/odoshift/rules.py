"""The fixed point of any prolongable substitution, grown from its rules, and the rules' text format.

The Grigorchuk fixed point comes from its closed form; only a substitution
read from text, as ``--seed-file`` reads one, grows its fixed point here.
It is grown as letters, one byte each: an image is the bytes of its word,
indexed by its letter's byte, so the rules need no alphabet of their own.
``substitution.fixed_point_prefix`` imports this module when it grows one,
and reads the letters into codes over 'abcd', so a command without
``--seed-file`` does not compile it.

Rules are text of one rule per line, "x -> word", with '#' comments.
"""

from __future__ import annotations

from itertools import accumulate, takewhile

from .errors import InvalidInputError, ResourceLimitError
from .substitution import _CHUNK, Substitution, read_text, sequence_byte_cap


def _code_rules(sub: Substitution, letters: str) -> list:
    """The images of ``letters`` as bytes, indexed by letter byte; b"" for any other byte."""
    images = [b""] * 256
    for ch in letters:
        images[ord(ch)] = sub.rules[ch].encode("ascii")
    return images


def _reachable(sub: Substitution, seed: str) -> str:
    """Letters that occur in sub^n(seed) for some n >= 0."""
    seen = [seed]
    for letter in seen:
        seen.extend(ch for ch in dict.fromkeys(sub.rules[letter]) if ch not in seen)
    return "".join(seen)


def _expand(images: list, view: memoryview, read: int, written: int, stop: int) -> int:
    """Write the images of view[read:stop] into view[written:] until one runs out; return the end.

    A pass reads at most _CHUNK letters, all before ``written``, so a source
    letter may be one an earlier pass wrote, as when a fixed point expands
    its own letters.  It joins the images of the source letters that fit in
    _CHUNK letters, or takes one longer image alone, and cuts the result
    where the view fills; one-letter images are one translate.
    """
    lengths = list(map(len, images))
    singles = bytes(image[0] if len(image) == 1 else 0 for image in images).ljust(256, b"\0")
    end = len(view)
    while written < end and read < stop:
        bound = min(end - written, _CHUNK)
        # every image has a letter, so no more than ``bound`` source letters fit
        src = view[read : min(read + bound, written, stop)].tobytes()
        total = sum(src.count(c) * n for c, n in enumerate(lengths) if n)
        if total == len(src):
            piece = src.translate(singles)
        else:
            if total > bound:
                ends = accumulate(map(lengths.__getitem__, src))
                src = src[: max(1, len(list(takewhile(bound.__ge__, ends))))]
            piece = memoryview(b"".join(map(images.__getitem__, src)))[: end - written]
        view[written : written + len(piece)] = piece
        written += len(piece)
        read += len(src)
    return written


def _squared(images: list, cut: int):
    """Images of the substitution applied twice, each cut at ``cut`` letters; b"" where there is no image.

    The cut is exact for the first ``cut`` letters: every letter has a
    nonempty image, so the image of a word cut at ``cut`` letters still
    has at least ``cut`` letters.  Returns None, having built nothing, if
    the images would hold more than ``cut`` letters in all.
    """
    lengths = list(map(len, images))
    sizes = [min(cut, sum(map(lengths.__getitem__, image))) for image in images]
    if sum(sizes) > cut:
        return None
    squared = []
    for image, size in zip(images, sizes):
        if not image:
            squared.append(image)
            continue
        buf = memoryview(bytearray(image) + bytes(size))
        _expand(images, buf, 0, len(image), len(image))
        squared.append(buf[len(image) :].tobytes())
    return squared


def _grow(sub: Substitution, seed: str, length: int) -> bytearray:
    """The letters of ``fixed_point_prefix``, one byte each, in a new buffer.

    The fixed point x satisfies x = sub(x), so the image of the letters
    already written continues the sequence: one ``length``-byte buffer is
    filled by expanding its own letters, a bounded pass at a time.  x is
    also the fixed point of sub^(2^j): the rules of the letters the seed
    reaches are squared until the seed's image fills a pass, however slowly
    they grow (a -> ab, b -> b adds one letter per step), or until the
    images would hold more than ``length`` letters in all; a rule that long
    makes the sequence grow fast anyway.  Peak memory is a few bytes per
    letter.
    """
    # only letters the seed reaches occur in the fixed point
    images = _code_rules(sub, _reachable(sub, seed))
    s = ord(seed)
    while len(images[s]) < min(length, _CHUNK):
        squared = _squared(images, length)
        if squared is None:
            break
        images = squared
    out = bytearray(length)
    head = images[s][:length]
    out[: len(head)] = head
    # out[:head] is the image of out[:1]; the image of out[1:] continues it
    _expand(images, memoryview(out), 1, len(head), length)
    return out


def parse_substitution(source: str) -> Substitution:
    rules = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("->")
        if len(parts) != 2:
            raise InvalidInputError(f"line {lineno}: expected 'x -> word', got {line!r}")
        letter, word = parts[0].strip(), parts[1].strip()
        if len(letter) != 1:
            raise InvalidInputError(f"line {lineno}: rule source must be a single letter, got {letter!r}")
        if letter in rules:
            raise InvalidInputError(f"line {lineno}: duplicate rule for {letter!r}")
        rules[letter] = word
    if not rules:
        raise InvalidInputError("no rules found")
    return Substitution(rules)


def load_substitution(path) -> Substitution:
    """The rules of the file at ``path``: past the sequence cap and a line end, a ResourceLimitError."""
    cap = sequence_byte_cap()
    source = read_text(path, cap + 3)
    if len(source) > cap + 2:
        raise ResourceLimitError(f"the rules file {path} exceeds the cap of {cap} bytes")
    return parse_substitution(source)
