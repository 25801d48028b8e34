"""Substitutions, their fixed-point prefixes, and the one representation of a sequence.

The central object is the four-letter substitution

    a -> aca,  b -> d,  c -> b,  d -> c

whose unique one-sided fixed point starting with ``a`` drives everything
else in this package.  The letter at any 1-based position m of that fixed
point is determined by the dyadic valuation of m alone: that closed form,
``grigorchuk_codes``, generates the fixed point, and ``verification``
checks it by applying the substitution's rules once.

All positions in public APIs are 1-based.  A sequence is one byte per
letter, its code 0, 1, 2 or 3 for a, b, c or d, in a read-only
memoryview: ``encode_letters`` reads letters into codes and
``decode_codes`` writes them back.  Generation is strided writes and
translates of the standard library.  Only the partial-period functions of
``toeplitz`` and the checks of ``verification`` use numpy.

This module holds what every command runs.  The desubstitution, which
gives the measure of a word and the letters that extend a prefix, lives in
``language``, and the growth of any other substitution's fixed point from
its rules, as letters, in ``rules``: each is imported when first used, so
a command that needs neither compiles neither.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from functools import cached_property, lru_cache
from itertools import compress

from .errors import Immutable, InvalidInputError, ResourceLimitError

MAX_BYTES_ENV = "ODOSHIFT_MAX_BYTES"
DEFAULT_MAX_BYTES = 1 << 28


def sequence_byte_cap() -> int:
    """Current cap on sequence allocation (one byte per letter)."""
    raw = os.environ.get(MAX_BYTES_ENV)
    if raw is None:
        return DEFAULT_MAX_BYTES
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidInputError(f"{MAX_BYTES_ENV} must be an integer, got {raw!r}")
    if cap <= 0:
        raise InvalidInputError(f"{MAX_BYTES_ENV} must be positive, got {cap}")
    return cap


# letter byte -> code, 255 for any byte that is not a, b, c or d; and code -> letter byte
_TO_CODE = bytes("abcd".find(chr(byte)) & 255 for byte in range(256))
_TO_LETTER = b"abcd".ljust(256, b"\xff")


def encode_letters(text) -> bytes:
    """Codes of ``text``, a str or bytes of letters: byte i is 0, 1, 2 or 3 for a, b, c or d at text[i].

    Any other letter is an InvalidInputError that names it.
    """
    # a letter outside ASCII encodes to bytes >= 0x80, none of them a letter; so does a lone
    # surrogate, which is how Python reads a command-line byte that is not UTF-8
    letters = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    codes = letters.translate(_TO_CODE)
    if 255 in codes:
        raise _outside(letters)
    return codes


def _outside(letters: bytes) -> InvalidInputError:
    """The error for the letters of the UTF-8 ``letters`` that are not a, b, c or d."""
    extra = sorted(set(bytes(letters).translate(None, b"abcd").decode("utf-8", "surrogatepass")))
    return InvalidInputError(f"letters {extra} not in alphabet 'abcd'")


def decode_codes(codes) -> str:
    """The letters of the bytes-like ``codes``, each 0, 1, 2 or 3."""
    return bytes(codes).translate(_TO_LETTER).decode("ascii")


class SymbolicPrefix(Immutable):
    """Finite prefix of a one-sided infinite sequence, positions 1..L.

    Its letters are ``codes``, a read-only memoryview of bytes: codes[i] is
    0, 1, 2 or 3 for the letter a, b, c or d at position i+1.  Any
    contiguous buffer of one byte per item is accepted; it is checked once,
    here, and not copied.  A shift
    of read codes is a view, and numpy reads them by ``np.frombuffer``
    without a copy.  ``parse_prefix`` builds a prefix from letters, ``text``
    decodes them, and two prefixes are equal only if they are the same object.

    ``fixed_point_start`` is the 0-based index in the Grigorchuk fixed point
    of the first letter, when the prefix is known to be that fixed point:
    0 on what ``fixed_point_prefix`` returns for ``a`` under the Grigorchuk
    substitution, n more on its n-fold shift.  Every other prefix, parsed,
    loaded or built from codes, has None, the class's value, and stores
    nothing for it.  ``ergodic`` counts a word on a prefix with a start by
    desubstitution, reading no letters, so such a prefix stores only the
    number of its codes, and so do its shifts, until they are first read:
    then ``grigorchuk_codes`` makes exactly its own letters.

    ``left_extensions``, from one ``language._masses`` pass, and ``_bitsets``, one
    bitset per letter for ``ergodic``, are cached for as long as the prefix
    lives.  The caches rely on a prefix's letters never changing: the codes
    are read-only through the prefix, and a caller who built one over a
    writable buffer must not write to that buffer afterwards.
    """

    _fields = ("codes",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    fixed_point_start = None

    def __init__(self, codes):
        codes = memoryview(codes)
        if codes.itemsize != 1 or codes.ndim != 1 or not codes.nbytes or not codes.c_contiguous:
            raise InvalidInputError(
                f"codes must be a nonempty contiguous buffer of bytes, got {codes.format!r} {codes.shape}"
            )
        codes = codes.cast("B")
        for start in range(0, len(codes), _CHUNK):
            outside = codes[start : start + _CHUNK].tobytes().translate(None, b"\0\1\2\3")
            if outside:
                raise InvalidInputError(f"code {max(outside)} outside the alphabet 'abcd'")
        vars(self)["codes"] = codes.toreadonly()

    @property
    def codes(self) -> memoryview:
        """The codes, made by ``grigorchuk_codes`` on first read where only their number is stored."""
        codes = vars(self)["codes"]
        if isinstance(codes, int):
            codes = vars(self)["codes"] = grigorchuk_codes(codes, self.fixed_point_start)
        return codes

    def __len__(self) -> int:
        codes = vars(self)["codes"]
        return codes if isinstance(codes, int) else len(codes)

    def __repr__(self) -> str:  # reads no codes, which a lazy prefix would generate
        start = self.fixed_point_start
        return f"SymbolicPrefix(length={len(self)}, fixed_point_start={start})"

    def at(self, position: int) -> str:
        """Letter at 1-based position: on an unread fixed-point prefix from the closed form, leaving it unread."""
        if position < 1 or position > len(self):
            raise InvalidInputError(f"position {position} outside 1..{len(self)}")
        if isinstance(vars(self)["codes"], int):
            return grigorchuk_letter(self.fixed_point_start + position)
        return "abcd"[self.codes[position - 1]]

    @property
    def text(self) -> str:
        """The letters, decoded from ``codes`` on each read: for output, not for lookups."""
        return decode_codes(self.codes)

    @cached_property
    def left_extensions(self) -> frozenset:
        """The letters l of 'abcd' with mu[l + letters] > 0: none for letters outside the language."""
        from . import language  # loads with the first language test

        sets = language.letter_sets(self.codes)
        return frozenset(compress("abcd", language._masses(sets, len(sets).bit_length())))

    @cached_property
    def _bitsets(self) -> dict:
        """Letter code -> bitset of the positions holding it, filled by ``ergodic`` on first use."""
        return {}

    def shifted(self, n: int) -> "SymbolicPrefix":
        """Prefix of the n-fold shift (drop the first n letters): nothing copied, made or re-checked."""
        if n < 0 or n >= len(self):
            raise InvalidInputError(f"shift {n} outside 0..{len(self) - 1}")
        codes = vars(self)["codes"]
        codes = codes - n if isinstance(codes, int) else codes[n:]
        view = object.__new__(SymbolicPrefix)
        vars(view)["codes"] = codes
        if self.fixed_point_start is not None:
            vars(view)["fixed_point_start"] = self.fixed_point_start + n
        return view


class Substitution(Immutable):
    """Map letter -> nonempty word, extended to words homomorphically: its letters are the rules' keys.

    A letter is one printable ASCII character, so one byte.  Equal
    substitutions have equal letters and rules; the hash reads the letters
    only, since ``rules`` may be any mapping.
    """

    _fields = ("letters", "rules")
    _hash_fields = ("letters",)

    def __init__(self, rules: Mapping[str, str]):
        for letter, word in rules.items():
            if len(letter) != 1 or not (letter.isascii() and letter.isprintable()):
                raise InvalidInputError(f"rule source {letter!r} is not one printable ASCII character")
            if not word:
                raise InvalidInputError(f"rule for {letter!r} is erasing; rules must be nonempty")
            extra = set(word).difference(rules)
            if extra:
                raise InvalidInputError(f"rule {letter!r} -> {word!r} uses letter {min(extra)!r} outside alphabet")
        vars(self).update(letters="".join(rules), rules=rules)


def validate_prolongable(sub: Substitution, seed: str) -> bool:
    """True iff sub(seed) starts with seed and has at least two letters."""
    if seed not in sub.rules:
        raise InvalidInputError(f"seed {seed!r} not in alphabet {sub.letters!r}")
    word = sub.rules[seed]
    return len(word) >= 2 and word[0] == seed


# Letters read and joined per pass: bounds the temporaries to a fixed size,
# whatever the requested length.
_CHUNK = 1 << 14


def _check_cap(length: int) -> None:
    cap = sequence_byte_cap()
    if length > cap:
        raise ResourceLimitError(f"requested length {length} exceeds the cap of {cap} bytes", required_bytes=length)


def fixed_point_prefix(sub: Substitution, seed: str, length: int) -> SymbolicPrefix:
    """First ``length`` letters of the substitution-invariant sequence grown from ``seed``.

    The fixed point of ``grigorchuk_substitution()`` itself, not of equal
    rules read from text, is not grown: its letters come from the closed
    form when first read, and ``fixed_point_start`` lets counts skip them.
    Any other fixed point is grown from its rules by ``rules``, at a few
    bytes per letter, and its letters are read once into codes: a letter
    other than a, b, c or d is an InvalidInputError, as ``parse_prefix``
    raises.  The cap is checked before anything is allocated.
    """
    if length < 1:
        raise InvalidInputError(f"length must be positive, got {length}")
    if not validate_prolongable(sub, seed):
        raise InvalidInputError(f"seed {seed!r} is not prolongable: rule must start with the seed and have length >= 2")
    _check_cap(length)
    if seed == "a" and sub is _GRIGORCHUK_SUB:
        prefix = object.__new__(SymbolicPrefix)
        vars(prefix).update(codes=length, fixed_point_start=0)
        return prefix
    from . import rules  # loads with the first fixed point grown from rules read from text

    return SymbolicPrefix(encode_letters(rules._grow(sub, seed, length)))


def dyadic_valuation(m: int) -> int:
    """Largest k such that 2**k divides m."""
    if m < 1:
        raise InvalidInputError(f"dyadic valuation requires m >= 1, got {m}")
    return (m & -m).bit_length() - 1


# ---------------------------------------------------------------------------
# The Grigorchuk substitution and the closed form of its fixed point.

_GRIGORCHUK_SUB = Substitution({"a": "aca", "b": "d", "c": "b", "d": "c"})

# valuation residue mod 3 (for valuation > 0) -> letter
_VALUATION_LETTER = {0: "d", 1: "c", 2: "b"}


def grigorchuk_substitution() -> Substitution:
    return _GRIGORCHUK_SUB


def grigorchuk_letter(m: int) -> str:
    """Letter at position m of the fixed point, from the valuation of m alone."""
    k = dyadic_valuation(m)
    return _VALUATION_LETTER[k % 3] if k else "a"


def grigorchuk_codes(length: int, start: int = 0) -> memoryview:
    """The fixed point's codes at 0-based indices start .. start + length - 1, read-only: its one generator.

    Index i holds the letter of valuation v2(i + 1), so one strided write
    per valuation v >= 1, from one fill of at most ``_CHUNK`` letters,
    fills the zeroed buffer, whose zeros are already a.  The length counts
    against the sequence cap.
    """
    if length < 1:
        raise InvalidInputError(f"length must be positive, got {length}")
    if start < 0:
        raise InvalidInputError(f"start must be nonnegative, got {start}")
    _check_cap(length)
    codes = bytearray(length)
    for v in range(1, (start + length).bit_length()):
        indices = range(((1 << v) - 1 - start) % (2 << v), length, 2 << v)
        # a bytearray value is assigned without the copy a bytes value gets
        fill = bytearray(encode_letters(grigorchuk_letter(1 << v))) * min(len(indices), _CHUNK)
        for done in range(0, len(indices), _CHUNK):
            part = indices[done : done + _CHUNK]
            codes[part.start : part.stop : part.step] = fill[: len(part)]
    return memoryview(codes).toreadonly()


@lru_cache(maxsize=4)
def grigorchuk_prefix(length: int) -> SymbolicPrefix:
    """Cached prefix of the Grigorchuk fixed point."""
    return fixed_point_prefix(_GRIGORCHUK_SUB, "a", length)


# ---------------------------------------------------------------------------
# The text format of a prefix: one line of letters.


def parse_prefix(source: str) -> SymbolicPrefix:
    """Prefix of the letters of ``source`` less surrounding whitespace: the one way in from text.

    A letter other than a, b, c or d is an InvalidInputError."""
    return SymbolicPrefix(encode_letters(source.strip()))


_READ_PIECE = 1 << 16


def read_text(path, limit: int) -> str:
    """The first ``limit`` characters of the text file at ``path``, or all of them if it holds fewer.

    The file is read in pieces of ``_READ_PIECE`` characters, so what is
    allocated follows what the file holds, not ``limit``.
    """
    pieces = []
    with open(path, "r", encoding="ascii") as fh:
        while limit > 0:
            piece = fh.read(min(limit, _READ_PIECE))
            if not piece:
                break
            pieces.append(piece)
            limit -= len(piece)
    return "".join(pieces)


def load_prefix(path) -> SymbolicPrefix:
    """Prefix of the letters of the file at ``path``, read as ``parse_prefix`` reads text.

    The letters count against the sequence cap before the file is read
    whole: a file may hold the cap's letters and a line end, and at most
    cap + 3 characters are read.
    """
    cap = sequence_byte_cap()
    source = read_text(path, cap + 3)
    size, source = len(source), source.strip()  # stripped once: only the letters are held while encoded
    # past cap + 2 characters, more than a line end follows the cap's letters
    _check_cap(len(source) if size <= cap + 2 else size)
    if not source:
        raise InvalidInputError(f"the file {path} holds no letters")
    return SymbolicPrefix(encode_letters(source))


def write_prefix(prefix: SymbolicPrefix, fh) -> None:
    """Write the letters of ``prefix`` and a line end to the text file ``fh``, ``_CHUNK`` letters at a time."""
    codes = prefix.codes
    for start in range(0, len(codes), _CHUNK):
        fh.write(decode_codes(codes[start : start + _CHUNK]))
    fh.write("\n")


def save_prefix(prefix: SymbolicPrefix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        write_prefix(prefix, fh)
