"""Substitutions over finite alphabets and their fixed-point prefixes.

The central object is the four-letter substitution

    a -> aca,  b -> d,  c -> b,  d -> c

whose unique one-sided fixed point starting with ``a`` drives everything
else in this package.  The letter at any 1-based position m of that fixed
point is determined by the dyadic valuation of m alone, which gives a
closed-form oracle (``grigorchuk_letter``) against which the iterative
generator can be checked bit for bit.

All positions in public APIs are 1-based.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

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


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of single-character symbols."""

    letters: str

    def __post_init__(self):
        if not self.letters:
            raise InvalidInputError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise InvalidInputError(f"duplicate symbols in alphabet {self.letters!r}")
        for ch in self.letters:
            # one byte per letter; so at most 95 distinct symbols, each code below 255
            if not (ch.isascii() and ch.isprintable()):
                raise InvalidInputError(f"alphabet symbol {ch!r} is not a printable ASCII character")

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise InvalidInputError(f"letter {letter!r} not in alphabet {self.letters!r}")

    @cached_property
    def _code_table(self) -> np.ndarray:
        lut = np.full(256, 255, dtype=np.uint8)
        lut[np.frombuffer(self.letters.encode(), dtype=np.uint8)] = np.arange(len(self.letters))
        return lut

    def encode(self, text: str) -> np.ndarray:
        """uint8 codes of ``text``: codes[i] is the alphabet index of text[i]."""
        # a letter outside ASCII encodes to bytes >= 0x80, none of them a symbol
        codes = self._code_table[np.frombuffer(text.encode(), dtype=np.uint8)]
        if codes.size and codes.max() >= len(self.letters):
            extra = sorted(set(text) - set(self.letters))
            raise InvalidInputError(f"letters {extra} not in alphabet {self.letters!r}")
        return codes

    def decode(self, codes: np.ndarray) -> str:
        """The letters of ``codes``, which must be indices into this alphabet."""
        return np.frombuffer(self.letters.encode(), dtype=np.uint8)[codes].tobytes().decode()


@dataclass(frozen=True, eq=False)
class SymbolicPrefix:
    """Finite prefix of a one-sided infinite sequence, positions 1..L.

    Stored only as ``codes``, a read-only uint8 array: codes[i] is the alphabet
    index at position i+1.  They are checked once, here; a shift is a view.
    ``parse_prefix`` builds a prefix from letters, and ``text`` decodes them.
    """

    alphabet: Alphabet
    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.dtype != np.uint8 or codes.ndim != 1 or not codes.size:
            raise InvalidInputError(f"codes must be nonempty 1-d uint8, got {codes.dtype} {codes.shape}")
        if codes.max() >= len(self.alphabet):
            raise InvalidInputError(f"code {codes.max()} outside the alphabet {self.alphabet.letters!r}")
        view = codes.view()
        view.flags.writeable = False
        object.__setattr__(self, "codes", view)

    def __len__(self) -> int:
        return len(self.codes)

    def at(self, position: int) -> str:
        """Letter at 1-based position."""
        if position < 1 or position > len(self.codes):
            raise InvalidInputError(f"position {position} outside 1..{len(self.codes)}")
        return self.alphabet.letters[self.codes[position - 1]]

    @property
    def text(self) -> str:
        """The letters, decoded from ``codes`` on each read: for output, not for lookups."""
        return self.alphabet.decode(self.codes)

    def shifted(self, n: int) -> "SymbolicPrefix":
        """Prefix of the n-fold shift (drop the first n letters): a view, nothing copied or re-checked."""
        if n < 0 or n >= len(self.codes):
            raise InvalidInputError(f"shift {n} outside 0..{len(self.codes) - 1}")
        view = object.__new__(SymbolicPrefix)
        object.__setattr__(view, "alphabet", self.alphabet)
        object.__setattr__(view, "codes", self.codes[n:])
        return view


@dataclass(frozen=True)
class Substitution:
    """Total map letter -> nonempty word, extended to words homomorphically."""

    alphabet: Alphabet
    rules: Mapping[str, str] = field(hash=False)

    def __post_init__(self):
        for letter in self.alphabet.letters:
            if letter not in self.rules:
                raise InvalidInputError(f"no rule for letter {letter!r}")
        for letter, word in self.rules.items():
            if letter not in self.alphabet:
                raise InvalidInputError(f"rule for {letter!r} outside alphabet")
            if not word:
                raise InvalidInputError(f"rule for {letter!r} is erasing; rules must be nonempty")
            for ch in word:
                if ch not in self.alphabet:
                    raise InvalidInputError(f"rule {letter!r} -> {word!r} uses letter {ch!r} outside alphabet")

    def _code_rules(self, letters: str):
        """Code rules of ``letters``: see ``_pack``."""
        return _pack({self.alphabet.index(ch): self.alphabet.encode(self.rules[ch]) for ch in letters})

    def _reachable(self, seed: str) -> str:
        """Letters that occur in sub^n(seed) for some n >= 0."""
        seen = [seed]
        for letter in seen:
            seen.extend(ch for ch in dict.fromkeys(self.rules[letter]) if ch not in seen)
        return "".join(seen)


def _pack(images):
    """Code rules from {letter code: image codes}.

    (image length, offset into the image codes) per letter code, 0 for a
    letter without a rule, and the concatenated image codes.
    """
    lengths = np.zeros(256, dtype=np.int64)
    offsets = np.zeros(256, dtype=np.int64)
    start = 0
    for c, image in images.items():
        lengths[c] = len(image)
        offsets[c] = start
        start += len(image)
    return lengths, offsets, np.concatenate(list(images.values()))


def validate_prolongable(sub: Substitution, seed: str) -> bool:
    """True iff sub(seed) starts with seed and has at least two letters."""
    if seed not in sub.alphabet:
        raise InvalidInputError(f"seed {seed!r} not in alphabet {sub.alphabet.letters!r}")
    word = sub.rules[seed]
    return len(word) >= 2 and word[0] == seed


# Letters read and written per numpy pass: bounds the index temporaries to a
# fixed size, whatever the requested length.
_CHUNK = 1 << 14


def _check_cap(length: int) -> None:
    cap = sequence_byte_cap()
    if length > cap:
        raise ResourceLimitError(
            f"requested length {length} exceeds the cap of {cap} bytes", required_bytes=length
        )


def _image(rules, src: np.ndarray, dst: np.ndarray, skip: int):
    """Write the image of src, less its first ``skip`` letters, into dst, cut at len(dst).

    Returns (letters written, letters of src whose image is now complete,
    letters of the next one's image already written).  ``src`` and ``dst``
    hold letter codes and must not overlap.
    """
    lengths, offsets, flat = rules
    n = lengths[src]
    ends = np.cumsum(n) - skip
    total = min(int(ends[-1]), len(dst))
    k = int(np.searchsorted(ends, total)) + 1  # the images of src[:k] reach dst[:total]
    starts = ends[:k] - n[:k]
    # letter j of the output lies in the image of src[i], which starts at
    # starts[i], and reads flat[offsets[src[i]] + j - starts[i]]
    index = np.repeat(offsets[src[:k]] - starts, np.minimum(ends[:k], total) - np.maximum(starts, 0))
    index += np.arange(total)
    dst[:total] = flat[index]
    if ends[k - 1] == total:
        return total, k, 0
    return total, k - 1, total - int(starts[k - 1])


def _expand(rules, buf: np.ndarray, read: int, written: int, stop: int) -> int:
    """Write the image of buf[read:stop] into buf[written:] until one runs out; return the end.

    A pass reads at most _CHUNK letters, all before ``written``, and writes
    at most _CHUNK, so a source letter may be one an earlier pass wrote, as
    when a fixed point expands its own letters.
    """
    skip = 0
    while written < len(buf) and read < stop:
        src = buf[read : min(read + _CHUNK, written, stop)]
        total, done, skip = _image(rules, src, buf[written : written + _CHUNK], skip)
        written += total
        read += done
    return written


def _squared(rules, cut: int):
    """Code rules of the substitution applied twice, each image cut at ``cut`` letters.

    The cut is exact for the first ``cut`` letters: every letter has a
    nonempty image, so the image of a word cut at ``cut`` letters still
    has at least ``cut`` letters.  Returns None, having built nothing, if
    the images would hold more than ``cut`` letters in all.
    """
    lengths, offsets, flat = rules
    old = {int(c): flat[offsets[c] : offsets[c] + lengths[c]] for c in np.flatnonzero(lengths)}
    sizes = {c: min(cut, int(lengths[rule].sum())) for c, rule in old.items()}
    if sum(sizes.values()) > cut:
        return None
    images = {}
    for c, rule in old.items():
        buf = np.empty(len(rule) + sizes[c], dtype=np.uint8)
        buf[: len(rule)] = rule
        _expand(rules, buf, 0, len(rule), len(rule))
        images[c] = buf[len(rule) :]
    return _pack(images)


def fixed_point_prefix(sub: Substitution, seed: str, length: int) -> SymbolicPrefix:
    """First ``length`` letters of the substitution-invariant sequence grown from ``seed``.

    The fixed point x satisfies x = sub(x), so the image of the letters
    already written continues the array: one ``length``-byte code array is filled
    by expanding its own letters, a bounded chunk at a time.  x is also the
    fixed point of sub^(2^j), and the rules of the letters the seed reaches
    are squared until the seed's image fills a chunk, so that a pass reads
    a full chunk however slowly the images grow (a -> ab, b -> b adds one
    letter per step).  Squaring stops early if the images would hold more
    than ``length`` letters in all; a rule that long makes the sequence
    grow fast anyway.  Peak memory is a few bytes per letter, and the cap
    is checked before anything is allocated.
    """
    if length < 1:
        raise InvalidInputError(f"length must be positive, got {length}")
    if not validate_prolongable(sub, seed):
        raise InvalidInputError(
            f"seed {seed!r} is not prolongable: rule must start with the seed and have length >= 2"
        )
    _check_cap(length)
    # only letters the seed reaches occur in the fixed point
    rules = sub._code_rules(sub._reachable(seed))
    s = sub.alphabet.index(seed)
    while rules[0][s] < min(length, _CHUNK):
        squared = _squared(rules, length)
        if squared is None:
            break
        rules = squared
    lengths, offsets, flat = rules
    out = np.empty(length, dtype=np.uint8)
    head = min(length, int(lengths[s]))
    out[:head] = flat[offsets[s] : offsets[s] + head]
    # out[:head] is the image of out[:1]; the image of out[1:] continues it
    _expand(rules, out, 1, head, length)
    return SymbolicPrefix(sub.alphabet, out)


def dyadic_valuation(m: int) -> int:
    """Largest k such that 2**k divides m."""
    if m < 1:
        raise InvalidInputError(f"dyadic valuation requires m >= 1, got {m}")
    return (m & -m).bit_length() - 1


# ---------------------------------------------------------------------------
# The Grigorchuk substitution and its closed-form letter oracle.

GRIGORCHUK_ALPHABET = Alphabet("abcd")

_GRIGORCHUK_RULES = {"a": "aca", "b": "d", "c": "b", "d": "c"}

_GRIGORCHUK_SUB = Substitution(GRIGORCHUK_ALPHABET, _GRIGORCHUK_RULES)

# valuation residue mod 3 (for valuation > 0) -> letter
_VALUATION_LETTER = {0: "d", 1: "c", 2: "b"}


def grigorchuk_substitution() -> Substitution:
    return _GRIGORCHUK_SUB


def grigorchuk_letter(m: int) -> str:
    """Letter at position m of the fixed point, from the valuation of m alone."""
    k = dyadic_valuation(m)
    if k == 0:
        return "a"
    return _VALUATION_LETTER[k % 3]


def grigorchuk_codes(length: int) -> np.ndarray:
    """Vectorized closed-form oracle: codes for positions 1..length.

    The positions 2^v * odd share the letter of valuation v, so one strided
    write per valuation fills the array and nothing but the result is
    allocated.  The length counts against the sequence cap.
    """
    if length < 1:
        raise InvalidInputError(f"length must be positive, got {length}")
    _check_cap(length)
    codes = np.empty(length, dtype=np.uint8)
    for v in range(length.bit_length()):
        codes[(1 << v) - 1 :: 2 << v] = GRIGORCHUK_ALPHABET.index(grigorchuk_letter(1 << v))
    return codes


@lru_cache(maxsize=4)
def grigorchuk_prefix(length: int) -> SymbolicPrefix:
    """Cached prefix of the Grigorchuk fixed point."""
    return fixed_point_prefix(_GRIGORCHUK_SUB, "a", length)


# ---------------------------------------------------------------------------
# The exact invariant measure, by desubstitution.  Inside this section a
# letter set is a bitmask byte, with a, b, c, d as bits 0..3.

_BIT = {letter: 1 << i for i, letter in enumerate("abcd")}
_NEXT = {"a": "c", "c": "b", "b": "d", "d": "c"}  # x_2m = next(x_m)
# the letters whose next lies in the set
_PULLBACK = bytes(
    sum(_BIT[letter] for letter in "abcd" if s & _BIT[_NEXT[letter]])
    for s in range(256)
)
_HOLDING_A = bytes(range(1, 256, 2))
# 14 times the measure of a set: a, b, c, d weigh 1/2, 1/7, 2/7, 1/14
_WEIGHT = [
    sum(w for letter, w in zip("abcd", (7, 2, 4, 1)) if s & _BIT[letter])
    for s in range(16)
]


def _mass(sets: bytes, depth: int) -> int:
    """14 * 2^depth times the measure of ``sets``, for 1 <= len(sets) <= 2^depth.

    An odd position holds a and the letter at 2m is next(letter at m): the
    fixed point read back through the substitution (Queffelec, LNM 1294;
    Mosse 1992).  So mu[W] is half the sum over the parity of the start of
    mu[W']: the sets at odd positions must all hold a, and W' is the sets
    at even positions pulled back through next, half as long.
    """
    if 0 in sets:
        return 0
    if len(sets) == 1:
        return _WEIGHT[sets[0]] << depth
    return sum(
        _mass(other.translate(_PULLBACK), depth - 1)
        for odd, other in ((sets[0::2], sets[1::2]), (sets[1::2], sets[0::2]))
        if not odd.translate(None, _HOLDING_A)
    )


def codes_measure(alphabet: Alphabet, codes: np.ndarray, first: str | None = None) -> Fraction:
    """Exact invariant measure of the word that ``codes`` spell over ``alphabet``.

    ``first``, a letter of 'abcd', is put before the word.  A symbol outside
    'abcd' has measure 0.  The word is halved at each of its log2 |word|
    levels, with no cap on the length.
    """
    bits = np.array([_BIT.get(letter, 0) for letter in alphabet.letters], dtype=np.uint8)
    sets = bits[codes].tobytes()
    if first is not None:
        sets = bytes([_BIT[first]]) + sets
    if not sets:
        raise InvalidInputError("cylinder word must be nonempty")
    depth = len(sets).bit_length()
    return Fraction(_mass(sets, depth), 14 << depth)


def invariant_measure_cylinder(word: str) -> Fraction:
    """Exact invariant measure of the cylinder [word] at the sequence start.

    The subshift is minimal and uniquely ergodic, so the measure is positive
    exactly when ``word`` is a factor of the fixed point: this is the
    package's language test.
    """
    return codes_measure(GRIGORCHUK_ALPHABET, GRIGORCHUK_ALPHABET.encode(word))


# ---------------------------------------------------------------------------
# Text formats.  Prefixes: one line of letters.  Substitutions: one rule per
# line, "x -> word", with '#' comments.


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
    return Substitution(Alphabet("".join(rules)), rules)


def format_substitution(sub: Substitution) -> str:
    return "\n".join(f"{ch} -> {sub.rules[ch]}" for ch in sub.alphabet.letters) + "\n"


def load_substitution(path) -> Substitution:
    with open(path, "r", encoding="ascii") as fh:
        return parse_substitution(fh.read())


def parse_prefix(source: str, alphabet: Alphabet) -> SymbolicPrefix:
    """Prefix of the letters of ``source`` less surrounding whitespace: the one way in from text.

    A letter outside ``alphabet`` is an InvalidInputError."""
    return SymbolicPrefix(alphabet, alphabet.encode(source.strip()))


def load_prefix(path, alphabet: Alphabet) -> SymbolicPrefix:
    with open(path, "r", encoding="ascii") as fh:
        return parse_prefix(fh.read(), alphabet)


def save_prefix(prefix: SymbolicPrefix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(prefix.text + "\n")
