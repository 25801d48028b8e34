"""Substitutions over finite alphabets and their fixed-point prefixes.

The central object is the four-letter substitution

    a -> aca,  b -> d,  c -> b,  d -> c

whose unique one-sided fixed point starting with ``a`` drives everything
else in this package.  The letter at any 1-based position m of that fixed
point is determined by the dyadic valuation of m alone, which gives a
closed-form oracle (``grigorchuk_letter``) against which the iterative
generator can be checked bit for bit.

All positions in public APIs are 1-based.  A sequence is one byte per
letter, its alphabet index, in a read-only memoryview: generation, the
oracle and the exact measure are bytes joins, slices and translates of
the standard library.  Only the partial-period functions of ``toeplitz``
and the checks of ``verification`` use numpy.  One desubstitution pass,
``_masses``, gives the measure of a word, its class under the factor map
and the letters that extend a prefix.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from functools import cached_property, lru_cache
from itertools import accumulate, compress, takewhile

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


class Alphabet(Immutable):
    """Ordered finite set of single-character symbols."""

    _fields = ("letters",)

    def __init__(self, letters: str):
        if not letters:
            raise InvalidInputError("alphabet must be nonempty")
        if len(set(letters)) != len(letters):
            raise InvalidInputError(f"duplicate symbols in alphabet {letters!r}")
        for ch in letters:
            # one byte per letter; so at most 95 distinct symbols, each code below 255
            if not (ch.isascii() and ch.isprintable()):
                raise InvalidInputError(f"alphabet symbol {ch!r} is not a printable ASCII character")
        # translate tables letter byte -> code and code -> letter byte, 255 where there is none,
        # and code -> the letter set that ``letter_sets`` reads: a, b, c, d as bits 0..3, else empty
        to_letter = letters.encode()
        to_code = bytearray(b"\xff" * 256)
        for code, byte in enumerate(to_letter):
            to_code[byte] = code
        to_set = bytes(1 << "abcd".index(ch) if ch in "abcd" else 0 for ch in letters)
        vars(self).update(letters=letters, _to_code=bytes(to_code), _to_letter=to_letter.ljust(256, b"\xff"),
                          _to_set=to_set.ljust(256, b"\0"))

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise InvalidInputError(f"letter {letter!r} not in alphabet {self.letters!r}")

    def encode(self, text: str) -> bytes:
        """Codes of ``text``: byte i is the alphabet index of text[i]."""
        # a letter outside ASCII encodes to bytes >= 0x80, none of them a symbol
        codes = text.encode().translate(self._to_code)
        if 255 in codes:
            extra = sorted(set(text) - set(self.letters))
            raise InvalidInputError(f"letters {extra} not in alphabet {self.letters!r}")
        return codes

    def decode(self, codes) -> str:
        """The letters of the bytes-like ``codes``, which must be indices into this alphabet."""
        return bytes(codes).translate(self._to_letter).decode("ascii")


class SymbolicPrefix(Immutable):
    """Finite prefix of a one-sided infinite sequence, positions 1..L.

    Its letters are ``codes``, a read-only memoryview of bytes: codes[i] is
    the alphabet index at position i+1.  Any contiguous buffer of one byte
    per item is accepted; it is checked once, here, and not copied.  A shift
    is a view, and numpy reads the codes through ``np.frombuffer`` without a
    copy.  ``parse_prefix`` builds a prefix from letters, and ``text``
    decodes them.  Two prefixes are equal only if they are the same object.

    ``fixed_point_start`` is the 0-based index in the Grigorchuk fixed point
    of the first letter, when the prefix is known to be that fixed point:
    0 on what ``fixed_point_prefix`` grows from ``a`` under the Grigorchuk
    substitution, n more on its n-fold shift.  Every other prefix, parsed,
    loaded or built from codes, has None, the class's value, and stores
    nothing for it.  ``ergodic`` counts a word on a prefix with a start by
    desubstitution, reading no letters, so such a prefix generates its
    codes only when they are first read: until then it holds their number
    and how to make them, and its shifts make theirs by making its own.

    ``left_extensions``, from one ``_masses`` pass, and ``_bitsets``, one
    bitset per letter for ``ergodic``, are cached for as long as the prefix
    lives.  The caches rely on a prefix's letters never changing: the codes
    are read-only through the prefix, and a caller who built one over a
    writable buffer must not write to that buffer afterwards.
    """

    _fields = ("alphabet", "codes")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    fixed_point_start = None

    def __init__(self, alphabet: Alphabet, codes):
        codes = memoryview(codes)
        if codes.itemsize != 1 or codes.ndim != 1 or not codes.nbytes or not codes.c_contiguous:
            raise InvalidInputError(
                f"codes must be a nonempty contiguous buffer of bytes, got {codes.format!r} {codes.shape}"
            )
        codes = codes.cast("B")
        valid = bytes(range(len(alphabet)))
        for start in range(0, len(codes), _CHUNK):
            outside = codes[start : start + _CHUNK].tobytes().translate(None, valid)
            if outside:
                raise InvalidInputError(f"code {max(outside)} outside the alphabet {alphabet.letters!r}")
        vars(self).update(alphabet=alphabet, codes=codes.toreadonly())

    @property
    def codes(self) -> memoryview:
        """The codes, generated on first read where they are ``_Unread``."""
        codes = vars(self)["codes"]
        if isinstance(codes, _Unread):
            codes = vars(self)["codes"] = codes.read()
        return codes

    def __len__(self) -> int:
        return len(vars(self)["codes"])

    def __repr__(self) -> str:  # reads no codes, which a lazy prefix would generate
        start = self.fixed_point_start
        return f"SymbolicPrefix(alphabet={self.alphabet!r}, length={len(self)}, fixed_point_start={start})"

    def at(self, position: int) -> str:
        """Letter at 1-based position."""
        if position < 1 or position > len(self):  # checked before a lazy prefix generates its codes
            raise InvalidInputError(f"position {position} outside 1..{len(self)}")
        return self.alphabet.letters[self.codes[position - 1]]

    @property
    def text(self) -> str:
        """The letters, decoded from ``codes`` on each read: for output, not for lookups."""
        return self.alphabet.decode(self.codes)

    @cached_property
    def left_extensions(self) -> frozenset:
        """The letters l of 'abcd' with mu[l + letters] > 0: none for letters outside the language."""
        sets = letter_sets(self.alphabet, self.codes)
        return frozenset(compress("abcd", _masses(sets, len(sets).bit_length())))

    @cached_property
    def _bitsets(self) -> dict:
        """Letter code -> bitset of the positions holding it, filled by ``ergodic`` on first use."""
        return {}

    def shifted(self, n: int) -> "SymbolicPrefix":
        """Prefix of the n-fold shift (drop the first n letters): a view, nothing copied or re-checked."""
        if n < 0 or n >= len(self):
            raise InvalidInputError(f"shift {n} outside 0..{len(self) - 1}")
        codes = vars(self)["codes"]
        if isinstance(codes, _Unread):  # read through this prefix, so both share one buffer
            codes = _Unread(len(codes) - n, lambda: self.codes[n:])
        else:
            codes = codes[n:]
        view = object.__new__(SymbolicPrefix)
        vars(view).update(alphabet=self.alphabet, codes=codes)
        if self.fixed_point_start is not None:
            vars(view)["fixed_point_start"] = self.fixed_point_start + n
        return view


class _Unread:
    """Codes not generated yet: ``len`` counts them, and ``read()`` returns them."""

    def __init__(self, length: int, read):
        self.length, self.read = length, read

    def __len__(self) -> int:
        return self.length


class Substitution(Immutable):
    """Total map letter -> nonempty word, extended to words homomorphically.

    Equal substitutions have equal alphabets and rules; the hash reads the
    alphabet only, since ``rules`` may be any mapping.
    """

    _fields = ("alphabet", "rules")
    _hash_fields = ("alphabet",)

    def __init__(self, alphabet: Alphabet, rules: Mapping[str, str]):
        for letter in alphabet.letters:
            if letter not in rules:
                raise InvalidInputError(f"no rule for letter {letter!r}")
        for letter, word in rules.items():
            if letter not in alphabet:
                raise InvalidInputError(f"rule for {letter!r} outside alphabet")
            if not word:
                raise InvalidInputError(f"rule for {letter!r} is erasing; rules must be nonempty")
            for ch in word:
                if ch not in alphabet:
                    raise InvalidInputError(f"rule {letter!r} -> {word!r} uses letter {ch!r} outside alphabet")
        vars(self).update(alphabet=alphabet, rules=rules)

    def _code_rules(self, letters: str) -> list:
        """Image codes of ``letters``, indexed by letter code; b"" for a letter left out."""
        images = [b""] * len(self.alphabet)
        for ch in letters:
            images[self.alphabet.index(ch)] = self.alphabet.encode(self.rules[ch])
        return images

    def _reachable(self, seed: str) -> str:
        """Letters that occur in sub^n(seed) for some n >= 0."""
        seen = [seed]
        for letter in seen:
            seen.extend(ch for ch in dict.fromkeys(self.rules[letter]) if ch not in seen)
        return "".join(seen)


def validate_prolongable(sub: Substitution, seed: str) -> bool:
    """True iff sub(seed) starts with seed and has at least two letters."""
    if seed not in sub.alphabet:
        raise InvalidInputError(f"seed {seed!r} not in alphabet {sub.alphabet.letters!r}")
    word = sub.rules[seed]
    return len(word) >= 2 and word[0] == seed


# Letters read and joined per pass: bounds the temporaries to a fixed size,
# whatever the requested length.
_CHUNK = 1 << 14


def _check_cap(length: int) -> None:
    cap = sequence_byte_cap()
    if length > cap:
        raise ResourceLimitError(
            f"requested length {length} exceeds the cap of {cap} bytes", required_bytes=length
        )


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
    """Images of the substitution applied twice, each cut at ``cut`` letters.

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
        buf = memoryview(bytearray(image) + bytes(size))
        _expand(images, buf, 0, len(image), len(image))
        squared.append(buf[len(image) :].tobytes())
    return squared


def fixed_point_prefix(sub: Substitution, seed: str, length: int) -> SymbolicPrefix:
    """First ``length`` letters of the substitution-invariant sequence grown from ``seed``.

    The fixed point x satisfies x = sub(x), so the image of the letters
    already written continues the sequence: one ``length``-byte buffer is
    filled by expanding its own letters, a bounded pass at a time.  x is
    also the fixed point of sub^(2^j): the rules of the letters the seed
    reaches are squared until the seed's image fills a pass, however slowly
    they grow (a -> ab, b -> b adds one letter per step), or until the
    images would hold more than ``length`` letters in all; a rule that long
    makes the sequence grow fast anyway.  Peak memory is a few bytes per
    letter, and the cap is checked before anything is allocated.

    The Grigorchuk fixed point, grown from ``a``, is generated only when its
    codes are first read: its ``fixed_point_start`` lets counts and spectral
    sums skip the letters.
    """
    if length < 1:
        raise InvalidInputError(f"length must be positive, got {length}")
    if not validate_prolongable(sub, seed):
        raise InvalidInputError(
            f"seed {seed!r} is not prolongable: rule must start with the seed and have length >= 2"
        )
    _check_cap(length)
    if seed == "a" and sub == _GRIGORCHUK_SUB:
        prefix = object.__new__(SymbolicPrefix)
        codes = _Unread(length, lambda: _grow(sub, seed, length).toreadonly())
        vars(prefix).update(alphabet=sub.alphabet, codes=codes, fixed_point_start=0)
        return prefix
    return SymbolicPrefix(sub.alphabet, _grow(sub, seed, length))


def _grow(sub: Substitution, seed: str, length: int) -> memoryview:
    """The codes of ``fixed_point_prefix``, in a new buffer."""
    # only letters the seed reaches occur in the fixed point
    images = sub._code_rules(sub._reachable(seed))
    s = sub.alphabet.index(seed)
    while len(images[s]) < min(length, _CHUNK):
        squared = _squared(images, length)
        if squared is None:
            break
        images = squared
    out = memoryview(bytearray(length))
    head = images[s][:length]
    out[: len(head)] = head
    # out[:head] is the image of out[:1]; the image of out[1:] continues it
    _expand(images, out, 1, len(head), length)
    return out


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


def grigorchuk_codes(length: int) -> memoryview:
    """Closed-form oracle: codes for positions 1..length, read-only like ``SymbolicPrefix.codes``.

    The positions 2^v * odd share the letter of valuation v, so one strided
    write per valuation fills the buffer.  The length counts against the
    sequence cap.
    """
    if length < 1:
        raise InvalidInputError(f"length must be positive, got {length}")
    _check_cap(length)
    codes = bytearray(length)
    for v in range(length.bit_length()):
        positions = range((1 << v) - 1, length, 2 << v)
        code = GRIGORCHUK_ALPHABET.index(grigorchuk_letter(1 << v))
        # a bytearray value is assigned without the copy a bytes value gets
        codes[positions.start :: positions.step] = bytearray((code,)) * len(positions)
    return memoryview(codes).toreadonly()


@lru_cache(maxsize=4)
def grigorchuk_prefix(length: int) -> SymbolicPrefix:
    """Cached prefix of the Grigorchuk fixed point."""
    return fixed_point_prefix(_GRIGORCHUK_SUB, "a", length)


# ---------------------------------------------------------------------------
# The exact invariant measure, by desubstitution.  Inside this section a
# letter set is a bitmask byte, with a, b, c, d as bits 0..3.

_BIT = {letter: 1 << i for i, letter in enumerate("abcd")}
_NEXT = {"a": "c", "c": "b", "b": "d", "d": "c"}  # x_2m = next(x_m)
# Tables indexed by a set byte.  A set reads only its low four bits, so each
# table is built for the 16 sets and repeats them up to 256 entries.
# the letters whose next lies in the set
_PULLBACK = bytes(sum(_BIT[letter] for letter in "abcd" if s & _BIT[_NEXT[letter]]) for s in range(16)) * 16
_HOLDING_A = bytes(range(1, 256, 2))
# the nexts of a set's letters: on a one-letter set, the one-letter set of its next
_NEXT_SET = bytes(sum(_BIT[_NEXT[letter]] for letter in "abcd" if s & _BIT[letter]) for s in range(16)) * 16
# which of a, b, c, d a set holds, as ``compress`` selectors
_MEMBERS = [tuple(s >> i & 1 for i in range(4)) for s in range(16)] * 16


def _masses(rest: bytes, depth: int, r: int = 0, j: int = 0) -> tuple:
    """14 * 2^depth times mu[l + rest] for each letter l of 'abcd', for len(rest) < 2^depth.

    ``class_measure`` reads the mass of a word's first letter, and
    ``SymbolicPrefix.left_extensions`` which letters have mass.

    An odd position holds a and the letter at 2m is next(letter at m): the
    fixed point read back through the substitution (Queffelec, LNM 1294;
    Mosse 1992).  So mu[l + rest] is half the sum over the parity of l's
    position of mu[W']: the sets at odd positions must all hold a, and W'
    is the sets at even positions pulled back through next, half as long.
    At an odd position l is a and W' comes from rest alone; at an even one
    W' is l's pullback before the rest, so one pass serves all four letters.
    With j = 0 an empty rest has the letters' masses, and a rest of one set
    takes the step down to the empty W' inline: neither makes a call.

    With j > 0 the masses are of [l + rest] and f = r mod 2^j, f the factor
    map onto the dyadic integers, for depth >= j: bit 0 of r fixes l's
    position, odd (1-based) when clear, and W' is in class r >> 1 mod 2^(j-1).
    """
    if 0 in rest:
        return 0, 0, 0, 0
    if not j and len(rest) < 2:
        if not rest:
            return 7 << depth, 2 << depth, 4 << depth, 1 << depth
        # one set s: the step below, in closed form.  W' is empty one level down (depth >= 1, as
        # len(rest) < 2^depth), so a sums the masses 7, 2, 4, 1 over s's pullback, which holds a and d
        # if s holds c (7 + 1), c if b (4) and b if d (2).  At an even position W' is l's pullback
        # alone, so if s holds a, b, c and d take the masses of c, of a and d, and of b.
        s = rest[0]
        a = ((s & 6) * 2 + (s >> 2 & 2)) << depth - 1
        return (a, 4 << depth - 1, 8 << depth - 1, 2 << depth - 1) if s & 1 else (a, 0, 0, 0)
    if not rest:
        # W' stays empty, so a loop takes r's digits from the last one up, from the masses where they run
        # out (14 times 1/2, 1/7, 2/7, 1/14): a clear digit puts l at an odd position, where it is a, and
        # a set one at an even position, where it is the next of W''s one letter
        a, b, c, d = 7 << depth - j, 2 << depth - j, 4 << depth - j, 1 << depth - j
        for i in reversed(range(j)):
            a, b, c, d = (0, c, a + d, b) if r >> i & 1 else (a + b + c + d, 0, 0, 0)
        return a, b, c, d
    a = b = c = d = 0
    odd = even = True
    if j:
        odd, even, r, j = not r & 1, r & 1, r >> 1, j - 1
    # l at an odd position: rest[1::2] sit at odd ones, and W' is the pullback of rest[0::2]
    head = _PULLBACK[rest[0]] if rest else 15
    if odd and head and not rest[1::2].translate(None, _HOLDING_A):
        a = sum(compress(_masses(rest[2::2].translate(_PULLBACK), depth - 1, r, j), _MEMBERS[head]))
    # l at an even position: rest[0::2] sit at odd ones, and W' is the pullback of l + rest[1::2]
    if even and not rest[0::2].translate(None, _HOLDING_A):
        back_a, back_b, back_c, back_d = _masses(rest[1::2].translate(_PULLBACK), depth - 1, r, j)
        b, c, d = back_c, back_a + back_d, back_b  # next(c) = b, next(a) = next(d) = c, next(b) = d
    return a, b, c, d


def fixed_point_count(sets: bytes, n: int) -> int:
    """The starts 0 <= i < n of the fixed point (0-based) where letter i + j lies in sets[j] for every j.

    ``sets`` is a word of letter sets, read as ``_masses`` reads them.  The
    letters at even indices are all a, and the letter at 2m + 1 is next of
    the letter at m.  So a start at 2m needs sets[0::2] to hold a, and
    counts the pullback of sets[1::2] from m, over ceil(n / 2) starts; a
    start at 2m + 1 needs sets[1::2] to hold a, and counts the pullback of
    sets[0::2] from m, over floor(n / 2) starts.  A split leaves each half
    a set, and one set s is counted in closed form: the ceil(n / 2) even
    starts count if s holds a, and the odd ones count the pullback of s
    over floor(n / 2) starts.  The pullback of a set holds a exactly when
    the set holds c, and moves c to d, d to b and b to c.  So c, b and d in
    s bring a back after 1, 2 and 3 halvings of n, and every third one
    after that: one loop per letter, a turn per three bits of n.  A word
    of L sets takes at most 2L - 1 calls, and no letter is read.  A
    negative n is an InvalidInputError.
    """
    if not sets or n <= 0:
        if n < 0:
            raise InvalidInputError(f"need n >= 0 starts, got {n}")
        return n
    if 0 in sets:
        return 0
    if len(sets) == 1:
        s = sets[0]
        count = (n + 1) >> 1 if s & 1 else 0
        for letter, k in ((4, 1), (2, 2), (8, 3)):  # c, b, d
            if s & letter:
                m = n >> k
                while m:
                    count += (m + 1) >> 1
                    m >>= 3
        return count
    count = 0
    if not sets[0::2].translate(None, _HOLDING_A):
        count += fixed_point_count(sets[1::2].translate(_PULLBACK), (n + 1) // 2)
    if not sets[1::2].translate(None, _HOLDING_A):
        count += fixed_point_count(sets[0::2].translate(_PULLBACK), n // 2)
    return count


def fixed_point_residue_counts(sets: bytes, n: int, q: int) -> list:
    """counts[r]: the starts 0 <= i < n, i = r mod q, that ``fixed_point_count`` counts, for every r at once.

    The same parity split carries the class: a start 2m + e in class r puts
    m in class (r - e) / 2 mod q / 2 when q is even, where only e = r mod 2
    is possible, and in class (r - e) * 2^-1 mod q when q is odd.  So the
    two halves' counts interleave (q even) or land at 2t and 2t + 1 mod q
    (q odd).  An empty word counts every start; a word of L sets over n
    starts takes O(q (L + log n)) steps, and no letter is read.  A negative
    n is an InvalidInputError.
    """
    if not sets or n <= 0:
        if n < 0:
            raise InvalidInputError(f"need n >= 0 starts, got {n}")
        return [(n + q - 1 - r) // q for r in range(q)]
    if 0 in sets:
        return [0] * q
    half = q if q % 2 else q // 2
    even = odd = [0] * half
    if not sets[0::2].translate(None, _HOLDING_A):
        even = fixed_point_residue_counts(sets[1::2].translate(_PULLBACK), (n + 1) // 2, half)
    if not sets[1::2].translate(None, _HOLDING_A):
        odd = fixed_point_residue_counts(sets[0::2].translate(_PULLBACK), n // 2, half)
    if half < q:
        return [count for pair in zip(even, odd) for count in pair]
    inverse = (q + 1) // 2  # of 2 mod q
    return [even[r * inverse % q] + odd[(r - 1) * inverse % q] for r in range(q)]


def letter_sets(alphabet: Alphabet, codes) -> bytes:
    """The word of letter sets that ``_masses`` and ``fixed_point_count`` read for ``codes`` over ``alphabet``.

    Each letter of 'abcd' is its own set, any other symbol the empty set.
    """
    return bytes(codes).translate(alphabet._to_set)


def spells_fixed_point(alphabet: Alphabet, codes) -> bool:
    """Whether the bytes-like ``codes`` spell, over ``alphabet``, the fixed point's first len(codes) letters.

    Letter 2m (0-based) of the fixed point is a and letter 2m + 1 is next of
    letter m, so each block of ``_CHUNK`` letters from an even i is checked
    against the block of half as many from i / 2: no copy outgrows a block.
    """
    for start in range(0, len(codes), _CHUNK):
        sets = letter_sets(alphabet, codes[start : start + _CHUNK])
        half = letter_sets(alphabet, codes[start // 2 : start // 2 + len(sets) // 2])
        if sets[0::2].translate(None, b"\x01") or sets[1::2] != half.translate(_NEXT_SET):
            return False
    return True


def invariant_measure_cylinder(word: str) -> Fraction:
    """Exact invariant measure of the cylinder [word] at the sequence start: ``class_measure(word, 0, 0)``.

    The subshift is minimal and uniquely ergodic, so the measure is positive
    exactly when ``word`` is a factor of the fixed point: this is the
    package's language test.
    """
    if not word:
        raise InvalidInputError("cylinder word must be nonempty")
    return class_measure(word, 0, 0)


def class_measure(word: str, j: int, r: int) -> Fraction:
    """rho_j(word, r) = mu([word] and f = r mod 2^j), f the factor map, at j = 0 mu[word].

    It is the ``_masses`` of the word's first letter, with r's j digits fixed.
    """
    from fractions import Fraction

    sets = letter_sets(GRIGORCHUK_ALPHABET, GRIGORCHUK_ALPHABET.encode(word))
    if not sets or j < 0:
        raise InvalidInputError(f"need a nonempty word and j >= 0, got {word!r} and {j}")
    depth = max(j, len(sets).bit_length())
    return Fraction(_masses(sets[1:], depth, r, j)[sets[0].bit_length() - 1], 14 << depth)


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


def load_substitution(path) -> Substitution:
    with open(path, "r", encoding="ascii") as fh:
        return parse_substitution(fh.read())


def parse_prefix(source: str, alphabet: Alphabet) -> SymbolicPrefix:
    """Prefix of the letters of ``source`` less surrounding whitespace: the one way in from text.

    A letter outside ``alphabet`` is an InvalidInputError."""
    return SymbolicPrefix(alphabet, alphabet.encode(source.strip()))


def load_prefix(path, alphabet: Alphabet) -> SymbolicPrefix:
    """Prefix of the letters of the file at ``path``, read as ``parse_prefix`` reads text.

    The letters count against the sequence cap before the file is read
    whole: a file may hold the cap's letters and a line end, and at most
    cap + 3 characters are read.
    """
    cap = sequence_byte_cap()
    with open(path, "r", encoding="ascii") as fh:
        source = fh.read(cap + 3)
    # past cap + 2 characters, more than a line end follows the cap's letters
    _check_cap(len(source.strip()) if len(source) <= cap + 2 else len(source))
    if not source or source.isspace():
        raise InvalidInputError(f"the file {path} holds no letters")
    return parse_prefix(source, alphabet)


def save_prefix(prefix: SymbolicPrefix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(prefix.text + "\n")
