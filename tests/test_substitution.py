import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odoshift import errors
from odoshift import factormap as fm
from odoshift import language, rules
from odoshift import substitution as sub
from oracles import iterate

TAU = sub.grigorchuk_substitution()


def word(text):
    return sub.parse_prefix(text)


# each validated value type: a constructor called twice, its repr, and one of its fields
VALUES = [
    (lambda: sub.Substitution({"a": "ab", "b": "a"}), "Substitution(letters='ab', rules={'a': 'ab', 'b': 'a'})",
     "rules"),
    (lambda: fm.DyadicInt(5, 8), "DyadicInt(value=5, precision=8)", "value"),
]


class TestValueTypes:
    @pytest.mark.parametrize("make, text, field", VALUES)
    def test_equal_by_value_and_immutable(self, make, text, field):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(a) == text
        assert a != text  # only a value of the same type compares equal
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b

    @pytest.mark.parametrize("make, text, field", VALUES)
    def test_repr_and_equality_read_every_public_field(self, make, text, field):
        # a field added to __init__ but not to _fields would be missed by == and repr
        value = make()
        assert tuple(name for name in vars(value) if not name.startswith("_")) == type(value)._fields

    def test_prefixes_are_equal_only_to_themselves(self):
        p, q = word("acab"), word("acab")
        assert p == p and p != q and hash(p) != hash(q)
        with pytest.raises(AttributeError):
            p.codes = q.codes

    def test_hashes_ignore_the_mapping_fields(self):
        one, other = sub.Substitution({"a": "ab", "b": "a"}), sub.Substitution({"a": "aab", "b": "b"})
        assert one != other and hash(one) == hash(other)


class TestLetters:
    def test_encode_and_decode(self):
        codes = sub.encode_letters("dcba")
        assert codes == bytes([3, 2, 1, 0])
        assert sub.decode_codes(codes) == "dcba"
        assert sub.encode_letters("") == b""
        assert sub.encode_letters(bytearray(b"cab")) == bytes([2, 0, 1])
        for text, extra in (("ax", "['x']"), ("a\u00e9", "['\u00e9']"), ("A", "['A']"), (b"abzy", "['y', 'z']")):
            with pytest.raises(errors.InvalidInputError, match=re.escape(f"letters {extra} not in alphabet 'abcd'")):
                sub.encode_letters(text)

    def test_a_lone_surrogate_is_a_letter_outside_the_alphabet(self):
        # how Python reads a command-line byte that is not UTF-8, as in `--word $'a\xffc'`
        message = "letters ['\\udcff'] not in alphabet 'abcd'"
        for call in (lambda: sub.encode_letters("a\udcffc"), lambda: sub.parse_prefix("ab\udcff")):
            with pytest.raises(errors.InvalidInputError) as caught:
                call()
            assert str(caught.value) == message


class TestSymbolicPrefix:
    def test_positions_are_one_based(self):
        p = word("acab")
        assert p.at(1) == "a"
        assert p.at(4) == "b"
        with pytest.raises(errors.InvalidInputError):
            p.at(0)
        with pytest.raises(errors.InvalidInputError):
            p.at(5)

    def test_rejects_foreign_letters(self):
        with pytest.raises(errors.InvalidInputError):
            word("acxb")

    def test_codes_round_trip(self):
        p = word("dcba")
        assert list(p.codes) == [3, 2, 1, 0]

    def test_shifted(self):
        p = word("acab")
        assert p.shifted(0).text == "acab"
        assert p.shifted(2).text == "ab"
        with pytest.raises(errors.InvalidInputError):
            p.shifted(4)

    def test_stores_only_codes(self):
        p = word(" acab\n")
        assert set(vars(p)) == {"codes"}
        assert p.codes.format == "B" and p.codes.itemsize == 1
        assert p.text == "acab"
        with pytest.raises(errors.InvalidInputError):
            word("ac\u00e9")

    def test_shift_is_a_view(self):
        p = sub.grigorchuk_prefix(1 << 22)
        p.codes  # a shift of read codes is a view of them; an unread prefix's shift makes its own
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            q = p.shifted(12345)
            elapsed.append(time.perf_counter() - start)
        assert np.shares_memory(q.codes, p.codes)
        assert q.at(1) == p.at(12346) and len(q) == len(p) - 12345
        assert min(elapsed) < 1e-3

    def test_only_the_generated_fixed_point_knows_its_start(self, tmp_path):
        omega = sub.grigorchuk_prefix(64)
        assert omega.fixed_point_start == 0
        assert sub.fixed_point_prefix(TAU, "a", 64).fixed_point_start == 0
        assert omega.shifted(5).fixed_point_start == 5
        assert omega.shifted(5).shifted(7).fixed_point_start == 12
        assert set(vars(omega)) == {"codes", "fixed_point_start"}
        # the same letters by any other road: parsed, loaded, from codes, or grown under other rules
        path = tmp_path / "omega.txt"
        sub.save_prefix(omega, path)
        others = [
            word(omega.text),
            sub.load_prefix(path),
            sub.SymbolicPrefix(omega.codes),
            sub.fixed_point_prefix(sub.Substitution({"a": "ab", "b": "a"}), "a", 64),
        ]
        for other in others:
            assert other.fixed_point_start is None
            assert other.shifted(3).fixed_point_start is None
            assert set(vars(other)) == {"codes"}

    def test_shift_of_a_cached_prefix_is_read_only(self):
        p = sub.grigorchuk_prefix(1 << 12)
        for codes in (p.codes, p.shifted(5).codes):
            with pytest.raises(TypeError):
                codes[0] = 1
            with pytest.raises(ValueError):
                np.frombuffer(codes, dtype=np.uint8)[0] = 1
        assert p.at(6) == sub.grigorchuk_letter(6)

    def test_rejects_codes_outside_the_alphabet(self):
        for codes, message in (([0, 4], "^code 4 outside the alphabet 'abcd'$"), ([0, 255], "^code 255 outside"),
                               ([], "nonempty")):
            with pytest.raises(errors.InvalidInputError, match=message):
                sub.SymbolicPrefix(np.array(codes, dtype=np.uint8))
        with pytest.raises(errors.InvalidInputError):
            sub.SymbolicPrefix(np.array([0, 1], dtype=np.int64))
        with pytest.raises(errors.InvalidInputError):  # past the first block checked
            sub.SymbolicPrefix(bytes(sub._CHUNK) + b"\x04")
        with pytest.raises(errors.InvalidInputError):
            sub.SymbolicPrefix(np.array([3, 0, 2, 1], dtype=np.uint8)[::2])
        assert sub.SymbolicPrefix(np.array([3, 0], dtype=np.uint8)).text == "da"

    def test_accepts_any_contiguous_buffer_of_bytes(self):
        for codes in (b"\x03\x00\x02", bytearray(b"\x03\x00\x02"), np.array([3, 0, 2], dtype=np.int8)):
            p = sub.SymbolicPrefix(codes)
            assert p.text == "dac" and p.codes.format == "B" and p.codes.readonly


class TestProlongable:
    def test_seed_a(self):
        assert sub.validate_prolongable(TAU, "a") is True

    def test_seed_b_does_not_start_with_itself(self):
        assert sub.validate_prolongable(TAU, "b") is False

    def test_identity_rule_too_short(self):
        s = sub.Substitution({"x": "x"})
        assert sub.validate_prolongable(s, "x") is False

    def test_unknown_seed(self):
        with pytest.raises(errors.InvalidInputError):
            sub.validate_prolongable(TAU, "z")


class TestIterate:
    """The oracle's substitution step, applied to whole words."""

    def test_two_steps_from_a(self):
        assert iterate(TAU, "a", 2) == "acabaca"

    def test_single_letters(self):
        assert iterate(TAU, "b", 1) == "d"
        assert iterate(TAU, "c", 1) == "b"
        assert iterate(TAU, "d", 1) == "c"

    def test_zero_steps_is_identity(self):
        assert iterate(TAU, "bcd", 0) == "bcd"

    @given(
        left=st.text(alphabet="abcd", min_size=1, max_size=12),
        right=st.text(alphabet="abcd", min_size=1, max_size=12),
        steps=st.integers(min_value=0, max_value=4),
    )
    def test_homomorphism_over_splits(self, left, right, steps):
        assert iterate(TAU, left + right, steps) == iterate(TAU, left, steps) + iterate(TAU, right, steps)

    def test_bad_cap_value(self, monkeypatch):
        monkeypatch.setenv(sub.MAX_BYTES_ENV, "soon")
        with pytest.raises(errors.InvalidInputError):
            sub.fixed_point_prefix(TAU, "a", 1)
        monkeypatch.setenv(sub.MAX_BYTES_ENV, "0")
        with pytest.raises(errors.InvalidInputError):
            sub.grigorchuk_codes(1)


class TestSubstitutionRules:
    @pytest.mark.parametrize(
        "rules, message",
        [
            ({"a": "ab", "b": ""}, "rule for 'b' is erasing; rules must be nonempty"),
            ({"a": "ax"}, "rule 'a' -> 'ax' uses letter 'x' outside alphabet"),
            ({"a": "a", "": "a"}, "rule source '' is not one printable ASCII character"),
            ({"a": "a", "ab": "a"}, "rule source 'ab' is not one printable ASCII character"),
            ({"a": "a\u00e9", "\u00e9": "a"}, "rule source '\u00e9' is not one printable ASCII character"),
            ({"a": "a\t", "\t": "a"}, "rule source '\\t' is not one printable ASCII character"),
        ],
        ids=["erasing", "outside_the_alphabet", "empty_letter", "two_letters", "non_ascii", "unprintable"],
    )
    def test_each_rule_error_is_named(self, rules, message):
        with pytest.raises(errors.InvalidInputError) as exc:
            sub.Substitution(rules)
        assert str(exc.value) == message

    def test_a_source_with_no_rules(self):
        with pytest.raises(errors.InvalidInputError, match="^no rules found$"):
            rules.parse_substitution("# only a comment\n\n")


class TestFixedPointPrefix:
    @pytest.mark.parametrize("make", [lambda n: sub.fixed_point_prefix(TAU, "a", n), sub.grigorchuk_codes],
                             ids=["fixed_point_prefix", "grigorchuk_codes"])
    @pytest.mark.parametrize("length", [0, -5])
    def test_a_length_below_one_is_invalid(self, make, length):
        with pytest.raises(errors.InvalidInputError, match=f"^length must be positive, got {length}$"):
            make(length)

    def test_short_prefixes(self):
        assert sub.fixed_point_prefix(TAU, "a", 1).text == "a"
        assert sub.fixed_point_prefix(TAU, "a", 2).text == "ac"
        assert sub.fixed_point_prefix(TAU, "a", 8).text == "acabacad"
        assert sub.fixed_point_prefix(TAU, "a", 16).text == "acabacadacabacac"

    def test_non_prolongable_seed_rejected(self):
        with pytest.raises(errors.InvalidInputError):
            sub.fixed_point_prefix(TAU, "b", 8)

    def test_extension_consistency(self):
        long = sub.fixed_point_prefix(TAU, "a", 500).text
        for length in (1, 7, 100, 499):
            assert sub.fixed_point_prefix(TAU, "a", length).text == long[:length]

    def test_substitution_invariance(self):
        p = sub.fixed_point_prefix(TAU, "a", 300)
        assert iterate(TAU, p.text, 1).startswith(p.text)

    def test_length_over_cap(self, monkeypatch):
        monkeypatch.setenv(sub.MAX_BYTES_ENV, "64")
        with pytest.raises(errors.ResourceLimitError):
            sub.fixed_point_prefix(TAU, "a", 65)

    def test_the_fixed_point_is_generated_when_its_codes_are_first_read(self, monkeypatch):
        made = []
        codes = sub.grigorchuk_codes
        monkeypatch.setattr(sub, "grigorchuk_codes", lambda *args: made.append(args) or codes(*args))
        omega = sub.fixed_point_prefix(TAU, "a", 5000)
        view = omega.shifted(1000).shifted(7)
        # the length, the start and a shift's checks read no letter
        assert (len(omega), len(view), view.fixed_point_start) == (5000, 3993, 1007)
        with pytest.raises(errors.InvalidInputError, match="shift 3993 outside 0..3992"):
            view.shifted(3993)
        assert made == []
        # reading the view's codes makes its own letters once, and its parent stays unread
        assert view.text == sub.decode_codes(codes(5000)[1007:])
        assert made == [(3993, 1007)] and view.codes.readonly and vars(omega)["codes"] == 5000
        assert omega.text.startswith("acabacad") and made == [(3993, 1007), (5000, 0)]
        # a shift of read codes is a view of them, and makes nothing
        assert np.shares_memory(omega.shifted(3).codes, omega.codes) and len(made) == 2
        assert set(vars(omega)) == {"codes", "fixed_point_start"}

    def test_a_far_shift_makes_only_its_own_letters(self):
        # the last 64 of 2^26 letters, made without the 64 MiB of the letters before them
        omega = sub.fixed_point_prefix(TAU, "a", 1 << 26)
        tail = omega.shifted((1 << 26) - 64)
        assert traced_peak(lambda: tail.codes) < 64 << 10
        letters = [sub.grigorchuk_letter(m) for m in range((1 << 26) - 63, (1 << 26) + 1)]
        assert tail.text == "".join(letters)
        assert isinstance(vars(omega)["codes"], int)

    def test_repr_generates_no_letters(self):
        omega = sub.fixed_point_prefix(TAU, "a", 1 << 26)
        assert repr(omega.shifted(3)) == (
            "SymbolicPrefix(length=67108861, fixed_point_start=3)"
        )
        assert repr(omega).endswith("length=67108864, fixed_point_start=0)")
        assert isinstance(vars(omega)["codes"], int)
        assert repr(word("acab")).endswith("length=4, fixed_point_start=None)")

    def test_an_out_of_range_position_generates_no_letters(self):
        omega = sub.fixed_point_prefix(TAU, "a", 1 << 26)
        for position in (0, -1, (1 << 26) + 1):
            with pytest.raises(errors.InvalidInputError, match=f"^position {position} outside 1..67108864$"):
                omega.at(position)
        assert isinstance(vars(omega)["codes"], int)
        with pytest.raises(errors.InvalidInputError, match="^position 3 outside 1..2$"):
            omega.shifted((1 << 26) - 2).at(3)
        assert isinstance(vars(omega)["codes"], int)

    def test_a_letter_of_an_unread_prefix_makes_no_letters(self):
        # each letter from the closed form, where reading it would make all 2^26 letters, 64 MiB
        omega = sub.fixed_point_prefix(TAU, "a", 1 << 26)
        assert traced_peak(lambda: omega.at(5)) < 64 << 10
        assert traced_peak(lambda: omega.shifted(12345).at(678)) < 64 << 10
        rng = random.Random(2026)
        shifts = [rng.randrange(1 << 26) for _ in range(2000)]
        places = [(n, rng.randint(1, (1 << 26) - n)) for n in shifts]
        letters = [omega.shifted(n).at(k) for n, k in places]
        assert omega.at(5) == "a" and isinstance(vars(omega)["codes"], int)
        read = omega.codes
        assert letters == ["abcd"[read[n + k - 1]] for n, k in places]

    def test_other_rules_are_generated_at_once(self, monkeypatch):
        passes = []
        expand = rules._expand
        monkeypatch.setattr(rules, "_expand", lambda *args: passes.append(args[2]) or expand(*args))
        doubling = sub.Substitution({"a": "ab", "b": "aa"})
        prefix = sub.fixed_point_prefix(doubling, "a", 64)
        assert passes and isinstance(vars(prefix)["codes"], memoryview)


def test_the_set_tables_hold_every_set_byte():
    # built for the 16 sets of a, b, c, d and repeated: a set byte's high bits name no letter
    bit, step = language._BIT, language._NEXT
    assert language._PULLBACK == bytes(sum(bit[x] for x in "abcd" if s & bit[step[x]]) for s in range(256))
    assert language._NEXT_SET == bytes(sum(bit[step[x]] for x in "abcd" if s & bit[x]) for s in range(256))
    assert language._MEMBERS == [tuple(s >> i & 1 for i in range(4)) for s in range(256)]


class TestClosedForm:
    def test_valuation(self):
        assert sub.dyadic_valuation(1) == 0
        assert sub.dyadic_valuation(12) == 2
        assert sub.dyadic_valuation(1 << 20) == 20
        with pytest.raises(errors.InvalidInputError):
            sub.dyadic_valuation(0)

    def test_letter_examples(self):
        assert sub.grigorchuk_letter(1) == "a"
        assert sub.grigorchuk_letter(8) == "d"
        assert sub.grigorchuk_letter(12) == "b"

    def test_matches_generator(self):
        # the self-expansion that grows other rules' fixed points, run on the Grigorchuk rules
        length = 1 << 16
        letters = rules._grow(TAU, "a", length).decode()
        assert all(letters[m - 1] == sub.grigorchuk_letter(m) for m in range(1, length + 1))

    def test_vectorized_oracle_matches_scalar(self):
        length = 4096
        codes = sub.grigorchuk_codes(length)
        for m in range(1, length + 1):
            assert "abcd"[codes[m - 1]] == sub.grigorchuk_letter(m)

    def test_a_exactly_at_odd_positions(self):
        codes = np.frombuffer(sub.grigorchuk_codes(1 << 14), dtype=np.uint8)
        odd = np.arange(1, (1 << 14) + 1) % 2 == 1
        assert ((codes == 0) == odd).all()


class TestFixedPointCountWork:
    """Calls of ``fixed_point_count``, the recursive ones included."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        count = language.fixed_point_count

        def counted(sets, n):
            made.append(sets)
            return count(sets, n)

        monkeypatch.setattr(language, "fixed_point_count", counted)
        return made

    def test_a_one_set_word_takes_one_call(self, calls):
        # halving b down to the empty word takes calls at each of the 60 bits of 10^18
        language.fixed_point_count(b"\x02", 10**18)
        assert len(calls) == 1

    def test_a_word_of_l_sets_takes_at_most_2l_minus_1_calls(self, calls):
        # a split gives each half a set, so the calls form a tree with at most L leaves
        rng = random.Random(20261021)
        codes = sub.grigorchuk_codes(4096)
        for _ in range(200):
            size = rng.randint(1, 14)
            start = rng.randrange(len(codes) - size)
            sets = bytes(1 << code | rng.randrange(16) for code in codes[start : start + size])
            calls.clear()
            language.fixed_point_count(sets, rng.choice([rng.randrange(1 << 20), 10**18]))
            assert len(calls) <= 2 * size - 1, sets


def traced_peak(build):
    """Peak bytes tracemalloc sees while ``build()`` runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """The cap counts letters; allocation stays within a few bytes per letter."""

    LENGTH = 1 << 20

    def test_generator_peak(self):
        # the Grigorchuk fixed point is generated when its codes are read (test_generated_codes_peak):
        # until then it holds nothing that grows with its length
        peak = traced_peak(lambda: sub.fixed_point_prefix(TAU, "a", self.LENGTH))
        assert peak <= 4096

    # a -> ab, b -> b squares its rules 14 times, so letters that double
    # would reach the length each: twenty the seed never reaches, or a
    # chain a -> ab, b -> c, ..., y -> z, z -> zz the seed reaches late
    UNREACHED = "ABCDEFGHIJKLMNOPQRST"
    CHAIN = "abcdefghijklmnopqrstuvwxyz"
    LONG_RULES = {
        # rules, and the fixed point as head + tail letter repeated
        "unreachable": ({"a": "ab", "b": "b", **{x: x + x for x in UNREACHED}}, "a", "b"),
        "deep_chain": ({**dict(zip(CHAIN, CHAIN[1:])), "a": "ab", "z": "zz"}, CHAIN[:-1], "z"),
    }

    @pytest.mark.parametrize("case", sorted(LONG_RULES))
    def test_generator_peak_with_long_squared_rules(self, case):
        # the letters the fixed point grows, which reach past 'abcd'
        table, head, tail = self.LONG_RULES[case]
        long_rules = sub.Substitution(table)
        letters = None

        def build():
            nonlocal letters
            letters = rules._grow(long_rules, "a", self.LENGTH)

        assert traced_peak(build) <= 6 * self.LENGTH
        assert letters.decode() == head + tail * (self.LENGTH - len(head))

    def test_generated_codes_peak(self):
        peak = traced_peak(lambda: sub.fixed_point_prefix(TAU, "a", self.LENGTH).codes)
        assert peak <= self.LENGTH + 4 * sub._CHUNK

    def test_oracle_peak(self):
        peak = traced_peak(lambda: sub.grigorchuk_codes(self.LENGTH))
        assert peak <= self.LENGTH + 4 * sub._CHUNK


class TestTextFormats:
    def test_substitution_round_trip(self):
        text = "".join(f"{ch} -> {TAU.rules[ch]}\n" for ch in TAU.letters)
        again = rules.parse_substitution(text)
        assert again.rules == dict(TAU.rules)

    def test_substitution_comments_and_blanks(self):
        parsed = rules.parse_substitution("# rules\na -> aca\n\nb -> d # tail\nc -> b\nd -> c\n")
        assert parsed.rules["a"] == "aca"
        assert parsed.rules["b"] == "d"

    def test_substitution_malformed(self):
        with pytest.raises(errors.InvalidInputError):
            rules.parse_substitution("a = aca")
        with pytest.raises(errors.InvalidInputError):
            rules.parse_substitution("ab -> a")
        with pytest.raises(errors.InvalidInputError):
            rules.parse_substitution("a -> aca\na -> ac")

    def test_prefix_file_round_trip(self, tmp_path):
        p = sub.grigorchuk_prefix(64)
        path = tmp_path / "prefix.txt"
        sub.save_prefix(p, path)
        again = sub.load_prefix(path)
        assert again.text == p.text

    @pytest.mark.parametrize(
        "text, loads",
        [
            ("a" * 64, True),
            ("a" * 64 + "\r\n", True),
            ("\n" + "a" * 64 + "\n", True),
            ("a" * 65 + "\n", False),
            # a letter past the first cap + 2 characters is never dropped unread
            ("a" * 64 + "\n\n\n\nb", False),
        ],
    )
    def test_prefix_file_counts_against_the_cap(self, tmp_path, monkeypatch, text, loads):
        path = tmp_path / "prefix.txt"
        path.write_text(text, newline="")
        monkeypatch.setenv(sub.MAX_BYTES_ENV, "64")
        if loads:
            assert sub.load_prefix(path).text == "a" * 64
        else:
            with pytest.raises(errors.ResourceLimitError, match="exceeds the cap of 64 bytes"):
                sub.load_prefix(path)

    def test_a_short_file_allocates_what_it_holds(self, tmp_path, monkeypatch):
        # the file is read in pieces, so a 64-letter file allocates no room for the cap's letters
        monkeypatch.delenv(sub.MAX_BYTES_ENV, raising=False)
        prefix, seeds = tmp_path / "prefix.txt", tmp_path / "rules.txt"
        prefix.write_text("a" * 64 + "\n")
        seeds.write_text("a -> ab\nb -> aa\n")
        assert traced_peak(lambda: sub.load_prefix(prefix)) < 1 << 20
        assert traced_peak(lambda: rules.load_substitution(seeds)) < 1 << 20

    def test_a_file_is_stripped_once(self, tmp_path, monkeypatch):
        # the read text, then the letters alone while they are encoded: three bytes a letter at most
        monkeypatch.delenv(sub.MAX_BYTES_ENV, raising=False)
        length = 1 << 22
        path = tmp_path / "prefix.txt"
        sub.save_prefix(sub.grigorchuk_prefix(length), path)
        loaded = None

        def load():
            nonlocal loaded
            loaded = sub.load_prefix(path)

        assert traced_peak(load) <= 3 * length + (1 << 20)
        assert loaded.codes == sub.grigorchuk_codes(length)

    @pytest.mark.parametrize("extra, loads", [("\n", True), ("a\n", False), ("\n\n\n\nb", False)])
    def test_the_cap_holds_across_pieces(self, tmp_path, monkeypatch, extra, loads):
        cap = 2 * sub._READ_PIECE + 5
        path = tmp_path / "prefix.txt"
        path.write_text("a" * cap + extra, newline="")
        monkeypatch.setenv(sub.MAX_BYTES_ENV, str(cap))
        if loads:
            assert sub.load_prefix(path).text == "a" * cap
        else:
            with pytest.raises(errors.ResourceLimitError, match=f"exceeds the cap of {cap} bytes"):
                sub.load_prefix(path)
