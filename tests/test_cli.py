import ast
import gc
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import odoshift
from odoshift import cli
from odoshift.substitution import grigorchuk_letter, grigorchuk_prefix

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
GRIGORCHUK_RULES = "a -> aca\nb -> d\nc -> b\nd -> c\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_prefix_sixteen(self, capsys):
        code, out, _ = run(capsys, "generate", "--length", "16")
        assert code == 0
        assert out.strip() == "acabacadacabacac"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "omega.txt"
        code, out, _ = run(capsys, "generate", "--length", "64", "--output", str(path))
        assert code == 0
        assert path.read_text().strip() == out.strip()
        assert out.startswith("acabacadacabacac")

    def test_custom_substitution_file(self, capsys, tmp_path):
        # period doubling grows abaaabab, whose measure is 0: outside the subshift
        rules = tmp_path / "thue_morse_like.txt"
        rules.write_text("# period doubling\na -> ab\nb -> aa\n")
        code, out, err = run(capsys, "generate", "--length", "8", "--seed-file", str(rules))
        assert (code, out) == (4, "")
        assert "the 8 letters grown from" in err

    @pytest.mark.parametrize(
        "source, message",
        [
            ("a -> \n", "rule for 'a' is erasing; rules must be nonempty"),
            ("a -> ax\n", "rule 'a' -> 'ax' uses letter 'x' outside alphabet"),
            ("# no rules\n\n", "no rules found"),
        ],
        ids=["erasing", "outside_the_alphabet", "no_rules"],
    )
    def test_a_bad_substitution_file_exits_2(self, capsys, tmp_path, source, message):
        rules = tmp_path / "rules.txt"
        rules.write_text(source)
        assert run(capsys, "generate", "--length", "8", "--seed-file", str(rules)) == (2, "", f"error: {message}\n")

    def test_a_rules_file_past_the_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        # the file is read no further than the cap's characters and a line end
        monkeypatch.setenv("ODOSHIFT_MAX_BYTES", "64")
        rules = tmp_path / "rules.txt"
        rules.write_text(GRIGORCHUK_RULES + "#" * (100 - len(GRIGORCHUK_RULES)))
        assert run(capsys, "generate", "--length", "16", "--seed-file", str(rules)) == (
            2, "", f"error: the rules file {rules} exceeds the cap of 64 bytes\n")
        rules.write_text(GRIGORCHUK_RULES + "#" * (64 - len(GRIGORCHUK_RULES)) + "\n")
        assert run(capsys, "generate", "--length", "16", "--seed-file", str(rules)) == (0, "acabacadacabacac\n", "")

    def test_grigorchuk_substitution_file(self, capsys, tmp_path):
        rules = tmp_path / "grigorchuk.txt"
        rules.write_text(GRIGORCHUK_RULES)
        code, out, _ = run(capsys, "generate", "--length", "8", "--seed-file", str(rules))
        assert code == 0
        assert out.strip() == "acabacad"

    @pytest.mark.parametrize("length", [1, 1 << 14, (1 << 14) + 1, (1 << 20) + 3])
    def test_the_letters_written_in_pieces_are_the_whole_text(self, capsys, tmp_path, length):
        path = tmp_path / "omega.txt"
        text = grigorchuk_prefix(length).text + "\n"
        assert run(capsys, "generate", "--length", str(length)) == (0, text, "")
        assert run(capsys, "generate", "--length", str(length), "--output", str(path)) == (0, text, "")
        assert path.read_text(encoding="ascii") == text

    def test_a_shifted_input_file_is_written_in_pieces(self, capsys, tmp_path):
        source, path = tmp_path / "factor.txt", tmp_path / "out.txt"
        letters = grigorchuk_prefix((1 << 15) + 109).text[100:]
        source.write_text(letters + "\n")
        argv = ["generate", "--input", str(source), "--shift", "17"]
        assert run(capsys, *argv, "--output", str(path)) == (0, letters[17:] + "\n", "")
        assert path.read_text(encoding="ascii") == letters[17:] + "\n"

    @pytest.mark.parametrize("output", [False, True], ids=["stdout", "output_file"])
    def test_the_letters_take_no_copy_of_the_prefix(self, tmp_path, monkeypatch, output):
        # the codes are held whole, one byte per letter; the text is decoded and written a piece at a time
        import tracemalloc

        length = 1 << 22
        argv = ["generate", "--length", str(length)] + (["--output", str(tmp_path / "omega.txt")] if output else [])
        with open(os.devnull, "w", encoding="ascii") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak <= length + (1 << 20), f"generate peaked at {peak} bytes"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "generate", "--length", "4")
        assert code == 0
        assert json.loads(out) == {"length": 4, "prefix": "acab"}

    def test_cap_violation_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("ODOSHIFT_MAX_BYTES", "32")
        code, _, err = run(capsys, "generate", "--length", "64")
        assert code == 2
        assert "error" in err


class TestAnalyze:
    def test_skeleton_lines(self, capsys):
        code, out, _ = run(capsys, "analyze", "--length", "64", "--levels", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[:4] == ["1 2 a", "2 4 c", "3 8 b", "4 16 d"]
        assert lines[4] == "classification: toeplitz_like"

    def test_not_in_subshift_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a" * 64 + "\n")
        code, _, err = run(capsys, "analyze", "--input", str(path), "--levels", "3")
        assert code == 4
        assert "not in subshift" in err

    def test_insufficient_data_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "--length", "32", "--levels", "8")
        assert code == 3
        assert "required prefix length: 1024" in err


class TestDepthOverTheCap:
    """A skeleton depth K whose 2^(K+2) letters pass the cap exits 2 on every input route, building no such number."""

    @pytest.mark.parametrize("depth", [10**9, 10**13])
    @pytest.mark.parametrize("argv", [["analyze", "--levels"], ["encode", "--length", "100", "--precision"],
                                      ["fiber", "--input", "{omega}", "--levels"]], ids=["analyze", "encode", "fiber"])
    def test_a_huge_depth_exits_2_at_once(self, capsys, tmp_path, monkeypatch, argv, depth):
        import tracemalloc

        monkeypatch.delenv("ODOSHIFT_MAX_BYTES", raising=False)
        omega = tmp_path / "omega.txt"
        omega.write_text(grigorchuk_prefix(64).text + "\n")
        tracemalloc.start()
        try:
            result = run(capsys, *(arg.format(omega=omega) for arg in argv), str(depth))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = f"error: skeleton depth {depth} reads 2^{depth + 2} letters, over the cap of {1 << 28} bytes\n"
        assert result == (2, "", message)
        assert peak < 1 << 20

    @pytest.mark.parametrize("cap, depth, code", [(64, 4, 0), (64, 5, 2), (127, 5, 2), (128, 5, 0), (128, 6, 2)])
    def test_the_depth_is_refused_where_its_window_passes_the_cap(self, capsys, monkeypatch, cap, depth, code):
        # 2^(K+2) > cap exactly when K + 2 >= cap.bit_length()
        monkeypatch.setenv("ODOSHIFT_MAX_BYTES", str(cap))
        result = run(capsys, "analyze", "--levels", str(depth))
        assert result[0] == code, result
        if code:
            assert result[2] == f"error: skeleton depth {depth} reads 2^{depth + 2} letters, over the cap of {cap} bytes\n"


class TestEncode:
    def test_shift_five(self, capsys):
        code, out, _ = run(capsys, "encode", "--shift", "5", "--precision", "8", "--length", "2048")
        assert code == 0
        assert out.strip() == "10100000"

    def test_unshifted_is_zero(self, capsys):
        code, out, _ = run(capsys, "encode", "--precision", "6", "--length", "256")
        assert code == 0
        assert out.strip() == "000000"

    def test_reads_prefix_file(self, capsys, tmp_path):
        path = tmp_path / "omega.txt"
        run(capsys, "generate", "--length", "1024", "--shift", "3", "--output", str(path))
        code, out, _ = run(capsys, "encode", "--input", str(path), "--precision", "4")
        assert code == 0
        assert out.strip() == "1100"

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "encode", "--input", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "error" in err


class TestFiber:
    def test_fixed_point(self, capsys):
        code, out, _ = run(capsys, "fiber", "--length", "4096", "--levels", "8")
        assert code == 0
        assert "classification: omega_star_orbit" in out
        assert "stabilization_index: 0" in out
        assert "preimage_letters: bcd" in out

    def test_shifted_point_json(self, capsys):
        code, out, _ = run(capsys, "--json", "fiber", "--length", "4096", "--shift", "1", "--levels", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "toeplitz_point"
        assert payload["preimage_letters"] == ["a"]

    @pytest.mark.parametrize("shift, letter", [(64, "d"), (128, "c"), (7 << 5, "b"), (7 << 10, "c")])
    def test_default_horizon_reads_past_the_repeated_head(self, capsys, tmp_path, shift, letter):
        code, out, err = run(capsys, "fiber", "--shift", str(shift), "--levels", "10")
        assert code == 0, err
        assert out.splitlines()[-1] == f"preimage_letters: {letter}"
        # the same letters from a file, read with no --shift: the test reads all 8192 of them
        path = tmp_path / "shifted.txt"
        assert run(capsys, "generate", "--length", str(shift + 8192), "--shift", str(shift),
                   "--output", str(path))[0] == 0
        assert run(capsys, "fiber", "--input", str(path), "--levels", "10") == (code, out, err)

    def test_without_a_shift_the_letters_are_read_in_one_pass(self, capsys, tmp_path, monkeypatch):
        # the load check's desubstitution pass also finds the preimage letters; a shift makes new letters
        from odoshift import language

        passes = []
        leaves, step = language._leaves, language._leaves_step.__code__

        def counted(sets):
            if sys._getframe(1).f_code is not step:  # a pass, not a call from a step of its recursion
                passes.append(sets)
            return leaves(sets)

        monkeypatch.setattr(language, "_leaves", counted)
        path = tmp_path / "omega.txt"
        path.write_text(grigorchuk_prefix(1 << 14).text + "\n")
        rules = tmp_path / "grigorchuk.txt"
        rules.write_text("a -> aca\nb -> d\nc -> b\nd -> c\n")
        for source, shift, count, letters in (("--input", 0, 1, "bcd"), ("--seed-file", 0, 1, "bcd"),
                                              ("--input", 5, 2, "a")):
            passes.clear()
            argv = ["fiber", source, str(path if source == "--input" else rules), "--levels", "10"]
            code, out, err = run(capsys, *argv, "--shift", str(shift))
            assert code == 0, err
            assert out.splitlines()[-1] == f"preimage_letters: {letters}"
            assert len(passes) == count, (source, shift)

    def test_a_shift_whose_skeleton_settles_is_a_toeplitz_point(self, capsys):
        # the skeleton settles at index 1, but the letters after it are the fixed point shifted 4096 times
        code, out, err = run(capsys, "fiber", "--shift", "4095", "--levels", "12")
        assert code == 0, err
        assert out == "classification: toeplitz_point\nstabilization_index: -\npreimage_letters: a\n"

    @pytest.mark.parametrize("shift, levels", [(3590, 10), (1048574, 12)])
    def test_no_shift_of_the_generated_fixed_point_is_on_its_orbit(self, capsys, shift, levels):
        # the letters held after these shifts are the fixed point's from an index on, but the fixed
        # point is aperiodic: the prefix's fixed-point start decides
        code, out, err = run(capsys, "fiber", "--shift", str(shift), "--levels", str(levels))
        assert code == 0, err
        assert out == "classification: toeplitz_point\nstabilization_index: -\npreimage_letters: c\n"

    @pytest.mark.parametrize("shift, levels", [(64, 1), (64, 2), (64, 3), (15, 2), (31, 3)])
    def test_an_index_that_the_letters_held_refute_is_dropped(self, capsys, shift, levels):
        # the skeleton's window is the fixed point's from the index on, and the letters held past it are not
        code, out, err = run(capsys, "fiber", "--shift", str(shift), "--levels", str(levels))
        assert code == 0, err
        assert out.splitlines()[:2] == ["classification: toeplitz_point", "stabilization_index: -"]

    def test_period_doubling_is_outside_the_subshift(self, capsys, tmp_path):
        rules = tmp_path / "period_doubling.txt"
        rules.write_text("a -> ab\nb -> aa\n")
        code, out, err = run(capsys, "fiber", "--seed-file", str(rules))
        assert code == 4
        assert out == ""
        assert "not in subshift" in err


class TestMeasure:
    def test_exact_rationals(self, capsys):
        for word, expected in (("a", "1/2"), ("b", "1/7"), ("c", "2/7"), ("d", "1/14")):
            code, out, _ = run(capsys, "measure", "--word", word)
            assert code == 0
            assert out.strip() == expected

    def test_bad_word_exit_code(self, capsys):
        code, _, err = run(capsys, "measure", "--word", "xyz")
        assert code == 2

    @pytest.mark.parametrize("argv", [["measure"], ["freq", "--window", "64"]], ids=["measure", "freq"])
    def test_a_word_byte_that_is_not_utf8_is_named(self, capsys, argv):
        # Python reads the byte 0xff of an argument as the lone surrogate U+DCFF
        message = "error: letters ['\\udcff'] not in alphabet 'abcd'\n"
        assert run(capsys, *argv, "--word", "a\udcffc") == (2, "", message)
        proc = plain_cli(*argv, "--word", b"a\xffc")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


class TestFreq:
    def test_letter_a(self, capsys):
        code, out, _ = run(capsys, "freq", "--word", "a", "--length", "65536", "--window", "32768")
        assert code == 0
        assert "count 16384 window 32768" in out

    def test_default_length_reads_the_window_and_the_word(self, capsys):
        # the default window of 2^20 starts needs 2^20 + 1 letters for a two-letter word
        window = 1 << 20
        count = sum(
            grigorchuk_letter(m) == "a" and grigorchuk_letter(m + 1) == "c" for m in range(1, window + 1)
        )
        code, out, err = run(capsys, "freq", "--word", "ac")
        assert code == 0, err
        assert out.startswith(f"count {count} window {window} ")

    def test_prints_the_readme_line(self, capsys):
        line = "count 524288 window 1048576 frequency 0.5000000000"
        assert f"odoshift freq --word a --window 1048576    # {line}\n" in README.read_text(encoding="utf-8")
        assert run(capsys, "freq", "--word", "a", "--window", "1048576") == (0, line + "\n", "")

    @pytest.mark.parametrize(
        "word, shift, window",
        [("a", 0, 4097), ("acab", 1, 1001), ("dacabac", 7, 4095), ("aa", 3, 333), ("cabacada", 4097, 2049)],
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_generated_letters_and_their_file_count_alike(self, capsys, tmp_path, word, shift, window, json_flag):
        # the generated fixed point is counted by desubstitution, the same letters from a file by bitsets
        path = tmp_path / "omega.txt"
        length = shift + window + len(word) - 1
        assert run(capsys, "generate", "--length", str(length), "--output", str(path))[0] == 0
        options = ["--word", word, "--shift", str(shift), "--window", str(window)]
        generated = run(capsys, *json_flag, "freq", *options)
        assert generated[0] == 0, generated
        assert run(capsys, *json_flag, "freq", "--input", str(path), *options) == generated


class TestSpectrum:
    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum", "--word", "a", "--length", "8200", "--window", "8192",
            "--theta", "1/2", "--theta", "1/3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,magnitude,N"
        assert lines[1].startswith("1/2,") and lines[1].endswith(",8192")
        assert lines[2].startswith("1/3,")
        assert float(lines[2].split(",")[1]) <= 1e-2

    def test_default_length_reads_the_window_and_the_word(self, capsys):
        code, out, err = run(capsys, "spectrum", "--word", "ac", "--theta", "1/2")
        assert code == 0, err
        assert out.splitlines()[1].endswith(f",{1 << 20}")

    def test_repeated_theta_gives_one_row_each(self, capsys):
        code, out, err = run(capsys, "spectrum", "--word", "a", "--window", "4096",
                             "--theta", "1/3", "--theta", "1/2", "--theta", "2/6")
        assert code == 0, err
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1/3", "1/2", "1/3"]
        assert rows[0] == rows[2]

    def test_work_over_the_budget_exits_2(self, capsys):
        from odoshift.ergodic import _SPECTRAL_BUDGET

        # over the default window of 2^20 the word a starts 2^19 times, so each q past the
        # window takes 2^20 + 2^19 terms: ten of them and the window fill the budget of 2^24
        thetas = [arg for k in range(11) for arg in ("--theta", f"1/{(1 << 20) + 1 + k}")]
        code, out, err = run(capsys, "spectrum", "--word", "a", *thetas)
        assert (code, out) == (2, "")
        assert f"takes {(1 << 20) + 11 * 3 * (1 << 19)} terms, over the budget of {_SPECTRAL_BUDGET}" in err

    def test_dyadic_scan_over_the_default_window_is_admitted(self, capsys):
        thetas = [arg for k in range(1, 32) for arg in ("--theta", f"{k}/32")]
        code, out, err = run(capsys, "spectrum", "--word", "a", *thetas)
        assert code == 0, err
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(Fraction(k, 32)) for k in range(1, 32)]
        assert rows[15] == "1/2,5.000000000000e-01,1048576"

    @pytest.mark.parametrize("theta", ["1/0", "half", "1/-2",
                                       # a numerator or denominator past the 4300 digits that Python prints
                                       "1e-10000000", "1e1000000", "1e4300", "1e-4300", "7" * 4301 + "/3",
                                       "1" * 3000 + "." + "1" * 1400, "1/3e5", "1e" + "9" * 5000],
                             ids=lambda theta: theta if len(theta) < 20 else f"{theta[:6]}..{len(theta)}_characters")
    def test_a_theta_that_is_no_fraction_exits_2_and_names_it(self, capsys, theta):
        began = time.perf_counter()
        code, out, err = run(capsys, "spectrum", "--word", "a", "--theta", "1/3", "--theta", theta)
        assert (code, out, err) == (2, "", f"error: --theta must be a fraction p/q with q nonzero, got {theta!r}\n")
        assert time.perf_counter() - began < 0.5

    def test_a_theta_prints_as_its_fraction(self, capsys):
        # a decimal, a sign, spaces, a zero with any exponent, and the longest numerator Python prints
        thetas = ["1e-3", "-1/2", " 3/4 ", "0e99999999", "1e4299", "3/1" + "0" * 4299]
        code, out, err = run(capsys, "spectrum", "--word", "a", "--window", "64", *(f"--theta={t}" for t in thetas))
        assert code == 0, err
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == [
            "1/1000", "-1/2", "3/4", "0", "1" + "0" * 4299, "3/1" + "0" * 4299]


class TestVerify:
    def test_quick_level_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "quick")
        assert code == 0
        lines = out.strip().splitlines()
        assert len([l for l in lines if l.startswith("PASS ")]) == 10
        assert len(lines) == 11
        assert lines[-1] == "verdict: ok"
        # "PASS <name> <seconds>s: <detail>"
        for line in lines[:-1]:
            assert re.fullmatch(r"PASS \w+ \d+\.\d{3}s: .+", line), line

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "--json", "verify", "--level", "quick")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["checks"]) == 10
        for check in payload["checks"]:
            assert isinstance(check["seconds"], float)
            assert 0 < check["seconds"] < 60

    def test_json_reports_the_running_peak_rss(self, capsys):
        code, out, _ = run(capsys, "--json", "verify", "--level", "quick")
        assert code == 0
        peaks = [check["maxrss_kb"] for check in json.loads(out)["checks"]]
        assert all(isinstance(kb, int) and kb > 0 for kb in peaks), peaks
        assert peaks == sorted(peaks)


class TestDemandSizedInput:
    """Commands generate shift + what they read letters by default, and never more than --length."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "--precision", "8"],
            ["analyze", "--levels", "4"],
            ["fiber", "--shift", "1", "--levels", "8"],
            ["spectrum", "--word", "a", "--window", "1024", "--theta", "1/2"],
        ],
    )
    def test_small_cap_is_enough_at_the_default_length(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("ODOSHIFT_MAX_BYTES", "4096")
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out

    def test_generate_still_counts_the_whole_length(self, capsys, monkeypatch):
        monkeypatch.setenv("ODOSHIFT_MAX_BYTES", "4096")
        code, _, err = run(capsys, "generate")
        assert code == 2
        assert "exceeds the cap of 4096 bytes" in err

    @pytest.mark.parametrize(
        "argv, required",
        [
            (["encode", "--length", "64", "--precision", "8"], 1024),
            # the hint counts the letters before the shift too: 1024 after it would exit 3 again
            (["encode", "--length", "1000", "--shift", "10", "--precision", "8"], 1034),
            # after a shift 32 the preimage test reads 127 letters, more than the skeleton's 64
            (["fiber", "--length", "100", "--shift", "32", "--levels", "4"], 159),
            (["freq", "--length", "100", "--word", "ab", "--window", "100"], 101),
            # too short for the skeleton too: the hint is a length that serves both
            (["fiber", "--length", "50", "--shift", "32", "--levels", "4"], 159),
        ],
    )
    def test_short_length_names_the_required_length(self, capsys, argv, required):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert f"required prefix length: {required})" in err
        hinted = argv[:]
        hinted[argv.index("--length") + 1] = str(required)
        code, _, err = run(capsys, *hinted)
        assert code == 0, err

    def test_a_short_input_file_names_the_required_length(self, capsys, tmp_path):
        # the preimage test's floor, 63 letters, asks for more than a depth-3 skeleton's 32
        path = tmp_path / "seven.txt"
        path.write_text("acabaca\n")
        code, out, err = run(capsys, "fiber", "--levels", "3", "--input", str(path))
        assert (code, out) == (3, "")
        assert "required prefix length: 63)" in err

    @pytest.mark.parametrize("shift, length", [(-3, 1 << 20), (64, 64), (100, 64)])
    def test_shift_outside_the_length(self, capsys, shift, length):
        code, _, err = run(capsys, "encode", "--precision", "4", "--shift", str(shift),
                           "--length", str(length))
        assert code == 2
        assert f"error: shift {shift} outside 0..{length - 1}" in err

    @pytest.mark.parametrize("argv", [["encode", "--shift", "-1"], ["freq", "--word", "a", "--shift", "-3"]],
                             ids=["encode", "freq"])
    def test_a_negative_shift_with_no_length_is_named(self, capsys, argv):
        # with no --length the length comes from the shift, so no range would be right
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: shift must be nonnegative, got {argv[-1]}\n"

    COMMANDS = [
        ["analyze", "--levels", "6"],
        ["encode", "--shift", "100", "--precision", "10"],
        ["--json", "encode", "--shift", "7", "--precision", "12"],
        ["fiber", "--shift", "3", "--levels", "8"],
        # the shift's floor of 128 letters for the preimage test, not the skeleton's 64, sets the length
        ["--json", "fiber", "--shift", "32", "--levels", "4"],
        ["freq", "--shift", "7", "--word", "ca", "--window", "5000"],
        ["spectrum", "--shift", "2", "--word", "a", "--window", "4096", "--theta", "1/3",
         "--theta", "1/2"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_output_matches_the_whole_prefix(self, capsys, tmp_path, argv):
        # --input reads the whole file, so it stands in for a full-length prefix
        path = tmp_path / "omega.txt"
        assert run(capsys, "generate", "--length", "65536", "--output", str(path))[0] == 0
        sized = run(capsys, *argv, "--length", "65536")
        whole = run(capsys, *argv, "--input", str(path))
        assert sized[0] == 0, sized[2]
        assert sized == whole
        assert run(capsys, *argv) == run(capsys, *argv, "--length", str(1 << 20))


class TestInputIsCheckedAtLoad:
    """An --input file whose letters have measure 0 exits 4 before any command runs."""

    COMMANDS = [
        ["generate"],
        ["analyze", "--levels", "6"],
        ["encode", "--precision", "8"],
        ["fiber", "--levels", "8"],
        ["freq", "--word", "a", "--window", "4000"],
        ["spectrum", "--word", "a", "--window", "4000", "--theta", "1/2"],
    ]

    @pytest.fixture
    def files(self, tmp_path):
        text = grigorchuk_prefix(4096).text
        valid, swapped = tmp_path / "omega.txt", tmp_path / "swapped.txt"
        valid.write_text(text + "\n")
        # b and d swapped: every skeleton column still checks out (analyze
        # would print "3 8 d", encode 00000000), so only the language test sees it
        swapped.write_text(text.translate(str.maketrans("bd", "db")) + "\n")
        return valid, swapped

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_swapped_letters_exit_four(self, capsys, files, argv):
        code, out, err = run(capsys, *argv, "--input", str(files[1]))
        assert (code, out) == (4, "")
        assert "4096 letters of" in err and "are not a factor of the fixed point" in err

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_a_saved_prefix_reads_as_generated(self, capsys, files, argv):
        saved = run(capsys, *argv, "--input", str(files[0]))
        assert saved[0] == 0, saved[2]
        assert saved == run(capsys, *argv, "--length", "4096")

    @pytest.mark.parametrize("argv", [["analyze", "--levels", "8"], ["encode", "--precision", "8"]])
    @pytest.mark.parametrize("shift", ["0", "5"])
    def test_the_load_check_is_the_only_language_test(self, capsys, monkeypatch, files, argv, shift):
        # every sub-word of a factor is a factor: the 2^10-letter window of the 4096 letters that passed the
        # load check, after a shift or not, is not tested again
        from odoshift import language

        calls = []
        letter_sets = language.letter_sets
        monkeypatch.setattr(language, "letter_sets", lambda codes: calls.append(len(codes)) or letter_sets(codes))
        for path, expected in ((files[0], run(capsys, *argv, "--length", "4096", "--shift", shift)),
                               (files[1], (4, "", f"error: not in subshift: the 4096 letters of {files[1]} "
                                                  "are not a factor of the fixed point\n"))):
            calls.clear()
            assert run(capsys, *argv, "--input", str(path), "--shift", shift) == expected
            assert calls == [4096], path


class TestSeedFileReadsAsInput:
    """A --seed-file's letters and the same letters in an --input file give the same answer."""

    RULES = {
        "period_doubling": "a -> ab\nb -> aa\n",
        "grigorchuk": GRIGORCHUK_RULES,
        "outside_abcd": "a -> ax\nx -> a\n",
    }
    # (argv, the letters it reads: --shift plus its demand)
    COMMANDS = [
        (["generate", "--length", "64"], 64),
        (["analyze", "--levels", "4"], 64),
        (["encode", "--precision", "4"], 64),
        (["encode", "--shift", "5", "--precision", "4"], 69),
        (["fiber", "--levels", "4"], 64),
        (["freq", "--word", "a", "--window", "64"], 64),
        (["spectrum", "--word", "a", "--window", "64", "--theta", "1/2"], 64),
    ]

    @pytest.mark.parametrize("rules", sorted(RULES))
    @pytest.mark.parametrize("argv, letters", COMMANDS)
    def test_same_exit_code_and_stdout(self, capsys, tmp_path, rules, argv, letters):
        from odoshift.rules import _grow, parse_substitution

        seed_file, input_file = tmp_path / "rules.txt", tmp_path / "letters.txt"
        seed_file.write_text(self.RULES[rules])
        sub = parse_substitution(self.RULES[rules])
        input_file.write_text(_grow(sub, sub.letters[0], letters).decode() + "\n")
        seeded = run(capsys, *argv, "--seed-file", str(seed_file))
        given = run(capsys, *argv, "--input", str(input_file))
        assert seeded[:2] == given[:2], (seeded[2], given[2])
        expected_code = {"grigorchuk": 0, "period_doubling": 4, "outside_abcd": 2}[rules]
        assert seeded[0] == expected_code, seeded[2]
        if expected_code:
            assert seeded[1] == ""

    @pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
    def test_both_sources_exit_two(self, capsys, tmp_path, argv):
        seed_file, input_file = tmp_path / "rules.txt", tmp_path / "letters.txt"
        seed_file.write_text(GRIGORCHUK_RULES)
        input_file.write_text(grigorchuk_prefix(64).text + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--input", str(input_file), "--seed-file", str(seed_file)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
    def test_seed_letter_is_gone(self, capsys, tmp_path, argv):
        seed_file = tmp_path / "rules.txt"
        seed_file.write_text(GRIGORCHUK_RULES)
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--seed-file", str(seed_file), "--seed-letter", "a"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed-letter" in capsys.readouterr().err


class TestInputFileCap:
    """An --input file's letters count against ODOSHIFT_MAX_BYTES, as generated letters do."""

    @pytest.mark.parametrize(
        "argv",
        [["generate"], ["analyze", "--levels", "4"], ["encode", "--precision", "4"],
         ["freq", "--word", "a", "--window", "64"]],
    )
    def test_one_letter_over_the_cap_exits_two(self, capsys, tmp_path, monkeypatch, argv):
        path = tmp_path / "omega.txt"
        path.write_text(grigorchuk_prefix(101).text + "\n")
        monkeypatch.setenv("ODOSHIFT_MAX_BYTES", "100")
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out) == (2, "")
        assert "error: requested length 101 exceeds the cap of 100 bytes" in err

    def test_a_longer_file_exits_two(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "omega.txt"
        path.write_text(grigorchuk_prefix(4096).text + "\n")
        monkeypatch.setenv("ODOSHIFT_MAX_BYTES", "100")
        code, out, err = run(capsys, "analyze", "--levels", "4", "--input", str(path))
        assert (code, out) == (2, "")
        assert "exceeds the cap of 100 bytes" in err

    @pytest.mark.parametrize("content", ["\n", ""])
    def test_a_file_without_letters_exits_two(self, capsys, tmp_path, content):
        path = tmp_path / "empty.txt"
        path.write_text(content)
        code, out, err = run(capsys, "analyze", "--levels", "4", "--input", str(path))
        assert (code, out) == (2, "")
        assert f"error: the file {path} holds no letters" in err

    def test_a_cap_past_memory_allocates_what_the_file_holds(self, capsys, tmp_path, monkeypatch):
        # the file is read in pieces: a cap of 2^40 bytes reserves none of them
        omega, seeds = tmp_path / "omega.txt", tmp_path / "rules.txt"
        text = grigorchuk_prefix(64).text
        omega.write_text(text + "\n")
        seeds.write_text("a -> ab\nb -> aa\n")
        monkeypatch.setenv("ODOSHIFT_MAX_BYTES", str(1 << 40))
        assert run(capsys, "generate", "--input", str(omega)) == (0, text + "\n", "")
        code, out, err = run(capsys, "fiber", "--seed-file", str(seeds))
        assert (code, out) == (4, ""), err

    def test_the_cap_is_enough(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "omega.txt"
        text = grigorchuk_prefix(100).text
        path.write_text(text + "\n")
        monkeypatch.setenv("ODOSHIFT_MAX_BYTES", "100")
        assert run(capsys, "generate", "--input", str(path)) == (0, text + "\n", "")
        code, out, err = run(capsys, "analyze", "--levels", "4", "--input", str(path))
        assert code == 0, err
        assert out.splitlines()[-1] == "classification: toeplitz_like"


class TestOptions:
    """Each subcommand's option strings, so that adding or removing one shows in review."""

    OPTIONS = {
        "generate": ["--input", "--seed-file", "--length", "--shift", "--output"],
        "analyze": ["--input", "--seed-file", "--length", "--shift", "--levels"],
        "encode": ["--input", "--seed-file", "--length", "--shift", "--precision"],
        "fiber": ["--input", "--seed-file", "--length", "--shift", "--levels"],
        "measure": ["--word"],
        "freq": ["--input", "--seed-file", "--length", "--shift", "--word", "--window"],
        "spectrum": ["--input", "--seed-file", "--length", "--shift", "--word", "--window", "--theta"],
        "verify": ["--level"],
    }

    def test_option_strings(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if a.dest == "command"]
        assert [o for a in parser._actions for o in a.option_strings if a.dest != "help"] == ["--json"]
        options = {
            name: [o for a in sub._actions for o in a.option_strings if a.dest != "help"]
            for name, sub in commands.choices.items()
        }
        assert options == self.OPTIONS

    @pytest.mark.parametrize("command", ["odoshift", *OPTIONS])
    def test_help_exits_zero_and_lists_the_options(self, capsys, command):
        argv = [] if command == "odoshift" else [command]
        listed = self.OPTIONS.get(command, ["--json", *self.OPTIONS])  # the top level lists --json and the commands
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: {' '.join(['odoshift', *argv])} ")
        assert [name for name in listed if name not in out] == []

    # (argv, whether main reads it plainly, building no parser; help, errors and other spellings build argparse's)
    TWINS = [
        (["generate", "--length", "16"], True),
        (["analyze", "--levels", "4"], True),
        (["encode", "--precision", "8"], True),
        (["fiber", "--shift", "1", "--levels", "6"], True),
        (["measure", "--word", "aca"], True),
        (["freq", "--word", "ac", "--window", "64"], True),
        (["spectrum", "--word", "ac", "--window", "64", "--theta", "1/3", "--theta", "1/2"], True),
        (["verify", "--level", "quick"], True),
        (["--json", "measure", "--word", "aca"], True),
        (["--help"], False),
        *(([command, "--help"], False) for command in OPTIONS),
        (["-h", "encode"], False),
        (["--js", "encode", "--precision", "4"], False),
        (["encode", "--prec", "4"], False),
        (["encode", "--precision=4"], False),
        (["encode", "--shift", "-3"], False),
        (["encode", "--precision", "4", "--precision", "5"], False),
        (["encode", "--precision", "x"], False),
        (["encode", "--precision"], False),
        (["encode", "--", "--precision", "4"], False),
        (["generate", "--length", "16", "--input", "x", "--seed-file", "y"], False),
        (["verify", "--level", "slow"], False),
        (["generate", "--json"], False),
        (["nosuch"], False),
        (["encode", "--bogus"], False),
        (["measure"], False),
        ([], False),
    ]

    @pytest.mark.parametrize("argv, plain", TWINS, ids=[" ".join(argv) or "no arguments" for argv, _ in TWINS])
    def test_a_plain_reading_is_the_full_parsers_twin(self, capsys, monkeypatch, argv, plain):
        full = cli.build_parser

        def outcome():
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, re.sub(r"\d+\.\d{3}s:", "-s:", out), err  # verify's seconds vary from run to run

        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(argv) or full())
        read = outcome()
        assert built == ([] if plain else [argv])
        monkeypatch.setattr(cli, "_read_plain", lambda argv: None)
        assert outcome() == read

    def test_a_plain_reading_gives_the_full_parsers_namespace(self):
        # a seeded corpus of argv: each one read plainly is parsed by the full parser into the same namespace
        import random

        rng = random.Random(30)
        parser = cli.build_parser()
        flags = sorted({flag for command in cli.COMMANDS for flag, _ in cli.COMMANDS[command][1]})
        odd = ["-h", "--help", "--", "--json", "--js", "--len", "--prec", "--length=16", "--word=a", "-x", "nosuch"]
        odd_values = ["-3", "", "-", "--", "-h", "--length", "9" * 5000, "x", "slow", "1.5"]
        ints = ["16", "4", "0", "1_0", " 7", "\u0663", "12345", "007"]
        strings = ["aca", "a", "1/3", "x.txt", "", "a b", "=", "quick", "full"]

        def value(kwargs):
            if rng.random() < 0.2:
                return rng.choice(odd_values)
            if "choices" in kwargs:
                return rng.choice([*kwargs["choices"], "slow"])
            return rng.choice(ints if "type" in kwargs else strings)

        accepted = 0
        for _ in range(6000):
            argv = ["--json"] if rng.random() < 0.3 else []
            command = rng.choice([*cli.COMMANDS, *odd[:3]] if rng.random() < 0.1 else list(cli.COMMANDS))
            argv.append(command)
            own = dict(cli.COMMANDS[command][1]) if command in cli.COMMANDS else {}
            if rng.random() < 0.6:  # the required options first, so that many argv are complete
                for flag, kwargs in own.items():
                    if kwargs.get("required"):
                        argv += [flag, value(kwargs)]
            for _ in range(rng.randint(0, 4)):
                r = rng.random()
                flag = rng.choice(odd) if r < 0.1 else rng.choice(flags) if r < 0.25 or not own else rng.choice(list(own))
                argv.append(flag)
                if rng.random() < 0.93:
                    argv.append(value(own.get(flag, {})))
            namespace = cli._read_plain(argv)
            if namespace is None:
                continue
            accepted += 1
            try:
                expected = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"read plainly, but the full parser refuses {argv}")
            assert vars(namespace) == vars(expected), argv
        assert 600 <= accepted <= 5400  # the corpus holds many of each kind

    # The argv shapes of the benchmark's cli ops (bench/workloads.py), with values as it draws them.
    BENCHMARK_ARGVS = [
        ["verify", "--level", "full"],
        ["generate", "--length", "16"],
        ["analyze", "--levels", "4"],
        ["encode", "--shift", "12345", "--precision", "10"],
        ["--json", "encode", "--shift", "678", "--precision", "4"],
        ["fiber", "--shift", "1", "--levels", "10"],
        ["measure", "--word", "acab"],
        ["freq", "--word", "a", "--window", "1048576"],
        ["spectrum", "--word", "a", "--theta", "1/2", "--theta", "1/3"],
        ["spectrum", "--word", "a", "--window", "4096", "--theta", "1/2", "--theta", "1/3"],
        ["encode", "--length", "64", "--precision", "8"],
        ["analyze", "--levels", "4", "--input", "{work}/sixty_four_a.txt"],
        ["fiber", "--seed-file", "{work}/period_doubling.txt"],
    ]

    def test_readme_and_benchmark_command_lines_are_read_plainly(self, tmp_path):
        argvs = [argv for argv, _ in readme_commands()]
        argvs += [[arg.format(work=tmp_path) for arg in argv] for argv in self.BENCHMARK_ARGVS]
        assert [argv for argv in argvs if cli._read_plain(argv) is None] == []

    def test_every_option_uses_only_what_a_plain_reading_reads(self):
        # an option of another kind (nargs, a const, a store_true flag, another type) fails here,
        # where a plain reading would misread it
        for command in cli.COMMANDS:
            for flag, kwargs in cli.COMMANDS[command][1]:
                assert flag.startswith("--") and set(kwargs) <= {"type", "default", "required", "choices",
                                                                 "action", "help"}, (command, flag)
                assert kwargs.get("action", "append") == "append" and kwargs.get("type", int) is int, (command, flag)
                # argparse would convert a default given as text by the type
                assert not ("type" in kwargs and isinstance(kwargs.get("default"), str)), (command, flag)


def readme_commands():
    """(argv, expected first output line or None) for each line of README's "Command line" block."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
    commands = []
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "odoshift", line
        # a comment that opens with a word over abcd, a bit string or a fraction is output
        first = comment.split()[0] if comment.strip() else ""
        expected = first if re.fullmatch(r"[abcd]+|[01]+|\d+/\d+", first) else None
        commands.append((argv[1:], expected))
    return commands


def test_readme_commands(capsys):
    outputs = set()
    for argv, expected in readme_commands():
        if argv == ["verify", "--level", "full"]:
            continue  # the acceptance gate runs these checks at the same sizes
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if expected is not None:
            assert out.splitlines()[0] == expected, argv
            outputs.add(expected)
    assert outputs == {"acabacadacabacac", "10100000", "2/7"}


def test_readme_snippets_print_their_comments(capsys):
    # the CLI examples are run by test_readme_commands; these are every python block and the fiber example
    text = README.read_text(encoding="utf-8")
    blocks = [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]
    assert len(blocks) >= 2 and "## Library quick start\n\n```python\n" in text
    for block in blocks:
        expected = [line.rpartition("  # ")[2] for line in block.splitlines() if line.startswith("print(")]
        assert expected and all("  # " in line for line in block.splitlines() if line.startswith("print(")), block
        exec(block, {})
        assert capsys.readouterr().out.splitlines() == expected, block
    (argv, letters), = re.findall(r"`(fiber [^`]+)`[^`]* prints `([abcd]+)`", text)
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    assert out.splitlines()[-1] == f"preimage_letters: {letters}"


def test_readme_commands_read_the_same_with_grigorchuk_rules(capsys, tmp_path):
    # the Grigorchuk rules as --seed-file grow omega, whose letters pass the check
    rules = tmp_path / "grigorchuk.txt"
    rules.write_text(GRIGORCHUK_RULES)
    seeded = 0
    for argv, _ in readme_commands():
        if argv[0] in ("measure", "verify"):
            continue  # no input options
        plain = run(capsys, *argv)
        assert plain[0] == 0, (argv, plain[2])
        assert run(capsys, *argv, "--seed-file", str(rules)) == plain, argv
        seeded += 1
    assert seeded == 6


# Report on stderr, at exit, the odoshift modules and those of dataclasses and argparse (with the
# gettext and locale it loads) if loaded, then, on the last line, whether numpy was loaded (atexit
# runs last first).
REPORT_AT_EXIT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr))\n"
    "atexit.register(lambda: print('modules loaded:', *sorted(m for m in sys.modules\n"
    "    if m in ('argparse', 'dataclasses', 'gettext', 'locale') or m.startswith('odoshift')),\n"
    "    file=sys.stderr))\n"
)
# Run `python -m odoshift.cli ARGS`.
MAIN_REPORTING_NUMPY = REPORT_AT_EXIT + "runpy.run_module('odoshift.cli', run_name='__main__')\n"


def fresh(*argv, script=MAIN_REPORTING_NUMPY):
    """One fresh interpreter with the package on its path, as the benchmark starts one."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ODOSHIFT_MAX_BYTES", None)
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def loaded(proc):
    """The modules that the report of ``fresh`` lists: odoshift's, and dataclasses, argparse, gettext
    and locale if loaded."""
    return set(proc.stderr.splitlines()[-2].split()[2:])


class TestStartWithoutNumpy:
    """Commands that read one window of the fixed point run on the standard library, without dataclasses."""

    def test_importing_the_package_and_cli_loads_no_numpy(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, odoshift, odoshift.cli; print('numpy' in sys.modules, "
                                   "'argparse' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "False False\n"), proc.stderr

    # the one table of the modules each command loads beyond odoshift, odoshift.errors and
    # odoshift.substitution: only a language test loads language, and only --seed-file loads rules
    @pytest.mark.parametrize(
        "argv, code, lines, modules",
        [
            (["generate", "--length", "16"], 0, ["acabacadacabacac"], []),
            (["analyze", "--levels", "4"], 0,
             ["1 2 a", "2 4 c", "3 8 b", "4 16 d", "classification: toeplitz_like"], ["toeplitz"]),
            (["encode", "--precision", "8"], 0, ["00000000"], ["toeplitz", "factormap"]),
            (["encode", "--shift", "786431", "--precision", "16"], 0,
             [format(786431 % (1 << 16), "016b")[::-1]], ["toeplitz", "factormap"]),
            (["--json", "encode", "--shift", "12345", "--precision", "10"], 0,
             [json.dumps({"bits_lsb_first": format(12345 % 1024, "010b")[::-1], "value": 12345 % 1024,
                          "window_used": 4096}, sort_keys=True)], ["toeplitz", "factormap"]),
            (["fiber", "--shift", "1", "--levels", "10"], 0,
             ["classification: toeplitz_point", "stabilization_index: -", "preimage_letters: a"],
             ["toeplitz", "factormap", "language"]),
            (["measure", "--word", "aca"], 0, ["2/7"], ["language"]),
            (["freq", "--word", "ac", "--window", "4096"], 0,
             ["count 1170 window 4096 frequency 0.2856445312"], ["ergodic", "language"]),
            (["spectrum", "--word", "ac", "--window", "4096", "--theta", "1/2"], 0,
             ["theta,magnitude,N", "1/2,2.856445312500e-01,4096"], ["ergodic", "language"]),
            (["spectrum", "--word", "ac", "--window", "4096", "--theta", "1/3"], 0,
             ["theta,magnitude,N", "1/3,3.469446951954e-17,4096"], ["ergodic", "language"]),
            (["encode", "--length", "64", "--precision", "8"], 3, [], ["toeplitz", "factormap"]),
            (["analyze", "--levels", "4", "--input", "{a64}"], 4, [], ["toeplitz", "language"]),
            (["fiber", "--seed-file", "{period_doubling}"], 4, [], ["toeplitz", "factormap", "language", "rules"]),
        ],
    )
    def test_command_runs_without_numpy(self, tmp_path, argv, code, lines, modules):
        files = {"a64": tmp_path / "a64.txt", "period_doubling": tmp_path / "rules.txt"}
        files["a64"].write_text("a" * 64 + "\n")
        files["period_doubling"].write_text("a -> ab\nb -> aa\n")
        proc = fresh(*(arg.format(**files) for arg in argv))
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.splitlines() == lines
        assert proc.stderr.splitlines()[-1] == "numpy loaded: False"
        # cli runs as __main__, so the report does not list it
        assert loaded(proc) == {"odoshift", "odoshift.errors", "odoshift.substitution",
                                *(f"odoshift.{module}" for module in modules)}

    # argparse, with gettext and locale, is loaded for help, errors and other spellings alone, and
    # they print what the parser of every command printed before a plain command line was read without it
    ENCODE_HELP = """\
usage: odoshift encode [-h] [--input INPUT | --seed-file SEED_FILE]
                       [--length LENGTH] [--shift SHIFT]
                       [--precision PRECISION]

options:
  -h, --help            show this help message and exit
  --input INPUT         prefix file (one line of letters over abcd), exit 4
                        unless they are a factor of the fixed point
  --seed-file SEED_FILE
                        substitution file ('x -> word' lines) whose fixed
                        point, grown from the first rule's letter, is checked
                        like --input
  --length LENGTH       length of the generated prefix when no --input is
                        given (default: the letters the command reads)
  --shift SHIFT         drop this many leading letters
  --precision PRECISION
                        number of dyadic digits
"""
    USAGE = """\
usage: odoshift [-h] [--json]
                {generate,analyze,encode,fiber,measure,freq,spectrum,verify}
                ...
"""

    @pytest.mark.parametrize(
        "argv, code, stdout, stderr",
        [
            (["encode", "--help"], 0, ENCODE_HELP, ""),
            (["encode", "--bogus"], 2, "", USAGE + "odoshift: error: unrecognized arguments: --bogus\n"),
            (["--js", "encode", "--precision", "4"], 0,
             json.dumps({"bits_lsb_first": "0000", "value": 0, "window_used": 64}, sort_keys=True) + "\n", ""),
        ],
    )
    def test_help_errors_and_abbreviations_load_argparse(self, monkeypatch, argv, code, stdout, stderr):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to this width
        proc = fresh(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr.rsplit("modules loaded:", 1)[0]) == (code, stdout, stderr)
        assert loaded(proc) >= {"argparse", "gettext", "locale"}


# Report on stderr, at exit, that the atexit hook ran and how many objects gc.freeze() moved to the
# permanent generation, then run `python -m odoshift.cli ARGS`.
REPORT_FROZEN = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count(), file=sys.stderr))\n"
    "runpy.run_module('odoshift.cli', run_name='__main__')\n"
)


class TestExit:
    """A process ends through ``cli.run``: ``main``, then gc.freeze(), with its output and exit code unchanged."""

    def test_main_in_process_freezes_nothing(self, capsys, tmp_path):
        short = tmp_path / "a64.txt"
        short.write_text("a" * 64 + "\n")
        before = gc.get_freeze_count()
        for argv, code in ((["measure", "--word", "aca"], 0), (["encode", "--length", "64", "--precision", "8"], 3),
                           (["analyze", "--levels", "4", "--input", str(short)], 4),
                           (["measure", "--word", "x"], 2)):
            assert run(capsys, *argv)[0] == code, argv
        with pytest.raises(SystemExit):
            cli.main(["encode", "--bogus"])
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, code", [(["measure", "--word", "aca"], 0), (["encode", "--bogus"], 2)])
    def test_a_fresh_process_freezes_at_exit_and_runs_its_atexit_hooks(self, argv, code):
        # argparse's error raises SystemExit out of main, and the process still freezes
        proc = fresh(*argv, script=REPORT_FROZEN)
        assert proc.returncode == code, proc.stderr
        label, _, count = proc.stderr.splitlines()[-1].rpartition(" ")
        assert label == "frozen at exit:" and int(count) > 0, proc.stderr

    def test_the_readme_commands_and_the_error_paths_print_what_main_prints(self, capsys, tmp_path):
        # in a fresh process, through the __main__ block, as in-process through main: the same exit code,
        # stdout and stderr, with verify's seconds masked
        short = tmp_path / "a64.txt"
        short.write_text("a" * 64 + "\n")
        argvs = [argv for argv, _ in readme_commands()]
        argvs += [["encode", "--length", "64", "--precision", "8"], ["analyze", "--levels", "4", "--input", str(short)],
                  ["--json", "freq", "--word", "ab", "--length", "3"], ["measure", "--word", "x"]]
        codes = set()
        for argv in argvs:
            want = run(capsys, *argv)
            proc = plain_cli(*argv)
            got = (proc.returncode, proc.stdout, proc.stderr)
            if argv[0] == "verify":
                want, got = ([code, re.sub(r" [\d.]+s: ", " s: ", out), err] for code, out, err in (want, got))
            assert got == want, argv
            codes.add(got[0])
        assert codes == {0, 2, 3, 4}

    def test_the_console_script_is_the_entry_of_the_main_block(self):
        # pyproject.toml read as text, so this runs at the Python 3.10 floor, which has no tomllib
        scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        (target,) = re.findall(r'^odoshift = "odoshift\.cli:(\w+)"$', scripts, re.MULTILINE)
        tree = ast.parse((ROOT / "src" / "odoshift" / "cli.py").read_text(encoding="utf-8"))
        (block,) = [node for node in tree.body
                    if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(statement) for statement in block.body] == [f"sys.exit({target}())"]
        assert target != "main" and callable(getattr(cli, target))


# The submodules the package namespace binds, and the names it exports from each.
EXPORTED = {
    "errors": ["InsufficientDataError", "InvalidInputError", "NotInSubshiftError", "OdoshiftError",
               "ResourceLimitError"],
    "substitution": ["Substitution", "SymbolicPrefix", "dyadic_valuation", "fixed_point_prefix",
                     "grigorchuk_codes", "grigorchuk_letter", "grigorchuk_prefix", "grigorchuk_substitution",
                     "validate_prolongable"],
    "language": ["class_measure", "invariant_measure_cylinder"],
    "toeplitz": ["EPSet", "PeriodSkeleton", "essential_periods", "period_skeleton", "smallest_partial_period"],
    "factormap": ["DyadicInt", "EncodingResult", "FiberReport", "classify_fiber", "encode_fG",
                  "sigma_preimage_letters", "verify_equivariance"],
    "ergodic": ["FrequencyEstimate", "SpectralSample", "cylinder_frequency", "invariant_measure_cylinder",
                "spectral_scan"],
}


class TestStartLoadsOnlyWhatRuns:
    """A command imports only the modules it runs, and the package namespace loads a module when read."""

    @pytest.mark.parametrize(
        "argv, fractions",
        [
            (["generate", "--length", "16"], False),
            (["analyze", "--levels", "4", "--input", "{omega}"], False),
            (["fiber", "--levels", "4", "--input", "{omega}"], False),
            (["measure", "--word", "aca"], True),
        ],
    )
    def test_only_a_command_that_measures_loads_fractions(self, tmp_path, argv, fractions):
        # the load check reads which letters extend the input, which takes no Fraction
        omega = tmp_path / "omega.txt"
        omega.write_text(grigorchuk_prefix(64).text + "\n")
        report = ("import atexit, runpy, sys\n"
                  "atexit.register(lambda: print('fractions' in sys.modules, file=sys.stderr))\n"
                  "runpy.run_module('odoshift.cli', run_name='__main__')\n")
        proc = fresh(*(arg.format(omega=omega) for arg in argv), script=report)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == str(fractions)

    def test_verify_loads_no_numpy(self):
        proc = fresh("verify", "--level", "quick")
        assert proc.returncode == 0, proc.stderr
        assert loaded(proc) == {"odoshift", "odoshift.errors", "odoshift.substitution", "odoshift.toeplitz",
                                "odoshift.factormap", "odoshift.ergodic", "odoshift.language",
                                "odoshift.verification"}
        assert proc.stderr.splitlines()[-1] == "numpy loaded: False"

    def test_importing_every_module_loads_no_numpy(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        script = ("import importlib, sys, odoshift\n"
                  "for name in (*odoshift._EXPORTS, 'verification'):\n"
                  "    importlib.import_module(f'odoshift.{name}')\n"
                  "print(len([m for m in sys.modules if m.startswith('odoshift.')]), 'numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, f"{len(odoshift._EXPORTS) + 1} False\n"), proc.stderr

    def test_importing_the_package_loads_no_submodule(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, odoshift; print(sorted(m for m in sys.modules if 'odoshift' in m))"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "['odoshift']\n"), proc.stderr

    @pytest.mark.parametrize("module", sorted(EXPORTED))
    def test_exported_names_are_the_module_objects(self, module):
        submodule = importlib.import_module(f"odoshift.{module}")
        assert getattr(odoshift, module) is submodule and module in dir(odoshift)
        for name in EXPORTED[module]:
            assert getattr(odoshift, name) is getattr(submodule, name), name
            assert name in dir(odoshift), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            odoshift.no_such_name
        # defined in a submodule, but never exported
        assert not hasattr(odoshift, "letter_sets")


# The stdout of the README's and the benchmark's freq and spectrum commands, and of a few shifted ones,
# taken when the bitsets counted every one of them: "$ odoshift ARGS" lines, each followed by the stdout
# of the command.  A change meant to alter them rewrites the file.
GOLDEN_COUNTS = ROOT / "tests" / "golden" / "freq_and_spectrum.txt"


def golden_commands():
    blocks = GOLDEN_COUNTS.read_text(encoding="ascii").split("$ odoshift ")[1:]
    return [(shlex.split(command), stdout) for command, _, stdout in (b.partition("\n") for b in blocks)]


def plain_cli(*argv, env=()):
    """``python -m odoshift.cli ARGS`` in a fresh interpreter, with ``env`` added to a clean environment."""
    environ = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    environ.pop("ODOSHIFT_MAX_BYTES", None)
    environ.update(env)
    return subprocess.run([sys.executable, "-m", "odoshift.cli", *argv], env=environ, capture_output=True,
                          text=True, timeout=60)


def test_a_reader_that_closes_stdout_early_ends_the_command_quietly():
    environ = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    environ.pop("ODOSHIFT_MAX_BYTES", None)
    argv = [sys.executable, "-m", "odoshift.cli", "generate", "--length", "10000000"]
    with subprocess.Popen(argv, env=environ, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(5)
        proc.stdout.close()  # as `| head -c 5` does, with most of the letters still to write
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (head, code, stderr) == (b"acaba", cli.EXIT_VALIDATION, b"")


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "odoshift").glob("*.py")), ids=lambda path: path.stem)
def test_every_module_imports_first(path):
    # the imports between modules, at the top and inside functions, form no cycle that an import order breaks
    module = "odoshift" if path.stem == "__init__" else f"odoshift.{path.stem}"
    others = sorted(f"odoshift.{p.stem}" for p in path.parent.glob("*.py") if p.stem != "__init__")
    proc = fresh(script=f"import {module}\n" + "".join(f"import {name}\n" for name in others))
    assert (proc.returncode, proc.stderr) == (0, ""), module


def test_every_module_parses_at_the_declared_python_floor():
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups()
    modules = sorted((ROOT / "src" / "odoshift").glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=tuple(map(int, floor)))


@pytest.mark.parametrize("argv, stdout", golden_commands(), ids=[" ".join(argv) for argv, _ in golden_commands()])
def test_freq_and_spectrum_print_their_golden_stdout(argv, stdout):
    proc = plain_cli(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == stdout


def test_the_golden_commands_cover_the_readme_and_the_benchmark():
    argvs = [argv for argv, _ in golden_commands()]
    readme = [argv for argv, _ in readme_commands() if argv[0] in ("freq", "spectrum")]
    windows = [["spectrum", "--word", "a", "--window", str(1 << j), "--theta", "1/2", "--theta", "1/3"]
               for j in range(10, 20)]
    assert len(readme) == 2 and all(argv in argvs for argv in readme + windows)
    assert any(argv[0] == "--json" and argv[1] == "freq" for argv in argvs)
    assert any(argv[0] == "--json" and argv[1] == "spectrum" and "--window" not in argv for argv in argvs)


# Report on stderr, at exit, which of the generators (the closed form, and the self-expansion that
# grows the rules of a --seed-file) and the bitsets' builder ran.
REPORT_BUILDERS = (
    "import atexit, runpy, sys\n"
    "from odoshift import ergodic, rules, substitution\n"
    "ran = set()\n"
    "def probe(module, name):\n"
    "    original = getattr(module, name)\n"
    "    setattr(module, name, lambda *args: ran.add(name) or original(*args))\n"
    "probe(substitution, 'grigorchuk_codes')\n"
    "probe(rules, '_expand')\n"
    "probe(ergodic, '_plane')\n"
    "atexit.register(lambda: print('ran:', *sorted(ran), file=sys.stderr))\n"
    "runpy.run_module('odoshift.cli', run_name='__main__')\n"
)


class TestCountsOnTheFixedPointReadNoLetters:
    """On generated input, freq and spectrum up to q = 128 count by desubstitution: no letter is generated."""

    @pytest.mark.parametrize(
        "argv, ran",
        [
            (["freq", "--word", "a", "--window", "1048576"], ""),
            (["freq", "--word", "acab", "--shift", "12345", "--window", "99999"], ""),
            (["spectrum", "--word", "a", "--theta", "1/2", "--theta", "1/3"], ""),
            (["spectrum", "--word", "dac", "--shift", "7", "--window", "4096", "--theta", "5/128"], ""),
            # the probe sees what runs: a theta past q = 128 reads the letters, as generate does
            (["spectrum", "--word", "a", "--window", "4096", "--theta", "1/129"], " _plane grigorchuk_codes"),
            (["generate", "--length", "16"], " grigorchuk_codes"),
            # rules read from a file are grown by expanding their own letters, even the Grigorchuk rules
            (["generate", "--length", "16", "--seed-file", "{rules}"], " _expand"),
        ],
    )
    def test_what_a_command_builds(self, tmp_path, argv, ran):
        rules = tmp_path / "grigorchuk.txt"
        rules.write_text(GRIGORCHUK_RULES)
        proc = fresh(*(arg.format(rules=rules) for arg in argv), script=REPORT_BUILDERS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "ran:" + ran

    # exit codes and stderr as they were when the letters were generated first
    @pytest.mark.parametrize(
        "env, argv, code, stderr",
        [
            ({}, ["freq", "--word", "a", "--window", "1048576", "--length", "1000"], 3,
             "error: insufficient data: window 1048576 with word length 1 needs prefix length 1048576, have 1000"
             " (required prefix length: 1048576)"),
            ({}, ["spectrum", "--word", "a", "--theta", "1/2", "--length", "100"], 3,
             "error: insufficient data: window 1048576 with word length 1 needs prefix length 1048576, have 100"
             " (required prefix length: 1048576)"),
            ({}, ["freq", "--word", "ab", "--window", "100", "--shift", "50", "--length", "120"], 3,
             "error: insufficient data: window 100 with word length 2 needs prefix length 101, have 70"
             " (required prefix length: 151)"),
            ({}, ["freq", "--word", "a", "--window", "100", "--shift", "200", "--length", "150"], 2,
             "error: shift 200 outside 0..149"),
            ({}, ["spectrum", "--word", "a", "--theta", "1/2", "--shift=-1"], 2,
             "error: shift must be nonnegative, got -1"),
            ({"ODOSHIFT_MAX_BYTES": "1000"}, ["freq", "--word", "a", "--window", "4096"], 2,
             "error: requested length 4096 exceeds the cap of 1000 bytes"),
            ({"ODOSHIFT_MAX_BYTES": "1000"}, ["spectrum", "--word", "a", "--window", "4096", "--theta", "1/3"], 2,
             "error: requested length 4096 exceeds the cap of 1000 bytes"),
            ({}, ["spectrum", "--word", "a", *(f"--theta=1/{(1 << 20) + k}" for k in range(1, 12))], 2,
             "error: spectrum of 11 distinct thetas over window 1048576 takes 18350080 terms,"
             " over the budget of 16777216"),
            ({}, ["spectrum", "--word", "a", *(f"--theta={k}/128" for k in range(1, 128, 2)),
                  *(f"--theta={k}/127" for k in range(1, 127)), *(f"--theta={k}/125" for k in range(1, 125) if k % 5)],
             2, "error: spectrum of 290 distinct thetas over window 1048576 takes 19835904 terms,"
                " over the budget of 16777216"),
        ],
    )
    def test_errors_keep_their_exit_code_and_message(self, env, argv, code, stderr):
        proc = plain_cli(*argv, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", stderr + "\n")

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM, Linux only")
    def test_a_long_window_costs_no_more_memory_than_a_measure(self):
        # freq over 2^27 starts generated 2^27 + 3 letters; now it peaks as measure does, which reads none
        peaks = {argv[0]: peak_kib(*argv) for argv in (["measure", "--word", "a"],
                                                        ["freq", "--word", "acab", "--window", "134217728"])}
        assert peaks["freq"] <= peaks["measure"] + 2048, peaks

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM, Linux only")
    def test_a_far_shift_costs_no_more_memory_than_a_measure(self):
        # analyze reads 64 letters after shift 10^8: it makes those, not the 10^8 before them
        peaks = {argv[0]: peak_kib(*argv) for argv in (["measure", "--word", "a"],
                                                        ["analyze", "--levels", "4", "--shift", "100000000"])}
        assert peaks["analyze"] <= peaks["measure"] + 2048, peaks


def peak_kib(*argv) -> int:
    """VmHWM of a fresh cli run in KiB: the peak RSS of the interpreter's own memory, where ru_maxrss
    would start from the peak of the process that started it."""
    report = ("import atexit, re, runpy, sys\n"
              "atexit.register(lambda: print(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1],\n"
              "    file=sys.stderr))\n"
              "runpy.run_module('odoshift.cli', run_name='__main__')\n")
    proc = fresh(*argv, script=report)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.splitlines()[-1])
