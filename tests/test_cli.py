import json
import re
import shlex
from pathlib import Path

import pytest

from odoshift import cli
from odoshift.substitution import grigorchuk_prefix

README = Path(__file__).resolve().parents[1] / "README.md"


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
        rules = tmp_path / "thue_morse_like.txt"
        rules.write_text("# period doubling\na -> ab\nb -> aa\n")
        code, out, _ = run(capsys, "generate", "--length", "8", "--seed-file", str(rules))
        assert code == 0
        assert out.strip() == "abaaabab"

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


class TestFreq:
    def test_letter_a(self, capsys):
        code, out, _ = run(capsys, "freq", "--word", "a", "--length", "65536", "--window", "32768")
        assert code == 0
        assert "count 16384 window 32768" in out


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


class TestDemandSizedInput:
    """Commands generate min(--length, shift + what they read) letters."""

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
            (["encode", "--length", "1000", "--shift", "10", "--precision", "8"], 1024),
            (["fiber", "--length", "100", "--levels", "4", "--horizon", "200"], 199),
            (["freq", "--length", "100", "--word", "ab", "--window", "100"], 101),
        ],
    )
    def test_short_length_names_the_required_length(self, capsys, argv, required):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert f"required prefix length: {required})" in err

    @pytest.mark.parametrize("shift, length", [(-3, 1 << 20), (64, 64), (100, 64)])
    def test_shift_outside_the_length(self, capsys, shift, length):
        code, _, err = run(capsys, "encode", "--precision", "4", "--shift", str(shift),
                           "--length", str(length))
        assert code == 2
        assert f"error: shift {shift} outside 0..{length - 1}" in err

    COMMANDS = [
        ["analyze", "--levels", "6"],
        ["encode", "--shift", "100", "--precision", "10"],
        ["--json", "encode", "--shift", "7", "--precision", "12"],
        ["fiber", "--shift", "3", "--levels", "8"],
        ["--json", "fiber", "--levels", "9", "--horizon", "300"],
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
