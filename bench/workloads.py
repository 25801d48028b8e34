"""The workloads: seeded inputs, ops and their checks.

Every op is checked against an answer the benchmark knows without asking
the program under test: the closed-form letter rule (the letter at
position m is ``a`` when m is odd, otherwise d, c, b by the 2-adic
valuation of m mod 3), ``s mod 2^k`` for dyadic encodings, exact counts
made from that rule for cylinder frequencies, and known output of the
README commands.

An op whose check fails is a failure, unless its output is exactly the
behaviour of a defect recorded in ``spec.json`` under ``known_failures``;
then it is counted as a known failure.  A fixed defect therefore shows as
fewer known failures, and any other wrong answer stays a failure.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 150.0

ALPHABET = "abcd"


# ---------------------------------------------------------------------------
# The benchmark's own closed form for the fixed point of a->aca, b->d, c->b, d->c.


def valuation(m: int) -> int:
    return (m & -m).bit_length() - 1


def letter(m: int) -> str:
    """Letter at 1-based position m."""
    v = valuation(m)
    return "a" if v == 0 else "dcb"[v % 3]


def oracle_codes(length: int):
    """Alphabet indices of positions 1..length, written level by level."""
    import numpy as np

    codes = np.zeros(length, dtype=np.uint8)  # odd positions: a
    v = 1
    while (1 << v) <= length:
        codes[(1 << v) - 1 :: 1 << (v + 1)] = ALPHABET.index(letter(1 << v))
        v += 1
    return codes


def bits_lsb_first(value: int, precision: int) -> str:
    return "".join(str((value >> i) & 1) for i in range(precision))


# ---------------------------------------------------------------------------
# Running ops.


@dataclass
class Proc:
    """A finished child process."""

    code: int
    seconds: float
    maxrss_kb: int
    out: str
    err: str


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ODOSHIFT_MAX_BYTES", None)  # every run uses the default allocation cap
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, env, timeout=CHILD_TIMEOUT_S) -> Proc:
    """Run one child to completion; wall time from spawn to reap, rusage from wait4."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    reaped = threading.Event()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], list(argv), env, file_actions=actions)

    def kill():
        if not reaped.is_set():
            os.kill(pid, signal.SIGKILL)

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        reaped.set()
        watchdog.cancel()
        watchdog.join()
    seconds = time.perf_counter() - start
    return Proc(
        code=os.waitstatus_to_exitcode(status),
        seconds=seconds,
        maxrss_kb=usage.ru_maxrss,
        out=out_path.read_text(encoding="utf-8", errors="replace"),
        err=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@dataclass
class Op:
    """One operation: ``run`` does the work, ``check`` returns None or what was wrong."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    known: str | None = None  # id of the recorded defect this op can show
    shows_known: Callable[[Any], bool] | None = None


@dataclass
class Outcome:
    kind: str
    seconds: float
    status: str  # "ok", "failed" or "known"
    reason: str | None
    output: Any


def execute(op: Op) -> tuple:
    """Time one op.  An exception from the program is the op's output, and fails its check."""
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # the program under test raised: record it as this op's failure
        output = exc
    return output, time.perf_counter() - start


def judge(op: Op, output, seconds, known_ids) -> Outcome:
    if isinstance(output, Exception):
        reason = f"raised {output!r}"
    else:
        reason = op.check(output)
    if reason is None:
        return Outcome(op.kind, seconds, "ok", None, output)
    if op.known in known_ids and not isinstance(output, Exception) and op.shows_known(output):
        return Outcome(op.kind, seconds, "known", f"{op.known}: {reason}", output)
    return Outcome(op.kind, seconds, "failed", reason, output)


class Workload:
    """Seeded inputs, setup and ops of one workload."""

    name = ""
    in_process = False  # ops run in this process rather than in children

    def __init__(self, seed: int):
        self.rng = random.Random(f"odoshift-bench/{self.name}/{seed}")

    def setup_argv(self):
        """Command of one timed setup trial, run in a fresh child."""
        return [sys.executable, str(BENCH / "child.py"), "setup", self.name]

    def prepare(self):
        """Set up in this process before the timed phase."""

    def make_pass(self, traced: bool) -> list:
        """The ops of one pass, drawn from the seeded generator."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# words: exact measure and exact frequency of short words.

WORDS_WINDOW = 1 << 20
WORDS_MAX = 14
WORDS_PREFIX = WORDS_WINDOW + WORDS_MAX - 1
WORDS_PER_LENGTH = 2  # each length 1..14 twice per pass
WORDS_MUTATED = 7  # of the 28 words in a pass, one letter changed
WORDS_TOLERANCE = Fraction(1, 64)


def fixed_point(length):
    """Generate a fixed-point prefix and check it against the program's closed-form oracle."""
    import numpy as np
    from odoshift import substitution

    prefix = substitution.fixed_point_prefix(substitution.grigorchuk_substitution(), "a", length)
    if not np.array_equal(prefix.codes, substitution.grigorchuk_codes(length)):
        raise RuntimeError(f"generated prefix of length {length} disagrees with grigorchuk_codes")
    return prefix


def words_setup():
    from odoshift import ergodic

    prefix = fixed_point(WORDS_PREFIX)
    ergodic.invariant_measure_cylinder("a")
    ergodic.cylinder_frequency(prefix, "a", WORDS_WINDOW)
    return prefix


class Words(Workload):
    name = "words"
    in_process = True

    def prepare(self):
        self.prefix = words_setup()
        self.counts = None  # length -> {base-4 word value: count}, built by the first check

    def draw_word(self, length: int, mutate: bool) -> str:
        m = self.rng.randint(1, WORDS_WINDOW)
        word = [letter(m + j) for j in range(length)]
        if mutate:
            j = self.rng.randrange(length)
            word[j] = self.rng.choice([c for c in ALPHABET if c != word[j]])
        return "".join(word)

    def make_pass(self, traced):
        lengths = [t for t in range(1, WORDS_MAX + 1) for _ in range(WORDS_PER_LENGTH)]
        self.rng.shuffle(lengths)
        mutated = set(self.rng.sample(range(len(lengths)), WORDS_MUTATED))
        return [self.op(self.draw_word(t, i in mutated)) for i, t in enumerate(lengths)]

    def op(self, word):
        from odoshift import ergodic

        prefix = self.prefix

        def run():
            mu = ergodic.invariant_measure_cylinder(word)
            estimate = ergodic.cylinder_frequency(prefix, word, WORDS_WINDOW)
            return mu, estimate.count, estimate.frequency

        def check(output):
            mu, count, frequency = output
            expected = self.count(word)
            if count != expected:
                return f"{word}: count {count}, expected {expected}"
            if frequency != Fraction(count, WORDS_WINDOW):
                return f"{word}: frequency {frequency} is not count/window"
            if (mu == 0) != (count == 0):
                return f"{word}: measure {mu} but count {count}"
            if abs(frequency - mu) > WORDS_TOLERANCE:
                return f"{word}: |frequency - measure| = {abs(frequency - mu)} > 2^-6"
            return None

        return Op("words", run, check)

    def count(self, word: str) -> int:
        """Occurrences starting at 1..WORDS_WINDOW, from the benchmark's own codes."""
        if self.counts is None:
            import numpy as np

            codes = oracle_codes(WORDS_PREFIX).astype(np.uint32)
            self.counts = {}
            h = np.zeros(WORDS_WINDOW, dtype=np.uint32)
            for t in range(1, WORDS_MAX + 1):
                h = h * 4 + codes[t - 1 : t - 1 + WORDS_WINDOW]
                keys, counts = np.unique(h, return_counts=True)
                self.counts[t] = dict(zip(keys.tolist(), counts.tolist()))
        key = 0
        for ch in word:
            key = key * 4 + ALPHABET.index(ch)
        return self.counts[len(word)].get(key, 0)


# ---------------------------------------------------------------------------
# cli: fresh `odoshift` processes.

IMPORT_CLI = [sys.executable, "-c", "import odoshift.cli"]

ALL_CLAIMS = 10


def cli_argv(args, trace_file=None):
    if trace_file is None:
        return [sys.executable, "-m", "odoshift.cli", *args]
    return [sys.executable, str(BENCH / "child.py"), "cli", str(trace_file), *args]


def expect(code, lines=None):
    """Check: exit ``code`` and, when given, exactly these stdout lines."""

    def check(proc):
        if proc.code != code:
            return f"exit {proc.code}, expected {code}: {proc.err.strip()[-300:]}"
        if lines is not None and proc.out.splitlines() != lines:
            return f"stdout {proc.out.splitlines()[:6]}, expected {lines[:6]}"
        return None

    return check


def verify_check(proc):
    """`verify --level full` must exit 0 with every claim PASS and 'verdict: ok'."""
    lines = proc.out.splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    if proc.code != 0:
        return f"exit {proc.code}: {proc.err.strip()[-300:]} {lines[-3:]}"
    if len(passed) != ALL_CLAIMS or len(lines) != ALL_CLAIMS + 1 or lines[-1] != "verdict: ok":
        return f"expected {ALL_CLAIMS} PASS lines and 'verdict: ok', got {lines}"
    return None


LETTER_MEASURE = {"a": Fraction(1, 2), "b": Fraction(1, 7), "c": Fraction(2, 7), "d": Fraction(1, 14)}


def known_measures():
    """Words whose measure is known in closed form.

    Odd positions hold a and even ones never do, so a factor alternates
    between a and other letters: a x, x a and a x a each have measure mu(x),
    and a a or two non-a letters side by side have measure 0.
    """
    out = dict(LETTER_MEASURE)
    for x in "bcd":
        out["a" + x] = out[x + "a"] = out["a" + x + "a"] = LETTER_MEASURE[x]
    for x in ALPHABET:
        for y in ALPHABET:
            if (x == "a") == (y == "a"):
                out[x + y] = Fraction(0)
    return out


KNOWN_MEASURES = known_measures()

CLI_LENGTH = 1 << 20  # the CLI's default --length
PERIOD_DOUBLING = "a -> ab\nb -> aa\n"


def spectrum_check(window):
    def check(proc):
        if proc.code != 0:
            return f"exit {proc.code}, expected 0: {proc.err.strip()[-300:]}"
        lines = proc.out.splitlines()
        if len(lines) != 3 or lines[0] != "theta,magnitude,N":
            return f"stdout {lines}, expected a header and two rows"
        rows = [line.split(",") for line in lines[1:]]
        if [r[0] for r in rows] != ["1/2", "1/3"] or any(r[2] != str(window) for r in rows):
            return f"rows {rows}"
        half, third = float(rows[0][1]), float(rows[1][1])
        if abs(half - 0.5) > 2**-10 or third > 1e-2:
            return f"magnitudes {half} at 1/2 and {third} at 1/3"
        return None

    return check


class Cli(Workload):
    """Each op is one fresh `odoshift` process; traced ops run it under the tracer."""

    name = "cli"

    def __init__(self, seed):
        super().__init__(seed)
        self.env = child_env()
        self.trace_files = []  # (op number, span file) of each traced child
        self.ops_started = 0

    def setup_argv(self):
        return IMPORT_CLI

    def command(self, kind, args, check, traced, known=None, shows_known=None):
        def run():
            self.ops_started += 1
            trace_file = None
            if traced:
                trace_file = WORK / f"trace-{self.ops_started}.json"
                self.trace_files.append((self.ops_started, trace_file))
            return spawn(cli_argv(args, trace_file), self.env)

        return Op(kind, run, check, known, shows_known)

    def prepare(self):
        WORK.mkdir(exist_ok=True)
        self.periodic_file = WORK / "sixty_four_a.txt"
        self.periodic_file.write_text("a" * 64 + "\n", encoding="ascii")
        self.rules_file = WORK / "period_doubling.txt"
        self.rules_file.write_text(PERIOD_DOUBLING, encoding="ascii")
        self.letters_used = []  # (window_used, --length) of --json encode ops

    def make_pass(self, traced):
        rng = self.rng
        c = self.command
        precision = rng.randint(4, 16)
        shift = rng.randint(0, CLI_LENGTH - (1 << (precision + 2)))
        json_precision = rng.randint(4, 16)
        json_shift = rng.randint(0, CLI_LENGTH - (1 << (json_precision + 2)))
        window = 1 << rng.randint(10, 19)
        word = rng.choice(sorted(KNOWN_MEASURES))
        mu = KNOWN_MEASURES[word]
        count_a = CLI_LENGTH // 2
        ops = [
            c("verify", ["verify", "--level", "full"], verify_check, traced),
            c("generate", ["generate", "--length", "16"], expect(0, ["acabacadacabacac"]), traced),
            c("analyze", ["analyze", "--levels", "4"],
              expect(0, ["1 2 a", "2 4 c", "3 8 b", "4 16 d", "classification: toeplitz_like"]), traced),
            c("encode", ["encode", "--shift", str(shift), "--precision", str(precision)],
              expect(0, [bits_lsb_first(shift, precision)]), traced),
            c("encode", ["--json", "encode", "--shift", str(json_shift), "--precision", str(json_precision)],
              self.json_encode_check(json_shift, json_precision), traced),
            c("fiber", ["fiber", "--shift", "1", "--levels", "10"],
              expect(0, ["classification: toeplitz_point", "stabilization_index: -",
                         "preimage_letters: a"]), traced),
            c("measure", ["measure", "--word", word], expect(0, [f"{mu.numerator}/{mu.denominator}"]), traced),
            c("freq", ["freq", "--word", "a", "--window", str(CLI_LENGTH)],
              expect(0, [f"count {count_a} window {CLI_LENGTH} frequency 0.5000000000"]), traced),
            c("spectrum", ["spectrum", "--word", "a", "--theta", "1/2", "--theta", "1/3"],
              spectrum_check(CLI_LENGTH), traced,
              known="spectrum_default_window", shows_known=lambda p: p.code == 3),
            c("spectrum", ["spectrum", "--word", "a", "--window", str(window),
                           "--theta", "1/2", "--theta", "1/3"], spectrum_check(window), traced),
            c("encode", ["encode", "--length", "64", "--precision", "8"], expect(3, []), traced),
            c("analyze", ["analyze", "--levels", "4", "--input", str(self.periodic_file)], expect(4, []), traced),
            c("fiber", ["fiber", "--seed-file", str(self.rules_file)], expect(4, []), traced,
              known="fiber_outside_subshift",
              shows_known=lambda p: p.code == 0 and "preimage_letters: " in p.out.splitlines()),
        ]
        rng.shuffle(ops)
        return ops

    def json_encode_check(self, shift, precision):
        def check(proc):
            if proc.code != 0:
                return f"exit {proc.code}: {proc.err.strip()[-300:]}"
            try:
                body = json.loads(proc.out)
            except json.JSONDecodeError:
                return f"stdout is not JSON: {proc.out[:200]!r}"
            value = shift % (1 << precision)
            if body.get("value") != value or body.get("bits_lsb_first") != bits_lsb_first(value, precision):
                return f"JSON {body}, expected value {value}"
            used = body.get("window_used")
            if not isinstance(used, int) or not 0 < used <= CLI_LENGTH:
                return f"window_used {used!r} outside 1..{CLI_LENGTH}"
            self.letters_used.append((used, CLI_LENGTH))
            return None

        return check


WORKLOADS = {w.name: w for w in (Words, Cli)}
