"""Command-line entry point.

Exit codes: 0 ok, 2 validation / I-O, 3 insufficient data, 4 not in the
subshift, 5 verification failure.  A reader that closes stdout early, as
``odoshift generate | head -c 5`` does, ends the command quietly with
exit 2: nothing is printed on stderr.  Output is a stable line grammar;
``--json`` emits the same data as JSON.  Each command imports the modules
it runs when it runs, and calls them through the module, so a one-shot
process loads no module that its command does not use.  ``COMMANDS`` is
the one table of the commands, and ``main`` builds the parser of the
command that argv names alone, with the usage, help and errors of the
parser of every command.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import substitution
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    NotInSubshiftError,
    ResourceLimitError,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INSUFFICIENT_DATA = 3
EXIT_NOT_IN_SUBSHIFT = 4
EXIT_VERIFICATION_FAILED = 5

DEFAULT_LENGTH = 1 << 20
DEFAULT_PRECISION = 16
DEFAULT_WINDOW = 1 << 20


def _load_input(args, need: int) -> substitution.SymbolicPrefix:
    """Prefix from --input, or a (possibly shifted) generated fixed point.

    ``need`` is the number of letters the command reads after the shift, so
    a generated prefix has shift + need letters, the default --length: every
    letter the answer reads and no more.  A given --length caps them, and a
    shorter one fails in the command, with the length it requires.

    The letters of an --input file and those a --seed-file's fixed point
    grows from its first rule's letter are one user-supplied sequence: both
    are read into codes over 'abcd' and language-checked before the shift,
    so the same letters give the same answer by either route.  Letters of measure
    0, which no letter extends, are no factor of the fixed point:
    NotInSubshiftError.
    Only the Grigorchuk fixed point itself goes unchecked.
    """
    shift = args.shift
    if args.input:
        prefix = substitution.load_prefix(args.input)
        origin = f"of {args.input}"
    else:
        if args.length is None and shift < 0:  # the length, and so the range, would come from the shift
            raise InvalidInputError(f"shift must be nonnegative, got {shift}")
        length = shift + need if args.length is None else args.length
        if length >= 1:
            if not 0 <= shift < length:
                raise InvalidInputError(f"shift {shift} outside 0..{length - 1}")
            length = min(length, shift + need)
        if args.seed_file:
            from . import rules

            sub = rules.load_substitution(args.seed_file)
            prefix = substitution.fixed_point_prefix(sub, sub.letters[0], length)
            origin = f"grown from {args.seed_file}"
        else:
            prefix = substitution.fixed_point_prefix(substitution.grigorchuk_substitution(), "a", length)
            origin = None
    if origin and not prefix.left_extensions:
        raise NotInSubshiftError(
            f"the {len(prefix)} letters {origin} are not a factor of the fixed point"
        )
    return prefix.shifted(shift) if shift else prefix


def _skeleton_need(depth: int) -> int:
    """Letters a skeleton of the given depth reads (a depth below 1 is rejected later).

    A depth K whose 2^(K+2) letters pass the sequence cap, K + 2 >= the
    cap's bit length, is a ResourceLimitError on every input route, before
    that number is built.
    """
    from . import toeplitz

    cap = substitution.sequence_byte_cap()
    if depth + 2 >= cap.bit_length():
        raise ResourceLimitError(f"skeleton depth {depth} reads 2^{depth + 2} letters, over the cap of {cap} bytes")
    return toeplitz.skeleton_window(max(depth, 1))


def _window_need(args) -> int:
    """Letters read by counting --word over --window start positions."""
    return max(args.window, 1) + max(len(args.word), 1) - 1


def _emit(args, lines, payload) -> None:
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_generate(args) -> int:
    prefix = _load_input(args, args.length)
    if args.output:
        substitution.save_prefix(prefix, args.output)
    text = prefix.text
    _emit(args, [text], {"length": len(prefix), "prefix": text})
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from . import toeplitz

    prefix = _load_input(args, _skeleton_need(args.levels))
    skeleton = toeplitz.period_skeleton(prefix, args.levels)
    lines = [
        f"{k} {m} {l}"
        for k, (m, l) in enumerate(zip(skeleton.levels, skeleton.letters), start=1)
    ]
    lines.append(f"classification: {skeleton.classification}")
    _emit(
        args,
        lines,
        {
            "levels": list(skeleton.levels),
            "letters": list(skeleton.letters),
            "classification": skeleton.classification,
            "window_used": skeleton.window_used,
        },
    )
    return EXIT_OK


def _cmd_encode(args) -> int:
    from . import factormap

    prefix = _load_input(args, _skeleton_need(args.precision))
    result = factormap.encode_fG(prefix, args.precision)
    bits = result.value.to_text()
    _emit(
        args,
        [bits],
        {"bits_lsb_first": bits, "value": result.value.value, "window_used": result.window_used},
    )
    return EXIT_OK


def _cmd_fiber(args) -> int:
    from . import factormap

    # the preimage test reads every letter held after the shift, so both routes to them agree,
    # and at least the shift's floor, to read past the head that the shift repeats
    need = max(_skeleton_need(args.levels), factormap.default_language_horizon(args.shift) - 1)
    prefix = _load_input(args, need)
    if args.levels >= 1 and len(prefix) < need:  # a depth below 1 exits 2 in classify_fiber
        raise InsufficientDataError(f"fiber needs {need} letters after the shift, have {len(prefix)}", need)
    report = factormap.classify_fiber(prefix, args.levels)
    index = "-" if report.stabilization_index is None else str(report.stabilization_index)
    lines = [
        f"classification: {report.classification}",
        f"stabilization_index: {index}",
        f"preimage_letters: {''.join(sorted(report.sigma_preimage_letters))}",
    ]
    _emit(
        args,
        lines,
        {
            "classification": report.classification,
            "stabilization_index": report.stabilization_index,
            "preimage_letters": sorted(report.sigma_preimage_letters),
        },
    )
    return EXIT_OK


def _cmd_measure(args) -> int:
    from . import language

    value = language.invariant_measure_cylinder(args.word)
    _emit(
        args,
        [f"{value.numerator}/{value.denominator}"],
        {"word": args.word, "numerator": value.numerator, "denominator": value.denominator},
    )
    return EXIT_OK


def _cmd_freq(args) -> int:
    from . import ergodic

    prefix = _load_input(args, _window_need(args))
    est = ergodic.cylinder_frequency(prefix, args.word, args.window)
    lines = [f"count {est.count} window {est.window} frequency {float(est.frequency):.10f}"]
    _emit(
        args,
        lines,
        {"word": est.word, "count": est.count, "window": est.window, "frequency": float(est.frequency)},
    )
    return EXIT_OK


def _theta(text: str):
    """``Fraction(text)``, refused where it is none or where its numerator or denominator, past the
    int-string digit limit, could not be printed.

    The exponent is read first.  Past the limit by more than the text's
    length it makes a nonzero mantissa's numerator or denominator too long,
    so no power of ten is built for it.
    """
    import re
    from fractions import Fraction

    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before Python 3.10.7
    scaled = re.fullmatch(r"(.*)[eE]([-+]?[\d_]+\s*)", text)
    try:
        if limit and scaled and abs(int(scaled[2])) > limit + len(text):
            if Fraction(scaled[1] + "e0") == 0:  # the mantissa, read as in the whole text
                return Fraction(0)
        else:
            theta = Fraction(text)
            if not limit or max(abs(theta.numerator), theta.denominator) < 10**limit:
                return theta
    except (ValueError, ZeroDivisionError):
        pass
    raise InvalidInputError(f"--theta must be a fraction p/q with q nonzero, got {text!r}")


def _cmd_spectrum(args) -> int:
    from . import ergodic

    thetas = [_theta(theta) for theta in args.theta]
    prefix = _load_input(args, _window_need(args))
    samples = ergodic.spectral_scan(prefix, thetas, args.word, args.window)
    lines = ["theta,magnitude,N"]
    lines += [f"{s.theta},{s.magnitude:.12e},{s.window}" for s in samples]
    _emit(
        args,
        lines,
        {
            "word": args.word,
            "window": args.window,
            "samples": [{"theta": str(s.theta), "magnitude": s.magnitude} for s in samples],
        },
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    # no odoshift code calls BLAS, so numpy's import need not start a BLAS thread per core;
    # once numpy is loaded the setting does nothing, and a value the user set wins
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import verification

    results = verification.run_all(args.level)
    lines = [f"{'PASS' if r.ok else 'FAIL'} {r.name} {r.seconds:.3f}s: {r.detail}" for r in results]
    ok = all(r.ok for r in results)
    lines.append(f"verdict: {'ok' if ok else 'FAILED'}")
    _emit(
        args,
        lines,
        {
            "level": args.level,
            "checks": [
                {"name": r.name, "ok": r.ok, "detail": r.detail, "seconds": r.seconds,
                 "maxrss_kb": r.maxrss_kb}
                for r in results
            ],
            "ok": ok,
        },
    )
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _add_input_options(parser, length=None):
    """Input options; ``length`` None stands for the letters the command reads."""
    default = "the letters the command reads" if length is None else length
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--input", help="prefix file (one line of letters over abcd), "
                        "exit 4 unless they are a factor of the fixed point")
    source.add_argument("--seed-file", help="substitution file ('x -> word' lines) whose fixed point, "
                        "grown from the first rule's letter, is checked like --input")
    parser.add_argument("--length", type=int, default=length,
                        help=f"length of the generated prefix when no --input is given (default: {default})")
    parser.add_argument("--shift", type=int, default=0, help="drop this many leading letters")


# Each command's name -> its help, its options and its handler.  An option is a flag and the keyword
# arguments of its add_argument call; the flag INPUT stands for the input options, and its keyword
# arguments go to _add_input_options.
INPUT = None
COMMANDS = {
    "generate": ("print a fixed-point prefix", (
        (INPUT, {"length": DEFAULT_LENGTH}),
        ("--output", {"help": "also write the prefix to this file"}),
    ), _cmd_generate),
    "analyze": ("period skeleton: one 'k M_k l_k' line per level", (
        (INPUT, {}),
        ("--levels", {"type": int, "default": DEFAULT_PRECISION, "help": "skeleton depth K"}),
    ), _cmd_analyze),
    "encode": ("dyadic encoding, LSB-first bit string", (
        (INPUT, {}),
        ("--precision", {"type": int, "default": DEFAULT_PRECISION, "help": "number of dyadic digits"}),
    ), _cmd_encode),
    "fiber": ("classify a sequence's fiber under the factor map", (
        (INPUT, {}),
        ("--levels", {"type": int, "default": 12, "help": "skeleton depth K"}),
    ), _cmd_fiber),
    "measure": ("exact invariant measure of a cylinder word", (
        ("--word", {"required": True}),
    ), _cmd_measure),
    "freq": ("exact occurrence count over a window", (
        (INPUT, {}),
        ("--word", {"required": True}),
        ("--window", {"type": int, "default": DEFAULT_WINDOW}),
    ), _cmd_freq),
    "spectrum": ("exponential-sum magnitudes (CSV: theta,magnitude,N)", (
        (INPUT, {}),
        ("--word", {"required": True}),
        ("--window", {"type": int, "default": DEFAULT_WINDOW}),
        ("--theta", {"action": "append", "required": True, "help": "rational frequency like 1/3 (repeatable)"}),
    ), _cmd_spectrum),
    "verify": ("run the end-to-end verification suite", (
        ("--level", {"choices": ("quick", "full"), "default": "quick"}),
    ), _cmd_verify),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.

    A parser of one command parses that command's argv as the full parser
    does, with the same usage, help and errors: its usage names every
    command, and no other command's name can reach it.
    """
    parser = argparse.ArgumentParser(
        prog="odoshift",
        description="Substitution subshifts, Toeplitz skeletons, and the dyadic odometer factor map",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    every = "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if command is None else every)
    for name, (summary, options, handler) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in options:
            if flag is INPUT:
                _add_input_options(p, **kwargs)
            else:
                p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _command_of(argv) -> str | None:
    """The command that ``argv`` names when only --json, or an abbreviation of it, comes before it."""
    for token in argv:
        if token in COMMANDS:
            return token
        if len(token) < 3 or not "--json".startswith(token):
            return None
    return None


def main(argv=None) -> int:
    """Run one command and return its exit code.

    ``verify`` may set ``OPENBLAS_NUM_THREADS`` in the process environment
    and leaves it set on return.
    """
    argv = sys.argv[1:] if argv is None else argv
    # a one-shot process builds the parser of its command alone; help, and any argv that
    # names no command after --json, take the parser of every command
    args = build_parser(_command_of(argv)).parse_args(argv)
    try:
        return args.func(args)
    except InsufficientDataError as exc:
        # the hint is a --length to ask for, so it counts the letters before the shift too
        shift = getattr(args, "shift", 0)
        hint = f" (required prefix length: {exc.required_length + shift})" if exc.required_length else ""
        print(f"error: insufficient data: {exc}{hint}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except NotInSubshiftError as exc:
        print(f"error: not in subshift: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_SUBSHIFT
    except BrokenPipeError:
        # the reader of stdout is gone: what is still buffered goes nowhere, so the flush at exit reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    except (InvalidInputError, ResourceLimitError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
