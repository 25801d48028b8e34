"""Command-line entry point.

Exit codes: 0 ok, 2 validation / I-O, 3 insufficient data, 4 not in the
subshift, 5 verification failure.  A reader that closes stdout early, as
``odoshift generate | head -c 5`` does, ends the command quietly with
exit 2: nothing is printed on stderr.  Output is a stable line grammar;
``--json`` emits the same data as JSON.  Each command imports the modules
it runs when it runs, and calls them through the module, so a one-shot
process loads no module that its command does not use.  ``COMMANDS`` is
the one table of the commands and their options.  ``main`` reads a plain
command line, ``[--json] COMMAND --flag value ...``, straight from that
table, into the namespace argparse would make of it; only help, an error
or another spelling, such as an abbreviated flag or ``--flag=value``,
imports argparse and builds the parser of every command from the table.
``run`` is the process's entry, for ``python -m odoshift.cli`` and the
installed ``odoshift`` alike: it returns ``main()``'s exit code after
``gc.freeze()``, so the collections at interpreter exit skip the objects
the process still holds, its modules among them.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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
    are read into codes over 'abcd' and language-checked once, before the
    shift, which keeps the answer, so the same letters give the same answer
    by either route.  Letters that no letter extends, of measure 0, are no
    factor: NotInSubshiftError.  The Grigorchuk fixed point goes unchecked.
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
        raise NotInSubshiftError(f"the {len(prefix)} letters {origin} are not a factor of the fixed point")
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
    if args.json:
        _emit(args, [], {"length": len(prefix), "prefix": prefix.text})
    else:
        substitution.write_prefix(prefix, sys.stdout)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from . import toeplitz

    prefix = _load_input(args, _skeleton_need(args.levels))
    skeleton = toeplitz.period_skeleton(prefix, args.levels)
    lines = [f"{k} {m} {l}" for k, (m, l) in enumerate(zip(skeleton.levels, skeleton.letters), start=1)]
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


def _input_options(length=None):
    """The input options; ``length`` None stands for the letters the command reads."""
    default = "the letters the command reads" if length is None else length
    return (
        ("--input", {"help": "prefix file (one line of letters over abcd), "
                             "exit 4 unless they are a factor of the fixed point"}),
        ("--seed-file", {"help": "substitution file ('x -> word' lines) whose fixed point, "
                                 "grown from the first rule's letter, is checked like --input"}),
        ("--length", {"type": int, "default": length,
                      "help": f"length of the generated prefix when no --input is given (default: {default})"}),
        ("--shift", {"type": int, "default": 0, "help": "drop this many leading letters"}),
    )


# The input options of which at most one may be given.
SOURCES = ("--input", "--seed-file")

# Each command's name -> its help, its options and its handler.  An option is a flag and the keyword
# arguments of its add_argument call.
COMMANDS = {
    "generate": ("print a fixed-point prefix", (
        *_input_options(DEFAULT_LENGTH),
        ("--output", {"help": "also write the prefix to this file"}),
    ), _cmd_generate),
    "analyze": ("period skeleton: one 'k M_k l_k' line per level", (
        *_input_options(),
        ("--levels", {"type": int, "default": DEFAULT_PRECISION, "help": "skeleton depth K"}),
    ), _cmd_analyze),
    "encode": ("dyadic encoding, LSB-first bit string", (
        *_input_options(),
        ("--precision", {"type": int, "default": DEFAULT_PRECISION, "help": "number of dyadic digits"}),
    ), _cmd_encode),
    "fiber": ("classify a sequence's fiber under the factor map", (
        *_input_options(),
        ("--levels", {"type": int, "default": 12, "help": "skeleton depth K"}),
    ), _cmd_fiber),
    "measure": ("exact invariant measure of a cylinder word", (
        ("--word", {"required": True}),
    ), _cmd_measure),
    "freq": ("exact occurrence count over a window", (
        *_input_options(),
        ("--word", {"required": True}),
        ("--window", {"type": int, "default": DEFAULT_WINDOW}),
    ), _cmd_freq),
    "spectrum": ("exponential-sum magnitudes (CSV: theta,magnitude,N)", (
        *_input_options(),
        ("--word", {"required": True}),
        ("--window", {"type": int, "default": DEFAULT_WINDOW}),
        ("--theta", {"action": "append", "required": True, "help": "rational frequency like 1/3 (repeatable)"}),
    ), _cmd_spectrum),
    "verify": ("run the end-to-end verification suite", (
        ("--level", {"choices": ("quick", "full"), "default": "quick"}),
    ), _cmd_verify),
}


def build_parser():
    """The argparse parser of every command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="odoshift",
        description="Substitution subshifts, Toeplitz skeletons, and the dyadic odometer factor map",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        source = p.add_mutually_exclusive_group() if any(flag in SOURCES for flag, _ in options) else p
        for flag, kwargs in options:
            (source if flag in SOURCES else p).add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _read_plain(argv):
    """The namespace ``build_parser()`` makes of a plain ``[--json] COMMAND --flag value ...`` argv, else None.

    Plain: each name is written in full, each value starts with no ``-``,
    converts by its option's type and lies in its choices, only an
    appended option is given twice, at most one of ``SOURCES`` and every
    required option are given.  Help and errors are left to argparse.
    """
    start = 1 if argv[:1] == ["--json"] else 0
    command = argv[start] if len(argv) > start else None
    if command not in COMMANDS:
        return None
    options = dict(COMMANDS[command][1])
    pairs = argv[start + 1:]
    if len(pairs) % 2:
        return None
    given = {}
    for flag, value in zip(pairs[::2], pairs[1::2]):
        kwargs = options.get(flag)
        if kwargs is None or value.startswith("-"):
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        if kwargs.get("action") == "append":
            given.setdefault(flag, []).append(value)
        elif flag in given:
            return None
        else:
            given[flag] = value
    if all(flag in given for flag in SOURCES):
        return None
    if any(kwargs.get("required") and flag not in given for flag, kwargs in options.items()):
        return None
    values = {flag[2:].replace("-", "_"): given.get(flag, kwargs.get("default")) for flag, kwargs in options.items()}
    return SimpleNamespace(json=bool(start), command=command, func=COMMANDS[command][2], **values)


def main(argv=None) -> int:
    """Run one command and return its exit code.

    A plain command line is read by ``_read_plain``; any other, help and
    errors among them, by the argparse parser of ``build_parser``, which
    only then is imported and built.  ``main`` leaves the garbage
    collector as it found it, so a caller may run it many times in one
    process; ``run`` is the entry that ends a process.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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


def run() -> int:
    """``main()`` for a process that ends when it returns, as ``sys.exit(run())`` does.

    At exit CPython collects every object the process still tracks: 4 to
    6 ms of a light command, and 6 to 13 ms of ``verify`` (medians of 15
    to 31 fresh processes on a shared 2-vCPU VM).  ``gc.freeze()`` moves
    those objects to the permanent generation, which the exit collections
    skip; stdout and stderr are still flushed, atexit handlers still run,
    and the OS reclaims the memory.  It freezes also when ``main`` raises,
    as argparse's help and errors do.
    """
    try:
        return main()
    finally:
        import gc

        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
