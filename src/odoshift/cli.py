"""Command-line entry point.

Exit codes: 0 ok, 2 validation / I-O, 3 insufficient data, 4 not in the
subshift, 5 verification failure.  Output is a stable line grammar;
``--json`` emits the same data as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import ergodic, factormap, substitution, toeplitz, verification
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
    a generated prefix has min(--length, shift + need) letters: every letter
    the answer reads and no more.  A shorter --length still fails in the
    command, with the length it requires.  An --input file whose letters
    have measure 0 is no factor of the fixed point: NotInSubshiftError.
    """
    shift = getattr(args, "shift", 0) or 0
    if getattr(args, "input", None):
        prefix = substitution.load_prefix(args.input, substitution.GRIGORCHUK_ALPHABET)
        if not substitution.codes_measure(prefix.alphabet, prefix.codes):
            raise NotInSubshiftError(
                f"the {len(prefix)} letters of {args.input} are not a factor of the fixed point"
            )
    else:
        if getattr(args, "seed_file", None):
            sub = substitution.load_substitution(args.seed_file)
            seed = args.seed_letter or sub.alphabet.letters[0]
        else:
            sub = substitution.grigorchuk_substitution()
            seed = args.seed_letter or "a"
        length = args.length
        if length >= 1:
            if not 0 <= shift < length:
                raise InvalidInputError(f"shift {shift} outside 0..{length - 1}")
            length = min(length, shift + need)
        prefix = substitution.fixed_point_prefix(sub, seed, length)
    return prefix.shifted(shift) if shift else prefix


def _skeleton_need(depth: int) -> int:
    """Letters a skeleton of the given depth reads (a depth below 1 is rejected later)."""
    return 1 << (max(depth, 1) + 2)


def _window_need(args) -> int:
    """Letters read by counting --word over --window start positions."""
    return max(args.window, 1) + max(len(args.word), 1) - 1


def _emit(args, lines, payload) -> None:
    if args.json:
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
    prefix = _load_input(args, max(_skeleton_need(args.levels), args.horizon - 1))
    report = factormap.classify_fiber(prefix, args.levels, args.horizon)
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
    value = ergodic.invariant_measure_cylinder(args.word)
    _emit(
        args,
        [f"{value.numerator}/{value.denominator}"],
        {"word": args.word, "numerator": value.numerator, "denominator": value.denominator},
    )
    return EXIT_OK


def _cmd_freq(args) -> int:
    prefix = _load_input(args, _window_need(args))
    est = ergodic.cylinder_frequency(prefix, args.word, args.window)
    lines = [f"count {est.count} window {est.window} frequency {float(est.frequency):.10f}"]
    _emit(
        args,
        lines,
        {"word": est.word, "count": est.count, "window": est.window, "frequency": float(est.frequency)},
    )
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    prefix = _load_input(args, _window_need(args))
    thetas = [Fraction(t) for t in args.theta]
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
                {"name": r.name, "ok": r.ok, "detail": r.detail, "seconds": r.seconds} for r in results
            ],
            "ok": ok,
        },
    )
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _add_input_options(parser, with_shift=True):
    parser.add_argument("--input", help="prefix file (one line of letters)")
    parser.add_argument("--length", type=int, default=DEFAULT_LENGTH,
                        help="length of the generated prefix when no --input is given")
    parser.add_argument("--seed-file", help="substitution file ('x -> word' lines)")
    parser.add_argument("--seed-letter", help="prolongable seed letter (default: first letter)")
    if with_shift:
        parser.add_argument("--shift", type=int, default=0, help="drop this many leading letters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odoshift",
        description="Substitution subshifts, Toeplitz skeletons, and the dyadic odometer factor map",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="print a fixed-point prefix")
    _add_input_options(p)
    p.add_argument("--output", help="also write the prefix to this file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="period skeleton: one 'k M_k l_k' line per level")
    _add_input_options(p)
    p.add_argument("--levels", type=int, default=DEFAULT_PRECISION, help="skeleton depth K")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("encode", help="dyadic encoding, LSB-first bit string")
    _add_input_options(p)
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION, help="number of dyadic digits")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("fiber", help="classify a sequence's fiber under the factor map")
    _add_input_options(p)
    p.add_argument("--levels", type=int, default=12, help="skeleton depth K")
    p.add_argument("--horizon", type=int, default=factormap.DEFAULT_LANGUAGE_HORIZON,
                   help="language horizon for preimage letters")
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser("measure", help="exact invariant measure of a cylinder word")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("freq", help="exact occurrence count over a window")
    _add_input_options(p)
    p.add_argument("--word", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("spectrum", help="exponential-sum magnitudes (CSV: theta,magnitude,N)")
    _add_input_options(p)
    p.add_argument("--word", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--theta", action="append", required=True,
                   help="rational frequency like 1/3 (repeatable)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="run the end-to-end verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientDataError as exc:
        hint = f" (required prefix length: {exc.required_length})" if exc.required_length else ""
        print(f"error: insufficient data: {exc}{hint}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except NotInSubshiftError as exc:
        print(f"error: not in subshift: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_SUBSHIFT
    except (InvalidInputError, ResourceLimitError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
