"""Entry points of the benchmark's child processes.

    child.py setup words                 one setup trial, timed by the parent
    child.py cli TRACE_FILE ARGS...      `odoshift ARGS...` under the tracer
    child.py memory generate|oracle LOG2
                                         one allocation, for peak RSS by wait4

The parent sets PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys


def main(argv):
    kind = argv[0]
    if kind == "setup":
        import workloads

        {"words": workloads.words_setup}[argv[1]]()
        return 0
    if kind == "cli":
        import odoshift.cli
        from tracer import Tracer

        tracer = Tracer().install()
        try:
            return odoshift.cli.main(argv[2:])
        finally:
            with open(argv[1], "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    if kind == "memory":
        from odoshift import substitution

        length = 1 << int(argv[2])
        if argv[1] == "generate":
            substitution.fixed_point_prefix(substitution.grigorchuk_substitution(), "a", length)
        elif argv[1] == "oracle":
            substitution.grigorchuk_codes(length)
        return 0
    raise SystemExit(f"unknown child kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
