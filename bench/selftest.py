"""Self-test of the benchmark's own logic.

    python3 bench/selftest.py

Checks that an op given a wrong expected value counts as failed, that a
recorded known failure is told apart from a new one, that the ten-beyond
rule picks the right tail percentile for a sample count, that op times
are scaled by the reference timings that bracket them, and that the
tracer's self times add up.
"""

from __future__ import annotations

import shutil
import sys
import unittest

import reference
import run
import workloads
from tracer import TraceLog, Tracer, layer_metrics

sys.path.insert(0, str(workloads.SRC))


def encode_op(s, expected):
    """Encode the s-fold shift of a 2^12-letter prefix; expect ``expected``."""
    from odoshift import factormap, substitution

    prefix = substitution.grigorchuk_prefix(1 << 12)
    return workloads.Op(
        "encode",
        lambda: factormap.encode_fG(prefix.shifted(s), 8).value.value,
        lambda value: None if value == expected else f"encoding {value}, expected {expected}",
    )


def judged(op, known_ids=()):
    output, seconds = workloads.execute(op)
    return workloads.judge(op, output, seconds, set(known_ids))


def tearDownModule():
    shutil.rmtree(workloads.WORK, ignore_errors=True)


class Checks(unittest.TestCase):
    def test_right_expected_value_passes(self):
        self.assertEqual(judged(encode_op(37, 37)).status, "ok")

    def test_wrong_expected_value_fails(self):
        outcome = judged(encode_op(37, 38))
        self.assertEqual(outcome.status, "failed")
        self.assertIn("expected 38", outcome.reason)

    def test_exception_fails(self):
        outcome = judged(encode_op(1 << 12, 0))  # shift past the end: the program raises
        self.assertEqual(outcome.status, "failed")
        self.assertIn("raised", outcome.reason)

    def test_cli_wrong_stdout_fails(self):
        cli = workloads.Cli(seed=0)
        right = cli.command("generate", ["generate", "--length", "16"],
                            workloads.expect(0, ["acabacadacabacac"]), False)
        wrong = cli.command("generate", ["generate", "--length", "16"],
                            workloads.expect(0, ["acabacadacabacab"]), False)
        self.assertEqual(judged(right).status, "ok")
        self.assertEqual(judged(wrong).status, "failed")

    def test_known_failure_only_when_recorded_and_matching(self):
        proc = workloads.Proc(code=3, seconds=0.1, maxrss_kb=1, out="", err="insufficient data")
        op = workloads.Op("spectrum", lambda: proc, workloads.expect(0),
                          known="spectrum_default_window", shows_known=lambda p: p.code == 3)
        self.assertEqual(judged(op, {"spectrum_default_window"}).status, "known")
        self.assertEqual(judged(op, set()).status, "failed")
        other = workloads.Proc(code=2, seconds=0.1, maxrss_kb=1, out="", err="")
        op.run = lambda: other
        self.assertEqual(judged(op, {"spectrum_default_window"}).status, "failed")


class Tail(unittest.TestCase):
    def test_percentile_for_sample_count(self):
        cases = {1: None, 5: None, 19: None, 20: 50, 39: 50, 40: 75, 99: 75, 100: 90,
                 199: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9}
        for n, p in cases.items():
            self.assertEqual(run.tail_percentile(n), p, n)

    def test_percentile(self):
        self.assertAlmostEqual(run.percentile(list(range(1, 201)), 95), 190.05)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), 2.0)


class Scaling(unittest.TestCase):
    def test_scale_uses_bracketing_timings(self):
        ref = reference.Reference(workloads.child_env())
        nominal = reference.NOMINAL_S
        ref.samples = [nominal, nominal, 3 * nominal, 2 * nominal]
        self.assertEqual(ref.scale(0), 1.0)  # kernel at nominal speed: raw time unchanged
        self.assertEqual(ref.scale(1), 0.5)  # kernel twice as slow around the op: time halved
        self.assertEqual(ref.scale(2), 0.4)
        with self.assertRaises(IndexError):
            ref.scale(3)  # no timing after the op yet

    def test_sample_if_due_spaces_timings(self):
        ref = reference.Reference(workloads.child_env())
        first = ref.sample_if_due()
        self.assertEqual(ref.sample_if_due(), first)  # within SPACING_S: no new timing
        self.assertEqual(len(ref.samples), 1)
        self.assertGreater(ref.samples[0], 0)


class Tracing(unittest.TestCase):
    def test_self_times_add_up(self):
        import time

        from odoshift import factormap, substitution

        prefix = substitution.grigorchuk_prefix(1 << 14)
        tracer = Tracer().install()
        try:
            start = time.perf_counter()
            factormap.encode_fG(prefix, 10)
            inclusive = time.perf_counter() - start
        finally:
            tracer.uninstall()
        log = TraceLog()
        log.merge(tracer.dump())
        m = layer_metrics(log, run.CHECKS)
        self.assertEqual(m["factormap.encode.calls"], 1)
        self.assertEqual(m["toeplitz.skeleton.calls"], 1)
        covered = m["factormap.encode.self_s"] + m["toeplitz.skeleton.self_s"]
        self.assertLessEqual(covered, inclusive)
        self.assertGreater(covered, 0)
        self.assertEqual(m["factormap.encode.window_used_ratio"], (1 << 12) / (1 << 14))

    def test_uninstall_restores(self):
        from odoshift import ergodic, factormap

        before = (factormap.encode_value, ergodic.encode_value)
        Tracer().install().uninstall()
        self.assertEqual((factormap.encode_value, ergodic.encode_value), before)


if __name__ == "__main__":
    unittest.main()
