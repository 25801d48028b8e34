"""Each script in demos/ runs to completion and prints what its golden file holds.

Some public names have no other caller.  A demo's golden file is
``golden/<demo name>.out``; a change that means to alter a demo's output
rewrites the file with ``python3 demos/<demo>.py > tests/golden/<demo name>.out``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_demos_exist():
    assert len(DEMOS) == 4
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == (GOLDEN / f"{demo.stem}.out").read_text(encoding="ascii")
