"""Each demo prints what it printed when its output was recorded.

`tests/data/demos/<name>.out` holds the stdout of `demos/<name>.py`.  A
change that alters a demo's output on purpose records it again with
`python demos/<name>.py > tests/data/demos/<name>.out`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import miniscp

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_recorded_output():
    assert len(DEMOS) == 3
    assert sorted(p.stem for p in (ROOT / "tests/data/demos").glob("*.out")) \
        == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_unchanged(demo):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(miniscp.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, check=True)
    want = (ROOT / "tests/data/demos" / f"{demo.stem}.out").read_text(
        encoding="utf-8")
    assert proc.stdout == want
