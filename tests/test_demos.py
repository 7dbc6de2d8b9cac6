"""The five demos run and print exactly their recorded output.

Each demo runs in a subprocess with ``PYTHONPATH=src``; its stdout and
stderr must equal the files under ``tests/demo_output/``.  The temporary
directory that ``problem_documents.py`` writes into is made under pytest's
``tmp_path`` and replaced by ``<tmpdir>`` before comparing; the demo must
remove it again.
``skeletal_objects.py`` prints objects built from an exact kernel basis,
so a change of basis shows here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "demo_output"
DEMOS = ["cohomology_tables", "extension_round_trip", "finite_groups",
         "problem_documents", "skeletal_objects"]
TMPDIR = re.compile(r"\S*morphlie-demo-[^/\s]+")


def run_demo(name, tmpdir):
    """(exit code, stdout, stderr) of demos/<name>.py, temp paths replaced.

    The demo's temporary files go under ``tmpdir``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return (done.returncode, TMPDIR.sub("<tmpdir>", done.stdout),
            TMPDIR.sub("<tmpdir>", done.stderr))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_unchanged(name, tmp_path):
    code, out, err = run_demo(name, tmp_path)
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")
    assert not any(tmp_path.iterdir()), "the demo left temporary files behind"
