"""Every demo script runs to completion against the package in src/, and
prints what it printed when its digest was recorded."""
import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's standard output, which is the same on every run
STDOUT = {
    "01_point_algebras.py":
        "e38879547d1070665ad62ea859bb0c5a24d5ad6c14893ef5950bfd038d8ef78f",
    "02_unknot_homology.py":
        "ab2ad3df02370d28090e0a3cb24d897ed84a522c83f2683fa86792b859d9a41a",
    "03_saddle_chain_map.py":
        "6a96026b3d407154783a5199f03c6ba8532fe0daea1e73b169043d6f724e1edf",
    "04_filling_obstructions.py":
        "fd2801bd5a06f4d84a418df2e58433c600cef095f84d592b087c449a1cfc79df",
    "05_augmentations_and_linearization.py":
        "ec57562419058b5745d3c5bb107b17c2fe8f245df1fe1b66b10133a847d3ec09",
}


@functools.cache
def _run(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_stdout_is_pinned(demo):
    digest = hashlib.sha256(_run(demo).stdout.encode()).hexdigest()
    assert digest == STDOUT[demo.name]
