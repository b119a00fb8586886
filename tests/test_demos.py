"""The demos print pinned bytes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "01_exact_kernel.py":
        "2b71cc33834847411d1ee06d8742ced7f3249a5955fb251d6ede9d9892d27fbe",
    "02_subspaces_and_duality.py":
        "c5e781c0e842e610a5e49712986685876bbef19466587c700e8e0ed6cf778458",
    "03_certifying_transitivity.py":
        "23383b296309459d7650e812eb869c549a68157d3d3a9c028aba7fb1ee0c8a4c",
    "04_families_tour.py":
        "d91595b385b5a83f13d6d4f7b7350e3ac2af616847b186fd3ac345779adc4687",
    "05_witness_search_and_report.py":
        "1a7a8dfbf2ee1751f18353f744dc539cc2380ef65b4b2d20fe6634c4640c72bd",
}

# runs every demo in one interpreter, printing one digest per line
_RUNNER = """
import contextlib, hashlib, io, runpy, sys
for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(path, run_name="__main__")
    print(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
"""


def test_demos_print_pinned_bytes():
    names = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
    assert names == sorted(DEMO_DIGESTS)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER,
         *(str(ROOT / "demos" / name) for name in names)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == 0, proc.stderr
    assert dict(zip(names, proc.stdout.split())) == DEMO_DIGESTS
