"""The README's Quick tour runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("## Quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
