import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GUARD = """
import sys
import reoptlab
loaded = sorted(name for name in sys.modules if name.startswith("reoptlab."))
assert not loaded, loaded
import reoptlab.cnf as m
assert m is sys.modules["reoptlab.cnf"], m
"""


def test_each_library_name_has_one_import_path():
    # A fresh interpreter: the test session has already imported submodules.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", GUARD], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
