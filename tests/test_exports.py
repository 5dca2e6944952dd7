import os
import subprocess
import sys

import opmlab


def test_every_export_resolves():
    """`__all__` names only what the package defines, so a deleted name cannot linger there."""
    missing = [name for name in opmlab.__all__ if not hasattr(opmlab, name)]
    assert missing == []
    src = os.path.dirname(os.path.dirname(os.path.abspath(opmlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "from opmlab import *"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
