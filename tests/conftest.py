"""Let interpreters that tests start import iqprep from the source tree.

``pythonpath = ["src"]`` in pyproject.toml puts ``src`` on this process's
``sys.path`` only; a child interpreter, such as the one the c8 acceptance
test starts, finds the package through ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
