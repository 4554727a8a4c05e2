"""Print the seconds taken to import symlab and build the nine catalog models.

    python3 bench/setup_probe.py <src directory>

``run.py`` starts this in a fresh interpreter for each set-up sample, so
that the import is cold each time.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import symlab  # noqa: E402
from symlab import catalog  # noqa: E402

if not Path(symlab.__file__).resolve().is_relative_to(src):
    sys.exit(f"error: imported symlab from {symlab.__file__}, not from {src}")
for tag in catalog.TAGS:
    catalog.get_model(tag)
print(repr(time.perf_counter() - t0))
