"""Start-up imports of the fracquat CLI.

    PYTHONPATH=src python -S .github/check_startup.py

Run from the repository root.  -S keeps site from importing anything, so
sys.modules holds only what the interpreter and fracquat.cli load; this
reads no clock.  Exits 1 when a heavy module is loaded at import or a
Gamma table of the series is built before the first call.
"""

import sys

import fracquat.cli

heavy = [m for m in ("dataclasses", "inspect", "ast", "typing", "fractions", "decimal") if m in sys.modules]
print("heavy start-up imports:", heavy)
# the Gamma tables of the series are built by the first call
series = sys.modules["fracquat.series"]
tables = sum(f.cache_info().currsize for f in (series._ends, series._plan))
print("series tables built at import:", tables)
sys.exit(1 if heavy or tables else 0)
