"""Rewrite every model-format fixture in this directory from its recipe in
``tests/_fixtures.py``.

Run from the repository root::

    PYTHONPATH=src python3 tests/data/write_fixtures.py

On an unchanged tree a rerun writes the same bytes, so ``git status`` stays
clean; a change of the model format or of a fit shows as changed fixtures.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from _fixtures import DATA, FORMAT_FIXTURES  # noqa: E402

from surropt.learners import save_model  # noqa: E402

for name, recipe in FORMAT_FIXTURES.items():
    save_model(DATA / name, recipe())
    print(DATA / name)
