"""The recipes of the model-format fixtures in ``tests/data``.

Each fixture is the file ``save_model`` writes for its recipe's model, and
``TestSerialization`` checks that the recipe and a reload of the fixture
both write its bytes again.  ``tests/data/write_fixtures.py`` rewrites them
all.  The GBDT recipe is older than format 2: the mae file was first written
by the tree-by-tree grower, before the forest was packed in memory, the
huber file once the Huber leaf value became the exact root (bisection moved
it in the last bits), and the mse file once the gradients went on the exact
grid; format 2 changed only their ``format_version``.  The recipe passes
``min_child_weight=1.0``: a header value is kept as its field's type reads
it, so an integer 1 in that float field would reload as 1.0 and save to
other bytes.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np

from surropt.learners import Dataset, fit_gbdt, fit_ridge, fit_svr
from surropt.learners.gbdt import GbdtParams
from surropt.losses import LossSpec

DATA = Path(__file__).parent / "data"
LOSSES = [LossSpec("mse"), LossSpec("mae"), LossSpec("huber", 1.0)]


def format_fixture_model(loss=LossSpec("mae")):
    rng = np.random.default_rng(60)
    X = rng.normal(size=(60, 4))
    Y = np.column_stack([np.abs(X[:, 0] + X[:, 1]), np.full(60, 1.5), np.abs(np.sin(2 * X[:, 2]))])
    params = GbdtParams(n_iterations=6, max_depth=3, min_child_weight=1.0, subsample=0.7)
    return fit_gbdt(Dataset(X, Y, np.arange(60)), params, loss, seed=4)


def whole_number_data(seed, n, p):
    """Inventory-like counts, many rows repeated, and three outputs: a
    constant (an SVR gives it no support vectors) and two of the counts."""
    X = np.random.default_rng(seed).integers(0, 4, size=(n, p)).astype(float)
    Y = np.column_stack([np.full(n, 2.0), X[:, 0] + X[:, 1], np.abs(X[:, 1] - X[:, 2])])
    return Dataset(X, Y, np.arange(n))


def ridge_fixture_model():
    return fit_ridge(whole_number_data(61, 40, 4), lambdas=(0.1, 1.0, 10.0), folds=4)


def svr_fixture_model():
    return fit_svr(whole_number_data(62, 30, 3), C=(0.5, 2.0), epsilon=0.1, folds=3)


FORMAT_FIXTURES = {
    **{f"gbdt-{loss.kind}-v2.surropt": partial(format_fixture_model, loss) for loss in LOSSES},
    "ridge-v2.surropt": ridge_fixture_model,
    "svr-v2.surropt": svr_fixture_model,
}

