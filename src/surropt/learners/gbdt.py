"""Gradient-boosted regression trees on histogram splits.

Each boosting round fits one depth-capped tree per output to the current
loss gradients and hessians.  Split gains use the regularized score
T(G)^2 / (H + l2) with an L1 soft threshold on the gradient sum; children
must carry at least ``min_child_weight`` of hessian mass.  Leaf values are
the exact loss-minimizing constant of the leaf's residuals (mean, median,
or the Huber minimizer) scaled by the learning rate, and the model boosts
from the loss-optimal constant of the full target, so training loss never
increases while subsampling is off.

Features are pre-binned once per fit on equal-frequency quantiles (64 bins
by default); numeric thresholds are stored in the nodes, so prediction
needs only the raw feature values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, InputError
from ..losses import LossSpec, leaf_optimal_value, loss_grad_hess, loss_value
from ..util import TAG_LEARNER, stream
from .data import Dataset

_GAIN_TOL = 1e-12


@dataclass(frozen=True)
class GbdtParams:
    eta: float = 0.01
    max_depth: int = 15
    min_child_weight: float = 5.0
    subsample: float = 0.7
    colsample_bytree: float = 1.0
    n_iterations: int = 1000
    l1: float = 0.1
    l2: float = 1.0
    max_bins: int = 64

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must be in (0, 1], got {self.eta}")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.min_child_weight < 0:
            raise ConfigError("min_child_weight must be >= 0")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigError("subsample must be in (0, 1]")
        if not 0.0 < self.colsample_bytree <= 1.0:
            raise ConfigError("colsample_bytree must be in (0, 1]")
        if self.n_iterations < 1:
            raise ConfigError("n_iterations must be >= 1")
        if self.l1 < 0 or self.l2 < 0:
            raise ConfigError("l1 and l2 must be >= 0")
        if not 2 <= self.max_bins <= 255:
            raise ConfigError("max_bins must be in 2..255")


@dataclass
class Tree:
    """Flat node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        if X.shape[0] == 1:
            node = 0
            row = X[0]
            while self.feature[node] >= 0:
                if row[self.feature[node]] <= self.threshold[node]:
                    node = self.left[node]
                else:
                    node = self.right[node]
            return self.value[node : node + 1]
        idx = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[idx]
            active = feat >= 0
            if not active.any():
                return self.value[idx]
            f = np.where(active, feat, 0)
            go_left = X[np.arange(X.shape[0]), f] <= self.threshold[idx]
            nxt = np.where(go_left, self.left[idx], self.right[idx])
            idx = np.where(active, nxt, idx)

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())


class _Binner:
    """Equal-frequency candidate thresholds per feature."""

    def __init__(self, X: np.ndarray, max_bins: int):
        self.thresholds = []
        qs = np.arange(1, max_bins) / max_bins
        for f in range(X.shape[1]):
            edges = np.unique(np.quantile(X[:, f], qs))
            # an edge equal to the column max cannot separate anything
            edges = edges[edges < X[:, f].max()] if edges.size else edges
            self.thresholds.append(edges.astype(float))

    def transform(self, X: np.ndarray) -> np.ndarray:
        binned = np.empty(X.shape, dtype=np.int32)
        for f, edges in enumerate(self.thresholds):
            binned[:, f] = np.searchsorted(edges, X[:, f], side="left")
        return binned


def _soft_threshold(G, l1):
    return np.sign(G) * np.maximum(np.abs(G) - l1, 0.0)


def _grow_tree(binned, thresholds, rows, feats, g, h, residual, loss, params):
    """Depth-first growth on the sampled rows and features."""
    feature, threshold, left, right, value = [], [], [], [], []
    max_bins = params.max_bins
    offsets = (np.arange(feats.size) * max_bins).astype(np.int32)
    n_cells = feats.size * max_bins
    # bins beyond a feature's threshold list can never be split positions
    valid = np.zeros((feats.size, max_bins), dtype=bool)
    for k, f in enumerate(feats):
        valid[k, : thresholds[f].size] = True

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def grow(node_rows, depth):
        node = new_node()
        sub = binned[node_rows][:, feats] + offsets[None, :]
        flat = sub.ravel()
        hg = np.bincount(flat, weights=np.repeat(g[node_rows], feats.size), minlength=n_cells)
        hh = np.bincount(flat, weights=np.repeat(h[node_rows], feats.size), minlength=n_cells)
        hg = hg.reshape(feats.size, max_bins)
        hh = hh.reshape(feats.size, max_bins)
        g_tot = float(g[node_rows].sum())
        h_tot = float(h[node_rows].sum())

        best = None
        if depth < params.max_depth and h_tot >= 2 * params.min_child_weight:
            gl = np.cumsum(hg, axis=1)
            hl = np.cumsum(hh, axis=1)
            gr = g_tot - gl
            hr = h_tot - hl
            ok = valid & (hl >= params.min_child_weight) & (hr >= params.min_child_weight)
            parent = _soft_threshold(g_tot, params.l1) ** 2 / (h_tot + params.l2)
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = np.where(
                    ok,
                    _soft_threshold(gl, params.l1) ** 2 / (hl + params.l2)
                    + _soft_threshold(gr, params.l1) ** 2 / (hr + params.l2)
                    - parent,
                    -np.inf,
                )
            flat_best = int(np.argmax(gain))
            if gain.ravel()[flat_best] > _GAIN_TOL:
                best = divmod(flat_best, max_bins)

        if best is None:
            value[node] = params.eta * leaf_optimal_value(loss, residual[node_rows])
            return node
        k, b = best
        f = int(feats[k])
        go_left = binned[node_rows, f] <= b
        feature[node] = f
        threshold[node] = float(thresholds[f][b])
        left[node] = grow(node_rows[go_left], depth + 1)
        right[node] = grow(node_rows[~go_left], depth + 1)
        return node

    grow(rows, 0)
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=float),
    )


@dataclass
class GbdtModel:
    """Per-output tree ensembles plus the shared training recipe."""

    params: GbdtParams
    loss: LossSpec
    base: np.ndarray              # per-output boost-from constant
    ensembles: list               # per output: list[Tree]
    n_features: int
    seed: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_outputs(self) -> int:
        return len(self.ensembles)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise InputError(f"expected (N, {self.n_features}) inputs, got {X.shape}")
        out = np.tile(self.base, (X.shape[0], 1))
        for j, trees in enumerate(self.ensembles):
            for tree in trees:
                out[:, j] += tree.apply(X)
        return out


def _fit_single_output(X, binned, thresholds, y, params, loss, rng):
    base = leaf_optimal_value(loss, y)
    pred = np.full(y.shape[0], base)
    n = y.shape[0]
    n_rows = max(1, int(round(params.subsample * n)))
    n_feats = max(1, int(round(params.colsample_bytree * X.shape[1])))
    all_rows = np.arange(n)
    all_feats = np.arange(X.shape[1])
    trees = []
    for _ in range(params.n_iterations):
        residual = y - pred
        if np.max(np.abs(residual)) < 1e-15:
            break
        g, h = loss_grad_hess(loss, y, pred)
        rows = all_rows if n_rows == n else np.sort(rng.choice(n, size=n_rows, replace=False))
        feats = (
            all_feats
            if n_feats == X.shape[1]
            else np.sort(rng.choice(X.shape[1], size=n_feats, replace=False))
        )
        tree = _grow_tree(binned, thresholds, rows, feats, g, h, residual, loss, params)
        pred += tree.apply(X)
        trees.append(tree)
    return base, trees, pred


def fit_gbdt(data: Dataset, params: GbdtParams, loss: LossSpec, seed: int = 0) -> GbdtModel:
    """Train independent per-output ensembles sharing one parameter set."""
    min_h = 2.0 if loss.kind == "mse" else 1.0
    if data.n_rows * min_h < 2 * params.min_child_weight:
        raise InputError(
            f"{data.n_rows} rows cannot satisfy min_child_weight {params.min_child_weight}"
        )
    X = data.X
    binner = _Binner(X, params.max_bins)
    binned = binner.transform(X)
    thresholds = binner.thresholds
    base = np.empty(data.n_outputs)
    ensembles = []
    train_loss = np.empty(data.n_outputs)
    train_rmse = np.empty(data.n_outputs)
    for j in range(data.n_outputs):
        rng = stream(seed, TAG_LEARNER, j)
        b, trees, pred = _fit_single_output(
            X, binned, thresholds, data.Y[:, j], params, loss, rng
        )
        base[j] = b
        ensembles.append(trees)
        resid = data.Y[:, j] - pred
        train_loss[j] = float(np.mean(loss_value(loss, data.Y[:, j], pred)))
        train_rmse[j] = float(np.sqrt(np.mean(resid**2)))
    diagnostics = {
        "train_loss_mean": float(train_loss.mean()),
        "train_rmse_mean": float(train_rmse.mean()),
        "trees_per_output": [len(t) for t in ensembles],
    }
    return GbdtModel(
        params=params,
        loss=loss,
        base=base,
        ensembles=ensembles,
        n_features=data.n_features,
        seed=seed,
        diagnostics=diagnostics,
    )
