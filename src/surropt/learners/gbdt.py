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

A fitted forest is packed once into the flat arrays of the model file.
Prediction walks every (row, tree) pair one level per array step, then adds
each output's leaf values to its base one at a time in fit order, so it
gives the same bits as adding the trees one by one.
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
        idx = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        while (split := self.feature[idx] >= 0).any():
            at = idx[split]
            go_left = X[rows[split], self.feature[at]] <= self.threshold[at]
            idx[split] = np.where(go_left, self.left[at], self.right[at])
        return self.value[idx]


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


_NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")
# the packed forest: the arrays a model file holds
PACKED = ("base", "tree_counts", "node_counts") + _NODE_ARRAYS


@dataclass
class GbdtModel:
    """Per-output tree ensembles packed into flat arrays, plus the training
    recipe.  Output j boosts from ``base[j]`` and owns the next
    ``tree_counts[j]`` trees, tree t the next ``node_counts[t]`` nodes.  A
    node is a leaf (feature, left and right -1) or a split sending x left
    when ``x[feature] <= threshold``, to later nodes of its own tree; other
    arrays raise ``ValueError``."""

    params: GbdtParams
    loss: LossSpec
    base: np.ndarray              # (outputs,) boost-from constants
    tree_counts: np.ndarray       # (outputs,) int64
    node_counts: np.ndarray       # (trees,) int64
    feature: np.ndarray           # (nodes,) int32
    threshold: np.ndarray         # (nodes,) float64
    left: np.ndarray              # (nodes,) int32, index local to the tree
    right: np.ndarray             # (nodes,) int32, index local to the tree
    value: np.ndarray             # (nodes,) float64
    n_features: int
    seed: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in PACKED:
            a = getattr(self, name)
            if a.ndim != 1 or a.dtype.kind != ("f" if name in ("base", "threshold", "value") else "i"):
                raise ValueError(f"{name} is a {a.dtype} array of shape {a.shape}")
        counts, nodes, n = self.tree_counts, self.node_counts, self.feature.size
        if (
            (counts < 0).any() or (nodes < 1).any() or self.base.size != counts.size
            or counts.sum() != nodes.size or nodes.sum() != n
            or any(getattr(self, a).size != n for a in _NODE_ARRAYS)
        ):
            raise ValueError(f"{counts.size} outputs, {nodes.size} trees and {n} nodes do not match")
        self._roots = np.cumsum(nodes) - nodes
        own = np.arange(n)
        local, size = own - np.repeat(self._roots, nodes), np.repeat(nodes, nodes)
        leaf = (self.feature == -1) & (self.left == -1) & (self.right == -1)
        split = (self.feature >= 0) & (self.feature < self.n_features)
        for child in (self.left, self.right):
            split &= (child > local) & (child < size)
        if not (leaf | split).all():
            raise ValueError(f"node {np.argmin(leaf | split)} is neither a leaf nor a forward split")
        # node ids across the forest; a leaf is its own child
        self._left = np.where(leaf, own, own - local + self.left)
        self._right = np.where(leaf, own, own - local + self.right)
        # each output with trees sums one row of terms: its base, then its
        # leaf values in fit order; _slot is each tree's place in those rows
        self._grown, self._width = np.flatnonzero(counts), 1 + int(counts.max(initial=0))
        grown = counts[self._grown]
        row_start = np.arange(grown.size) * self._width + 1 - (np.cumsum(grown) - grown)
        self._slot = np.repeat(row_start, grown) + np.arange(nodes.size)

    @property
    def n_outputs(self) -> int:
        return self.tree_counts.size

    @property
    def ensembles(self) -> list:
        """Per output, its trees in fit order as views of the node arrays."""
        end = np.cumsum(self.node_counts)
        trees = [Tree(*(getattr(self, a)[i:j] for a in _NODE_ARRAYS))
                 for i, j in zip(end - self.node_counts, end)]
        end = np.cumsum(self.tree_counts)
        return [trees[i:j] for i, j in zip(end - self.tree_counts, end)]

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise InputError(f"expected (N, {self.n_features}) inputs, got {X.shape}")
        n = X.shape[0]
        rows, node = np.arange(n)[:, None], np.tile(self._roots, (n, 1))
        # a leaf reads column -1 and goes back to itself either way
        while ((feature := self.feature[node]) >= 0).any():
            go_left = X[rows, feature] <= self.threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        # x + -0.0 is x for every x, so -0.0 pads the rows of fewer trees
        terms = np.full((n, self._grown.size * self._width), -0.0)
        terms[:, self._slot] = self.value[node]
        terms = terms.reshape(n, self._grown.size, self._width)
        terms[:, :, 0] = self.base[self._grown]
        out = np.tile(self.base, (n, 1))
        # accumulate adds left to right, unlike the pairwise np.sum
        out[:, self._grown] = np.add.accumulate(terms, axis=2)[:, :, -1]
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
    trees = [t for output in ensembles for t in output]
    return GbdtModel(
        params=params,
        loss=loss,
        base=base,
        tree_counts=np.asarray(diagnostics["trees_per_output"], dtype=np.int64),
        node_counts=np.asarray([t.feature.size for t in trees], dtype=np.int64),
        **{
            a: np.concatenate([np.zeros(0, d)] + [getattr(t, a) for t in trees])
            for a, d in zip(_NODE_ARRAYS, (np.int32, float, np.int32, np.int32, float))
        },
        n_features=data.n_features,
        seed=seed,
        diagnostics=diagnostics,
    )
