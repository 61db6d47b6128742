"""Gradient-boosted regression trees on histogram splits.

Each boosting round fits one depth-capped tree per output to the current
loss gradients.  Split gains use the regularized score T(G)^2 / (H + l2)
with an L1 soft threshold on the gradient sum G; the hessian mass H is the
loss's hessian ``hess``, one float, times the row count, and children must
carry at least ``min_child_weight`` of it, ``min_child_weight / hess`` rows,
and one row at the least.  Leaf values are the exact loss-minimizing
constant of the leaf's residuals (mean, median, or the Huber minimizer)
scaled by the learning rate, and the model boosts from the loss-optimal
constant of the full target, so training loss never increases while
subsampling is off.

The candidate splits are the fit's cells: per feature, its distinct
quantiles at k / ``max_bins``, k = 1 .. ``max_bins`` - 1 (64 bins by
default), that lie below its largest value.  Fit and prediction route a
row by one rule, left when ``x[feature] <= threshold``: the fit makes that
comparison once for every (training row, cell) pair, and the nodes store
the threshold itself.

A round grows the trees of all outputs still boosting together, one depth
level at a time.  Each output's gradients are first rounded to multiples of
2^(ceil(log2(n G)) - 52), n the training rows and G the largest gradient
magnitude, so every sum of them, a multiple of the step below 2^53 steps,
is exact in any order (LightGBM's coarser integer grid is the same idea:
Shi et al., "Quantized Training of Gradient Boosting Decision Trees",
NeurIPS 2022).  mae's gradients -1, 0 and 1 lie on every such grid, and
leaf values are taken from the residuals.  One matrix product gives a
level's cumulative histograms: the counted nodes' gradients and 0/1 row
memberships times the (row, cell) matrix that is 1 where x <= the cell's
threshold.  Only the roots, and of the two children of each split the one
with fewer sampled rows (the left one on a tie), are counted; the other
child's cells are its parent's less its sibling's (Ke et al., "LightGBM",
NeurIPS 2017), exact as well.  The trees are, bit for bit, those of
growing each output's tree alone, node by node, with or without the
sibling rule.  Each output draws its rows, then its features, from its own
stream; the best split is the first maximum over the cells, feature by
feature in ascending threshold; every row, sampled or not, goes left by
its entry of that matrix at the split's cell; and each tree's nodes are
numbered depth-first, left subtree first.  After the round's last level,
one ``leaf_optimal_value`` call values all its leaves, each ``eta`` times
the constant of its own sampled residuals alone, so a leaf's value does
not depend on which leaves share its round; one call before the first
round gives every output's base.

A fitted forest is packed into the flat arrays of the model file.
Prediction first compares each row once with every cell of the forest, a
distinct (feature, threshold) pair of its splits: the trees share the
fit's cells, so the acceptance forests of 18,000 to 31,000 nodes have
about 130 cells.  It then walks every (row, tree) pair down exactly as
many levels as the deepest tree has, one ``take`` of the node's cell, its
comparison and its child per level, through a (node, side) child table in
which both entries of a leaf are the leaf itself, so a row that reaches a
leaf early stays there.  The table holds each node's right child, then its
left, so the comparison ``x <= threshold`` indexes it and NaN goes right.
The walk does no arithmetic on x and reaches the same leaves for every
input.
Prediction then adds each output's leaf values to its base one at a time in
fit order, from a row of bases the model keeps, so it gives the same bits as
adding the trees one by one.
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


def _cells(X: np.ndarray, max_bins: int):
    """The candidate splits, feature-major, as (cell_feature, cell_threshold):
    each feature's distinct equal-frequency quantiles below its largest value,
    ascending."""
    qs = np.arange(1, max_bins) / max_bins
    edges = [np.unique(np.quantile(col, qs)) for col in X.T]
    # an edge equal to the column max cannot separate anything
    edges = [e[e < col.max()] for e, col in zip(edges, X.T)]
    return np.repeat(np.arange(X.shape[1]), [e.size for e in edges]), np.concatenate([np.zeros(0)] + edges)


def _score(G, H, params):
    """The split score T(G)^2 / (H + l2) of arrays, T the L1 soft threshold."""
    return np.maximum(np.abs(G) - params.l1, 0.0) ** 2 / (H + params.l2)


def _on_grid(g):
    """Each row of ``g`` rounded to multiples of 2^(ceil(log2(n G)) - 52), n
    its length and G its largest magnitude: any sum of its entries is exact."""
    mant, exp = np.frexp(g.shape[1] * np.max(np.abs(g), axis=1, keepdims=True))
    step = np.ldexp(1.0, exp - (mant == 0.5) - 52)
    return np.rint(g / step) * step


def _left_sums(left_of, slot, row, g, m):
    """The gradient sum and row count left of every cell, (m, 2, cells), of
    m nodes, node ``slot[i]`` holding row ``row[i]`` with gradient ``g[i]``:
    one product of the nodes' gradients and 0/1 rows with ``left_of``."""
    n, n_cells = left_of.shape
    weights = np.zeros((m, 2, n))
    weights[slot, 0, row], weights[slot, 1, row] = g, 1.0
    return (weights.reshape(2 * m, n) @ left_of).reshape(m, 2, n_cells)


def _grow_round(cells, left_of, rows, feats, g, hess, residual, loss, params):
    """Grow one tree per row of ``residual`` (an output's residuals on all
    training rows), level by level, tree i on the sampled rows ``rows[i]``
    and features ``feats[i]``, with gridded gradients ``g`` and hessian
    ``hess``; ``cells`` is ``_cells``'s (cell_feature, cell_threshold) and
    ``left_of`` (rows, cells) 1.0 where the row's x <= the cell's threshold.
    Returns the trees' node arrays and sizes, and the leaf value each (tree,
    row) reaches.

    Sums of gridded gradients are exact in any order.  One product gives the
    cells of the roots and, of each split's two children where either may
    split, the one with fewer sampled rows (the left on a tie); the other's
    are its parent's, kept from the last level, less its sibling's."""
    (cell_feature, cell_threshold), (n_trees, n) = cells, residual.shape
    sample = (np.arange(n_trees)[:, None] * n + rows).ravel()
    # each (tree, row)'s node in the level, or the level's size past a leaf
    at = np.repeat(np.arange(n_trees), n).reshape(n_trees, n)
    levels, owner = [], np.arange(n_trees)
    # the round's leaves are numbered level by level; each (tree, row)'s leaf,
    # and each leaf's sampled residuals and their count
    leaf_of, residuals, counts = np.full((n_trees, n), -1), [], []
    left_flat, row_start = left_of.ravel(), np.arange(n) * left_of.shape[1]
    while size := owner.size:
        # the sampled rows grouped by node, ascending within a node; numpy
        # sorts node numbers of 8 or 16 bits stably by radix
        key = at.ravel()[sample]
        count = np.bincount(key, minlength=size + 1)[:size]
        order = sample[np.argsort(key.astype(np.min_scalar_type(size)), kind="stable")[: count.sum()]]
        node, row = at.ravel()[order], order % n
        e_g, e_res = g.ravel()[order], residual.ravel()[order]
        # each node's split cell; a node past a leaf or not split keeps cell 0
        split, best = np.zeros(size + 1, dtype=bool), np.zeros(size + 1, dtype=np.int64)
        if len(levels) < params.max_depth and cell_threshold.size:
            # a sum of k copies of hess is exactly hess * k in float64
            g_tot, h_tot = np.bincount(node, e_g, minlength=size), hess * count
            # no node is empty, so h_tot > 0
            parent = _score(g_tot, h_tot, params)
            can = h_tot >= 2 * params.min_child_weight
            grow = np.flatnonzero(can)
            counted = grow
            if levels:
                # nodes 2k and 2k + 1 are the children of the last level's k-th split
                pair = np.flatnonzero(can.reshape(-1, 2).any(axis=1))
                counted = 2 * pair + (count[2 * pair + 1] < count[2 * pair])
            # each node's place in hist, or -1 for a node not counted
            slot = np.full(size, -1)
            slot[counted] = np.arange(m := counted.size)
            mine = slot[node] >= 0
            hist = _left_sums(left_of, slot[node[mine]], row[mine], e_g[mine], m)
            if levels:
                # node k ^ 1 is node k's sibling: its parent's cells less node k's
                hist = np.concatenate([hist, kept[pair] - hist])
                slot[counted ^ 1] = np.arange(m, 2 * m)
            hist = hist[slot[grow]]
            gl, hl = hist[:, 0], hess * hist[:, 1]
            gr, hr = g_tot[grow, None] - gl, h_tot[grow, None] - hl
            ok = feats[owner[grow]][:, cell_feature]
            # hl and hr are hess times a row count, so each side keeps a row:
            # an empty one scores 0 / 0 when l2 = 0
            least = max(params.min_child_weight, hess)
            ok &= (hl >= least) & (hr >= least)
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = _score(gl, hl, params) + _score(gr, hr, params) - parent[grow, None]
            gain[~ok] = -np.inf
            best[grow] = np.argmax(gain, axis=1)
            split[grow] = gain[np.arange(grow.size), best[grow]] > _GAIN_TOL
            kept = hist[split[grow]]
        # each node's leaf number, or -1
        leaf, number = np.flatnonzero(~split[:-1]), np.full(size + 1, -1)
        number[leaf] = np.arange(leaf.size) + sum(c.size for c in counts)
        residuals.append(e_res[~split[node]])
        counts.append(count[leaf])
        hit = np.flatnonzero(split)
        feature, threshold = np.full(size, -1, np.int32), np.zeros(size)
        feature[hit], threshold[hit] = cell_feature[best[hit]], cell_threshold[best[hit]]
        levels.append((owner, split[:-1], feature, threshold, number[:-1]))
        # each (tree, row) reaches one leaf, at one level
        np.maximum(leaf_of, number[at], out=leaf_of)
        # every row moves on, sampled or not, right unless x <= the threshold;
        # past a leaf, or at one, to the next level's size
        first = np.where(split, 2 * np.cumsum(split) - 2, 2 * hit.size)
        at = first.take(at) + (split.take(at) > left_flat.take(row_start + best.take(at)))
        owner = np.repeat(owner[hit], 2)
    # one call values every leaf of the round, each from its own rows; a
    # split's value, at number -1, is 0
    value = params.eta * leaf_optimal_value(loss, np.concatenate(residuals), np.concatenate(counts))
    value = np.append(value, 0.0)
    levels = [level[:4] + (value[level[4]],) for level in levels]
    return _preorder(levels, n_trees) + (value[leaf_of],)


def _preorder(levels, n_trees):
    """The trees' node arrays, one tree after another, each numbered
    depth-first with the left subtree first; and the trees' sizes."""
    size = [np.ones(level[0].size, dtype=np.int64) for level in levels]
    for d in range(len(levels) - 2, -1, -1):
        size[d][levels[d][1]] += size[d + 1].reshape(-1, 2).sum(axis=1)
    total, offset = int(size[0].sum()), np.cumsum(size[0]) - size[0]
    out = {a: np.full(total, -1, np.int32) for a in ("feature", "left", "right")}
    out.update(threshold=np.zeros(total), value=np.zeros(total))
    pos = np.zeros(n_trees, dtype=np.int64)
    for d, (owner, split, feature, threshold, value) in enumerate(levels):
        at = offset[owner] + pos
        out["feature"][at], out["threshold"][at], out["value"][at] = feature, threshold, value
        if d + 1 < len(levels):
            pos = np.repeat(pos[split] + 1, 2)
            pos[1::2] += size[d + 1][0::2]
            out["left"][at[split]], out["right"][at[split]] = pos[0::2], pos[1::2]
    return out, size[0]


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
        # node 2k + side's child across the forest, the left one at side 1, so
        # x <= threshold picks it; a leaf is both its own children
        self._child = np.where(leaf, own, own - local + np.stack([self.right, self.left])).T.reshape(-1)
        # each node's cell, a distinct (feature, threshold) pair of the forest;
        # a leaf's is (0, 0.0), which any x can be compared against
        cells, cell = np.unique(
            np.stack([np.where(leaf, 0, self.feature), np.where(leaf, 0.0, self.threshold)]),
            axis=1, return_inverse=True,
        )
        self._cell_feature, self._cell_threshold = cells[0].astype(np.intp), cells[1]
        self._cell = cell.reshape(-1).astype(np.int32)
        # the forest's depth: levels until every root's descendants are leaves
        level, self._depth = self._roots, 0
        while (inner := level[~leaf[level]]).size:
            level = np.unique(self._child[np.concatenate([2 * inner, 2 * inner + 1])])
            self._depth += 1
        # each output with trees sums one row of terms: its base, then its
        # leaf values in fit order; _slot is each tree's place in those rows
        self._grown, self._width = np.flatnonzero(counts), 1 + int(counts.max(initial=0))
        grown = counts[self._grown]
        row_start = np.arange(grown.size) * self._width + 1 - (np.cumsum(grown) - grown)
        self._slot = np.repeat(row_start, grown) + np.arange(nodes.size)
        # the rows' constant terms: each base, then -0.0, as x + -0.0 is x for
        # every x, for the places of trees an output does not have
        self._term_row = np.full(grown.size * self._width, -0.0)
        self._term_row[:: self._width] = self.base[self._grown]

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
        # 1 where x <= the cell's threshold; NaN is not, so it goes right
        left = (X.take(self._cell_feature, axis=1) <= self._cell_threshold).astype(np.intp)
        at, node = np.arange(n)[:, None] * self._cell_threshold.size, np.tile(self._roots, (n, 1))
        # a row at a leaf stays there
        for _ in range(self._depth):
            node = self._child.take(2 * node + left.take(at + self._cell.take(node)))
        terms = np.empty((n, self._term_row.size))
        terms[:] = self._term_row
        terms[:, self._slot] = self.value[node]
        terms = terms.reshape(n, self._grown.size, self._width)
        out = np.tile(self.base, (n, 1))
        # accumulate adds left to right, unlike the pairwise np.sum
        out[:, self._grown] = np.add.accumulate(terms, axis=2)[:, :, -1]
        return out


def fit_gbdt(data: Dataset, params: GbdtParams, loss: LossSpec, seed: int = 0) -> GbdtModel:
    """Train independent per-output ensembles sharing one parameter set."""
    if not data.n_rows or data.n_rows * loss.hessian < 2 * params.min_child_weight:
        raise InputError(f"{data.n_rows} rows cannot satisfy min_child_weight {params.min_child_weight}")
    (n, n_features), Y = data.X.shape, data.Y.T.copy()
    cells = _cells(data.X, params.max_bins)
    # predict's comparison x <= threshold, once per (row, cell), 1.0 in place
    left_of = data.X[:, cells[0]]
    np.less_equal(left_of, cells[1], out=left_of)
    base = leaf_optimal_value(loss, Y.ravel(), np.full(data.n_outputs, n))
    pred = np.repeat(base[:, None], n, axis=1)
    rngs = [stream(seed, TAG_LEARNER, j) for j in range(data.n_outputs)]
    n_rows = max(1, int(round(params.subsample * n)))
    n_feats = max(1, int(round(params.colsample_bytree * n_features)))
    active, rounds = np.arange(data.n_outputs), []
    for _ in range(params.n_iterations):
        residual = Y[active] - pred[active]
        keep = np.max(np.abs(residual), axis=1) >= 1e-15
        active, residual = active[keep], residual[keep]
        if not active.size:
            break
        g, hess = loss_grad_hess(loss, Y[active], pred[active])
        rows = np.tile(np.arange(n_rows), (active.size, 1))
        feats = np.ones((active.size, n_features), dtype=bool)
        for i, rng in enumerate(rngs[j] for j in active):
            if n_rows < n:
                rows[i] = np.sort(rng.choice(n, size=n_rows, replace=False))
            if n_feats < n_features:
                feats[i] = np.isin(np.arange(n_features), rng.choice(n_features, size=n_feats, replace=False))
        nodes, sizes, leaf_value = _grow_round(
            cells, left_of, rows, feats, _on_grid(g), hess, residual, loss, params)
        pred[active] += leaf_value
        rounds.append((active, sizes, nodes))
    # the trees output by output, each output's in fit order
    owner, sizes = (np.concatenate([np.zeros(0, np.int64)] + [r[i] for r in rounds]) for i in (0, 1))
    take = np.argsort(np.repeat(owner, sizes), kind="stable")
    tree_counts = np.bincount(owner, minlength=data.n_outputs)
    return GbdtModel(
        params=params,
        loss=loss,
        base=base,
        tree_counts=tree_counts.astype(np.int64),
        node_counts=sizes[np.argsort(owner, kind="stable")],
        **{a: np.concatenate([np.zeros(0, d)] + [r[2][a] for r in rounds])[take]
           for a, d in zip(_NODE_ARRAYS, (np.int32, float, np.int32, np.int32, float))},
        n_features=n_features,
        seed=seed,
        diagnostics={
            "train_loss_mean": float(np.mean([np.mean(loss_value(loss, y, p)) for y, p in zip(Y, pred)])),
            "train_rmse_mean": float(np.mean([np.sqrt(np.mean((y - p) ** 2)) for y, p in zip(Y, pred)])),
            "trees_per_output": tree_counts.tolist(),
        },
    )
