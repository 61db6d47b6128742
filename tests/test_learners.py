import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt.errors import InputError, ResourceLimitError
from surropt.learners import (
    Dataset,
    fit_gbdt,
    fit_ridge,
    fit_svr,
    gbdt,
    kfold_split,
    load_model,
    save_model,
    split_train_test,
    svr,
)
from surropt.learners.data import cross_validate
from surropt.learners.gbdt import PACKED, GbdtModel, GbdtParams, Tree, _left_sums, _on_grid
from surropt.learners.ridge import solve_ridge
from surropt.learners.store import KINDS
from surropt.learners.svr import SvrModel, pack_support, rbf_kernel, scale_gamma, smo_solve
from surropt.losses import LossSpec, loss_value
from surropt.util import load_arrays

from _fixtures import DATA, FORMAT_FIXTURES, LOSSES, format_fixture_model
from _oracles import (
    apply_tree,
    dual_objective,
    gradient_descent_ridge,
    projected_gradient_svr_dual,
    reference_cv_mse,
    reference_fit_gbdt,
    reference_gbdt_predict,
    reference_svr_predict,
    support_rows,
)


def make_dataset(rng, n=80, p=5, q=3, fn=None):
    X = rng.normal(size=(n, p))
    if fn is None:
        W = rng.normal(size=(p, q))
        Y = np.abs(X @ W + 0.05 * rng.normal(size=(n, q)))
    else:
        Y = fn(X)
    return Dataset(X, np.abs(Y), np.arange(n))


class TestKfold:
    def test_singleton_folds(self):
        folds = kfold_split(10, folds=10, seed=0)
        assert sorted(np.bincount(folds)) == [1] * 10

    def test_full_scale_fold_sizes(self):
        folds = kfold_split(18_500, folds=10, seed=1)
        assert np.all(np.bincount(folds) == 1850)

    def test_partition(self):
        folds = kfold_split(103, folds=10, seed=2)
        assert folds.shape == (103,)
        assert set(np.unique(folds)) == set(range(10))
        sizes = np.bincount(folds)
        assert sizes.max() - sizes.min() <= 1

    def test_deterministic(self):
        assert np.array_equal(kfold_split(50, 10, seed=3), kfold_split(50, 10, seed=3))
        assert not np.array_equal(kfold_split(50, 10, seed=3), kfold_split(50, 10, seed=4))

    def test_too_few_rows(self):
        with pytest.raises(InputError):
            kfold_split(5, folds=10)


class TestRidge:
    def test_zero_penalty_is_least_squares(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        Y = rng.normal(size=(30, 2))
        coef = solve_ridge(X, Y, 0.0)
        Z = np.column_stack([np.ones(30), X])
        expected, *_ = np.linalg.lstsq(Z, Y, rcond=None)
        assert np.allclose(coef.T, expected, atol=1e-8)

    def test_orthonormal_column_formula(self):
        # a centred unit column is orthogonal to the intercept's ones: the
        # intercept is mean(y) and the slope x'y / (1 + lam)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 1))
        x -= x.mean()
        x /= np.linalg.norm(x)
        y = rng.normal(size=(40, 1))
        lam = 3.7
        coef = solve_ridge(x, y, lam)
        assert np.allclose(coef, [[y.mean(), (x[:, 0] @ y[:, 0]) / (1.0 + lam)]], atol=1e-12)
        # and a least-squares solve of [Z; sqrt(lam) [0 I]] agrees
        Z = np.column_stack([np.ones(40), x])
        augmented = np.vstack([Z, [[0.0, np.sqrt(lam)]]])
        expected = np.linalg.lstsq(augmented, np.vstack([y, [[0.0]]]), rcond=None)[0].T
        assert np.allclose(coef, expected, atol=1e-12)

    def test_huge_penalty_kills_coefficients(self):
        rng = np.random.default_rng(2)
        data = make_dataset(rng, n=60)
        model_coef = solve_ridge(data.X, data.Y, 1e9)
        assert np.max(np.abs(model_coef[:, 1:])) < 1e-6

    def test_closed_form_matches_gradient_descent(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(50, 120))
            X = rng.normal(size=(n, 6))
            Y = rng.normal(size=(n, 2))
            lam = float(rng.uniform(0.1, 10.0))
            closed = solve_ridge(X, Y, lam)
            gd = gradient_descent_ridge(X, Y, lam)
            assert np.max(np.abs(closed - gd)) < 1e-6

    def test_fit_selects_lambda_and_predicts(self):
        rng = np.random.default_rng(4)
        data = make_dataset(rng, n=100)
        model = fit_ridge(data, lambdas=(0.01, 1.0, 100.0), folds=5)
        assert model.lam in (0.01, 1.0, 100.0)
        assert set(model.cv_mse) == {0.01, 1.0, 100.0}
        pred = model.predict(data.X)
        assert pred.shape == data.Y.shape

    def test_zero_input_predicts_intercept(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng, n=100)
        model = fit_ridge(data, lambdas=(1.0,), folds=5)
        assert np.allclose(model.predict(np.zeros((1, 5)))[0], model.coef[:, 0])

    def test_singular_lambda_zero_falls_back(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(60, 2))
        X = np.column_stack([base, base[:, 0]])  # exact collinearity
        data = Dataset(X, np.abs(rng.normal(size=(60, 1))), np.arange(60))
        model = fit_ridge(data, lambdas=(0.0, 0.5), folds=5)
        assert model.lam == 0.5

    def test_needs_enough_rows(self):
        rng = np.random.default_rng(7)
        with pytest.raises(InputError):
            fit_ridge(make_dataset(rng, n=5, p=5), lambdas=(1.0,), folds=2)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(8)
        data = make_dataset(rng, n=90)
        perm = rng.permutation(90)
        shuffled = Dataset(data.X[perm], data.Y[perm], data.day[perm])
        a = solve_ridge(data.X, data.Y, 2.0)
        b = solve_ridge(shuffled.X, shuffled.Y, 2.0)
        assert np.allclose(a, b, atol=1e-9)


class TestCrossValidate:
    """Ridge's lambda and SVR's C are picked by one shared loop, which gives
    the reference loop's scores bit for bit."""

    def test_ridge_scores_match_the_reference_loop(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(60, 3))
        X = np.column_stack([base, np.zeros(60)])  # rank-deficient: singular at lambda 0
        data = Dataset(X, np.abs(base @ rng.normal(size=(3, 2))), np.arange(60))
        lambdas = (0.0, 0.01, 0.5, 20.0)

        def fit_predict(lam, train, X_test):
            coef = solve_ridge(train.X, train.Y, lam)
            return np.column_stack([np.ones(X_test.shape[0]), X_test]) @ coef.T

        expected = reference_cv_mse(data, lambdas, 5, 3, fit_predict)
        assert sorted(expected) == [0.01, 0.5, 20.0]
        model = fit_ridge(data, lambdas=lambdas, folds=5, seed=3)
        assert list(model.cv_mse) == list(expected)
        assert same_bits(np.array(list(model.cv_mse.values())), np.array(list(expected.values())))
        assert model.lam == min(expected, key=lambda lam: (expected[lam], lam))

    def test_svr_scores_match_the_reference_loop(self):
        rng = np.random.default_rng(10)
        data = make_dataset(rng, n=40, p=2, q=2)
        Cs = [8.0, 0.5, 2.0]
        gamma = scale_gamma(data.X)

        def fit_predict(c, train, X_test):
            return fit_svr(train, C=c, gamma=gamma, epsilon=0.05).predict(X_test)

        expected = reference_cv_mse(data, Cs, 4, 11, fit_predict)
        model = fit_svr(data, C=Cs, epsilon=0.05, folds=4, seed=11)
        assert list(model.cv_mse) == Cs
        assert same_bits(np.array(list(model.cv_mse.values())), np.array([expected[c] for c in Cs]))
        assert model.C == min(expected, key=lambda c: (expected[c], c))

    def test_every_candidate_singular_rejected(self):
        data = Dataset(np.zeros((20, 2)), np.ones((20, 1)), np.arange(20))

        def fold_predict(candidate, X, Y, X_test):
            raise np.linalg.LinAlgError("singular")

        with pytest.raises(InputError, match="singular"):
            cross_validate(data, [1.0, 2.0], 4, 0, fold_predict)

    def test_ties_go_to_the_smaller_candidate(self):
        data = Dataset(np.zeros((20, 2)), np.ones((20, 1)), np.arange(20))

        def fold_predict(candidate, X, Y, X_test):
            return np.ones((len(X_test), 1))

        best, scores = cross_validate(data, [3.0, 1.0, 2.0], 4, 0, fold_predict)
        assert best == 1.0 and scores == {3.0: 0.0, 1.0: 0.0, 2.0: 0.0}


class TestGbdt:
    def test_constant_target(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 3))
        data = Dataset(X, np.full((40, 1), 2.25), np.arange(40))
        params = GbdtParams(n_iterations=5, max_depth=3, min_child_weight=1, subsample=1.0)
        model = fit_gbdt(data, params, LossSpec("mse"))
        assert np.allclose(model.predict(X), 2.25, atol=1e-9)
        # later rounds contribute nothing once the residual is zero
        assert model.diagnostics["trees_per_output"] == [0]

    def test_step_function_stumps(self):
        # 60 distinct values fit inside the 64-bin histogram, so an edge
        # falls in every gap and one stump can represent the step exactly
        X = np.linspace(0, 1, 60)[:, None]
        Y = 2.0 * (X >= 0.4)
        data = Dataset(X, Y, np.arange(60))
        params = GbdtParams(
            n_iterations=200, max_depth=1, min_child_weight=1, subsample=1.0, eta=0.1, l1=0.0, l2=0.0
        )
        model = fit_gbdt(data, params, LossSpec("mse"))
        rmse = np.sqrt(np.mean((model.predict(X) - Y) ** 2))
        assert rmse < 0.01

    def test_no_split_leaves_a_side_empty(self):
        # with l2 = 0 and min_child_weight = 0 a cell with an empty side scores
        # 0 / 0; the root's right child must still split 10s from 20s
        X = np.arange(8.0)[:, None]
        Y = np.array([[0.0], [0.0], [0.0], [0.0], [10.0], [10.0], [20.0], [20.0]])
        params = GbdtParams(
            n_iterations=1, max_depth=2, min_child_weight=0, subsample=1.0, eta=1.0, l1=0.0, l2=0.0
        )
        model = fit_gbdt(Dataset(X, Y, np.arange(8)), params, LossSpec("mse"))
        assert model.predict(X).tolist() == Y.tolist()

    def test_outlier_robustness_of_mae_loss(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(300, 1))
        clean = 3.0 * (X[:, 0] > 0.5) + 1.0
        y = clean.copy()
        bad = rng.choice(300, size=15, replace=False)  # 5% gross outliers
        y[bad] += 60.0
        data = Dataset(X, y[:, None], np.arange(300))
        params = GbdtParams(
            n_iterations=120, max_depth=2, min_child_weight=2, subsample=1.0, eta=0.1
        )
        pred_mae = fit_gbdt(data, params, LossSpec("mae")).predict(X)[:, 0]
        pred_mse = fit_gbdt(data, params, LossSpec("mse")).predict(X)[:, 0]
        clean_median = np.median(clean)
        err_mae = abs(np.median(pred_mae) - clean_median)
        err_mse = abs(np.median(pred_mse) - clean_median)
        assert err_mae < err_mse

    @pytest.mark.parametrize("loss", [LossSpec("mse"), LossSpec("mae"), LossSpec("huber", 1.0)])
    def test_training_loss_monotone_without_subsampling(self, loss):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 3))
        y = np.abs(X[:, 0] * 2 + np.sin(3 * X[:, 1]) + 0.3 * rng.normal(size=80))
        data = Dataset(X, y[:, None], np.arange(80))
        params = GbdtParams(
            n_iterations=40, max_depth=3, min_child_weight=1.0, subsample=1.0,
            colsample_bytree=1.0, eta=0.3,
        )
        model = fit_gbdt(data, params, loss)
        pred = np.full(80, model.base[0])
        losses = [loss_value(loss, y, pred).mean()]
        for tree in model.ensembles[0]:
            pred = pred + apply_tree(tree, X)
            losses.append(loss_value(loss, y, pred).mean())
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_min_child_weight_respected(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 2))
        y = np.abs(rng.normal(size=60))
        data = Dataset(X, y[:, None], np.arange(60))
        mcw = 6.0
        params = GbdtParams(
            n_iterations=10, max_depth=4, min_child_weight=mcw, subsample=1.0, eta=0.5
        )
        model = fit_gbdt(data, params, LossSpec("mse"))  # hessian = 2 per row

        def leaf_rows(tree, X):
            idx = np.zeros(len(X), dtype=int)
            out = {}
            for r in range(len(X)):
                node = 0
                while tree.feature[node] >= 0:
                    node = (
                        tree.left[node]
                        if X[r, tree.feature[node]] <= tree.threshold[node]
                        else tree.right[node]
                    )
                out.setdefault(node, 0)
                out[node] += 1
            return out

        for tree in model.ensembles[0]:
            for node, count in leaf_rows(tree, X).items():
                assert 2.0 * count >= mcw

    def test_deep_fit_reaches_training_labels(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 3))
        y = np.abs(X[:, 0] + 2 * X[:, 1] ** 2)
        data = Dataset(X, y[:, None], np.arange(50))
        params = GbdtParams(
            n_iterations=400, max_depth=6, min_child_weight=0.5, subsample=1.0, eta=0.3,
            l1=0.0, l2=0.01,
        )
        model = fit_gbdt(data, params, LossSpec("mse"))
        resid = np.max(np.abs(model.predict(X)[:, 0] - y))
        assert resid < 1e-3

    def test_tree_count_capped_by_iterations(self):
        rng = np.random.default_rng(15)
        data = make_dataset(rng, n=50)
        params = GbdtParams(n_iterations=7, max_depth=2, min_child_weight=1, subsample=0.8)
        model = fit_gbdt(data, params, LossSpec("mse"), seed=3)
        assert all(len(t) <= 7 for t in model.ensembles)

    def test_deterministic_predictions(self):
        rng = np.random.default_rng(16)
        data = make_dataset(rng, n=60)
        params = GbdtParams(n_iterations=15, max_depth=3, min_child_weight=1, subsample=0.6)
        a = fit_gbdt(data, params, LossSpec("mae"), seed=9)
        b = fit_gbdt(data, params, LossSpec("mae"), seed=9)
        assert np.array_equal(a.predict(data.X), b.predict(data.X))

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_predict_routes_training_rows_as_the_fit_did(self, loss):
        # whole-number features put many rows exactly on a split's threshold;
        # with subsampling, the fit also routes rows it did not sample
        rng = np.random.default_rng(18)
        X = rng.integers(0, 5, size=(120, 4)).astype(float)
        Y = np.abs(X @ rng.normal(size=(4, 3)) + rng.normal(size=(120, 3)))
        data = Dataset(X, Y, np.arange(120))
        params = GbdtParams(eta=0.3, n_iterations=20, max_depth=4, min_child_weight=1.0, subsample=0.6)
        model = fit_gbdt(data, params, loss, seed=3)
        split = model.feature >= 0
        assert (X[:, model.feature[split]] == model.threshold[split]).any(axis=0).all()
        # the diagnostics come from the fit's own running predictions
        Y, pred = data.Y.T.copy(), model.predict(data.X).T.copy()
        loss_mean = float(np.mean([np.mean(loss_value(loss, y, p)) for y, p in zip(Y, pred)]))
        rmse_mean = float(np.mean([np.sqrt(np.mean((y - p) ** 2)) for y, p in zip(Y, pred)]))
        assert loss_mean.hex() == model.diagnostics["train_loss_mean"].hex()
        assert rmse_mean.hex() == model.diagnostics["train_rmse_mean"].hex()

    def test_too_few_rows_rejected(self):
        rng = np.random.default_rng(17)
        data = make_dataset(rng, n=4)
        with pytest.raises(InputError):
            fit_gbdt(data, GbdtParams(min_child_weight=5.0), LossSpec("mse"))

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_zero_rows_rejected(self, loss):
        data = Dataset(np.zeros((0, 2)), np.zeros((0, 1)), np.arange(0))
        with pytest.raises(InputError):
            fit_gbdt(data, GbdtParams(min_child_weight=0), loss)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def packed_forest(ensembles):
    """The node arrays of per-output tree lists, concatenated by hand."""
    trees = [t for output in ensembles for t in output]

    def cat(name, dtype):
        return np.concatenate([np.zeros(0, dtype)] + [getattr(t, name) for t in trees])

    return dict(
        tree_counts=np.array([len(output) for output in ensembles], dtype=np.int64),
        node_counts=np.array([t.feature.size for t in trees], dtype=np.int64),
        feature=cat("feature", np.int32),
        threshold=cat("threshold", np.float64),
        left=cat("left", np.int32),
        right=cat("right", np.int32),
        value=cat("value", np.float64),
    )


def probe_rows(model, n, rng):
    """Random rows, the first ones set onto split thresholds (ties go left)."""
    X = rng.normal(size=(n, model.n_features))
    splits = np.flatnonzero(model.feature >= 0)
    for r, node in enumerate(splits[:n]):
        X[r, model.feature[node]] = model.threshold[node]
    return X


class TestGbdtPredict:
    """The packed forest predicts the same bits as adding trees one by one."""

    @pytest.mark.parametrize("loss", [LossSpec("mse"), LossSpec("mae"), LossSpec("huber", 1.0)])
    def test_matches_reference(self, loss):
        rng = np.random.default_rng(18)
        # the constant output grows no trees
        data = make_dataset(rng, n=80, p=4, fn=lambda X: np.column_stack(
            [X[:, 0] + X[:, 1], np.sin(2 * X[:, 2]), np.full(len(X), 0.75), X[:, 3] ** 2]
        ))
        params = GbdtParams(n_iterations=9, max_depth=3, min_child_weight=1, subsample=0.7)
        fitted = fit_gbdt(data, params, loss, seed=2)
        assert fitted.tree_counts.tolist() == [9, 9, 0, 9]
        uneven = [trees[:k] for trees, k in zip(fitted.ensembles, (9, 4, 0, 1))]
        cut = replace(fitted, **packed_forest(uneven))
        for model in (fitted, cut):
            for n in (0, 1, 2, 37):
                X = probe_rows(model, n, rng)
                assert same_bits(model.predict(X), reference_gbdt_predict(model, X))

    def test_model_without_trees(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(40, 3))
        data = Dataset(X, np.column_stack([np.full(40, 2.25), np.zeros(40)]), np.arange(40))
        params = GbdtParams(n_iterations=5, max_depth=3, min_child_weight=1, subsample=1.0)
        model = fit_gbdt(data, params, LossSpec("mse"))
        assert model.node_counts.size == 0
        for n in (0, 1, 2, 37):
            X = rng.normal(size=(n, 3))
            assert same_bits(model.predict(X), reference_gbdt_predict(model, X))

    def test_negative_zero_survives(self):
        def leaf(v):
            none = np.array([-1], dtype=np.int32)
            return Tree(none, np.zeros(1), none, none, np.array([v]))

        stump = Tree(
            feature=np.array([1, -1, -1], dtype=np.int32),
            threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, -0.0, 2.0]),
        )
        ensembles = [[], [leaf(-0.0)], [stump, leaf(1.0), stump], [stump]]
        model = GbdtModel(
            params=GbdtParams(), loss=LossSpec("mse"), base=np.array([-0.0, -0.0, 1.0, -0.0]),
            **packed_forest(ensembles), n_features=2, seed=0,
        )
        X = np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 3.0]])
        out = model.predict(X)
        assert same_bits(out, reference_gbdt_predict(model, X))
        assert np.signbit(out[:, :2]).all() and np.signbit(out[:2, 3]).all()
        assert out[:, 2].tolist() == [2.0, 2.0, 6.0]


def forest_depth(model):
    """The most splits on any root-to-leaf path of the model's trees."""
    depth = 0
    for tree in (t for trees in model.ensembles for t in trees):
        level = np.zeros(tree.feature.size, dtype=np.int64)
        # a child comes after its parent
        for k in np.flatnonzero(tree.feature >= 0):
            level[tree.left[k]] = level[tree.right[k]] = level[k] + 1
        depth = max(depth, int(level.max()))
    return depth


class TestGbdtWalk:
    """The fixed-depth walk reaches the leaves of the node-by-node walk on
    every input: a value equal to a threshold goes left, NaN goes right,
    and a row that reaches a leaf early stays there."""

    @staticmethod
    def rows(model, n, rng):
        # the first rows sit on thresholds; half the rest of the cells are NaN or +-inf
        X = probe_rows(model, n, rng)
        tail = X[n // 2 :]
        special = rng.random(tail.shape) < 0.5
        tail[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
        return X

    @staticmethod
    def deep_model():
        rng = np.random.default_rng(62)
        X = rng.normal(size=(400, 3))
        Y = np.column_stack([np.abs(np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2]), np.full(400, 0.5)])
        params = GbdtParams(eta=0.5, n_iterations=4, max_depth=15, min_child_weight=0, subsample=0.8)
        return fit_gbdt(Dataset(X, Y, np.arange(400)), params, LossSpec("mse"), seed=3)

    @pytest.mark.parametrize("n", [0, 1, 7, 50])
    def test_special_values_match_the_reference(self, n):
        rng = np.random.default_rng(63)
        for model in [format_fixture_model(loss) for loss in LOSSES] + [self.deep_model()]:
            X = self.rows(model, n, rng)
            assert same_bits(model.predict(X), reference_gbdt_predict(model, X))

    def test_depth_15_forest(self):
        model = self.deep_model()
        assert forest_depth(model) == 15 and model.tree_counts.tolist() == [4, 0]
        X = self.rows(model, 200, np.random.default_rng(64))
        assert np.isnan(X).any() and np.isinf(X).any()
        assert same_bits(model.predict(X), reference_gbdt_predict(model, X))

    @pytest.mark.parametrize("n", [0, 1])
    def test_forest_without_trees_is_constant(self, n):
        model = GbdtModel(
            params=GbdtParams(), loss=LossSpec("mae"), base=np.array([2.25, -0.0, 7.0]),
            **packed_forest([[], [], []]), n_features=2, seed=0,
        )
        X = np.full((n, 2), np.nan)
        out = model.predict(X)
        assert same_bits(out, reference_gbdt_predict(model, X))
        assert same_bits(out, np.tile(model.base, (n, 1)))


class TestGbdtGrower:
    """The level-wise grower builds, bit for bit, the forest of growing each
    output's trees one at a time, node by node, by depth-first recursion."""

    @staticmethod
    def data():
        rng = np.random.default_rng(61)
        n = 64
        x0 = np.repeat([0.0, 1.0], n // 2)[rng.permutation(n)]
        x1, x4 = rng.normal(size=n), rng.normal(size=n)
        # a constant feature, and x3 equal to x1 so every x1 split ties with x3
        X = np.column_stack([x0, x1, np.full(n, 0.25), x1, x4])
        Y = np.column_stack([
            np.full(n, 1.5),                     # grows no trees
            x0,                                  # residual reaches zero early
            np.abs(x1 + np.sin(2 * x4)),
            x4**2,
        ])
        return Dataset(X, Y, np.arange(n))

    def fit_both(self, loss, subtract=True, **params):
        params = GbdtParams(eta=1.0, n_iterations=5, **params)
        data = self.data()
        reference = reference_fit_gbdt(data, params, loss, seed=7, subtract=subtract)
        return fit_gbdt(data, params, loss, seed=7), reference

    def assert_grid_matches(self, loss, subtract, subsample, colsample, max_depth):
        # l2 = 0: with min_child_weight 0 empty nodes score 0 / 0, and 2.5 is
        # a child weight that is not a multiple of the mse hessian; at 5, some
        # level below the cap has no node heavy enough to split
        regular = itertools.product((0.0, 2.0), (0.0, 0.1), (2, 64), (1.0,))
        extra = [(0.0, 0.0, 64, 0.0), (2.5, 0.1, 64, 0.0), (5.0, 0.1, 64, 1.0)]
        for mcw, l1, max_bins, l2 in itertools.chain(regular, extra):
            model, reference = self.fit_both(
                loss, subtract, max_depth=max_depth, min_child_weight=mcw, l1=l1, l2=l2, max_bins=max_bins,
                subsample=subsample, colsample_bytree=colsample,
            )
            for name in PACKED:
                assert same_bits(getattr(model, name), getattr(reference, name)), (name, mcw, l1, max_bins, l2)
            assert model.diagnostics == reference.diagnostics

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_stops_like_the_reference(self, loss):
        model, reference = self.fit_both(loss, max_depth=3, min_child_weight=2, subsample=1.0)
        assert model.tree_counts[:2].tolist() == [0, 1] and min(model.tree_counts[2:]) == 5
        assert model.diagnostics == reference.diagnostics

    @pytest.mark.parametrize("max_depth", [1, 3, 6])
    @pytest.mark.parametrize("subsample, colsample", [(1.0, 1.0), (0.7, 1.0), (1.0, 0.5), (0.7, 0.5)])
    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_matches_reference(self, loss, subsample, colsample, max_depth):
        self.assert_grid_matches(loss, True, subsample, colsample, max_depth)

    @pytest.mark.parametrize("max_depth", [1, 3, 6])
    @pytest.mark.parametrize("subsample, colsample", [(1.0, 1.0), (0.7, 1.0), (1.0, 0.5), (0.7, 0.5)])
    def test_mae_keeps_the_direct_count_bits(self, subsample, colsample, max_depth):
        # mae gradients -1, 0 and 1 lie on the grid, and the headline model
        # keeps the bits of the grower that counted every node
        self.assert_grid_matches(LossSpec("mae"), False, subsample, colsample, max_depth)

    @pytest.mark.parametrize("max_depth", [1, 3, 6])
    @pytest.mark.parametrize("subsample, colsample", [(1.0, 1.0), (0.7, 1.0), (1.0, 0.5), (0.7, 0.5)])
    @pytest.mark.parametrize("loss", [LossSpec("mse"), LossSpec("huber", 1.0)], ids=lambda loss: loss.kind)
    def test_subtraction_keeps_the_direct_count_bits(self, loss, subsample, colsample, max_depth):
        # gridded gradient sums are exact, so a parent less its sibling is the
        # sum a direct count gives under every loss
        self.assert_grid_matches(loss, False, subsample, colsample, max_depth)

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_one_leaf_value_call_per_round(self, loss, monkeypatch):
        """One ``leaf_optimal_value`` call values the bases of all outputs,
        and one more every leaf of a round, whatever its depth."""
        calls = []
        real = gbdt.leaf_optimal_value
        monkeypatch.setattr(gbdt, "leaf_optimal_value", lambda *a: calls.append(a) or real(*a))
        data = self.data()
        params = GbdtParams(eta=1.0, n_iterations=5, max_depth=3, min_child_weight=2)
        model = fit_gbdt(data, params, loss, seed=7)
        # output 0 grows no trees and output 1 stops early, so the other
        # outputs' tree counts are the rounds grown
        assert model.tree_counts.tolist()[:2] == [0, 1] and model.tree_counts.max() == 5
        assert len(calls) == 1 + model.tree_counts.max()
        assert calls[0][2].tolist() == [data.n_rows] * data.n_outputs
        for k, (_, residuals, counts) in enumerate(calls[1:]):
            # every leaf of round k's trees, each with its sampled rows
            trees = [ensemble[k] for ensemble in model.ensembles if len(ensemble) > k]
            assert counts.size == sum(int((tree.feature == -1).sum()) for tree in trees)
            assert counts.sum() == residuals.size == len(trees) * round(0.7 * data.n_rows)

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_level_with_no_counted_node(self, loss):
        """A level below the depth cap where no node may split used to fail
        in the histogram pass (a TypeError from an empty bincount)."""
        rng = np.random.default_rng(0)
        X = rng.integers(0, 3, (40, 3)).astype(float)
        data = Dataset(X, np.abs(X[:, :1] - 1 + 0.1 * rng.normal(size=(40, 1))), np.arange(40))
        params = GbdtParams(max_depth=6, min_child_weight=5.0, n_iterations=5)
        model, reference = fit_gbdt(data, params, loss), reference_fit_gbdt(data, params, loss)
        for name in PACKED:
            assert same_bits(getattr(model, name), getattr(reference, name)), name

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 500),
        log_g=st.floats(-12.0, 6.0),
        edge=st.sampled_from([-2, -1, 0, 1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gridded_sums_are_exact(self, n, log_g, edge, seed):
        """With G near 10**log_g and n * G at a power of two, or just below
        or above it, every node's gradient sum left of a cell is the exact
        sum, math.fsum's, and the grid keeps -1, 0 and 1."""
        rng = np.random.default_rng(seed)
        G = 2.0 ** round(math.log2(n * 10.0**log_g)) / n
        for _ in range(abs(edge)):
            G = np.nextafter(G, np.inf if edge > 0 else 0.0)
        g = rng.uniform(-G, G, size=(3, n))
        # output 0 one-signed, so its sums grow like n * G
        g[0] = np.abs(g[0])
        g[np.arange(3), rng.integers(0, n, 3)] = G * rng.choice([-1.0, 1.0], 3)
        on_grid = _on_grid(g)
        # half a step, and a step is below 2 n G 2**-52
        assert np.abs(on_grid - g).max() <= n * G * 2.0**-52
        # three outputs' nodes, each on some of the rows, in one product
        m = 7
        left_of = (rng.integers(0, 5, (n, 1)) <= rng.integers(0, 5, 6)).astype(float)
        owner, member = rng.integers(0, 3, m), rng.random((m, n)) < 0.6
        slot, row = np.nonzero(member)
        hist = _left_sums(left_of, slot, row, on_grid[owner[slot], row], m)
        for k, c in itertools.product(range(m), range(left_of.shape[1])):
            rows = np.flatnonzero(member[k] & (left_of[:, c] == 1.0))
            assert hist[k, 0, c] == math.fsum(on_grid[owner[k], rows]), (k, c)
            assert hist[k, 1, c] == rows.size
        signs = rng.choice([-1.0, 0.0, 1.0], size=(3, n))
        assert same_bits(_on_grid(signs), signs)


def solve_with(monkeypatch, **options):
    """Run every SMO solve of the fits that follow with ``options`` (a
    tolerance or an iteration cap); returns the solves' convergence flags,
    in call order."""
    converged = []

    def solve(*args):
        result = smo_solve(*args, **options)
        converged.append(result[3])
        return result

    monkeypatch.setattr(svr, "smo_solve", solve)
    return converged


class TestSvr:
    def test_constant_target_inside_tube(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(30, 2))
        data = Dataset(X, np.full((30, 1), 4.5), np.arange(30))
        model = fit_svr(data, C=1.0, epsilon=0.1)
        assert model.bias[0] == pytest.approx(4.5, abs=1e-9)
        assert model.sv_counts[0] == 0
        assert np.allclose(model.predict(X), 4.5)

    def test_sine_fit_and_pg_oracle(self):
        rng = np.random.default_rng(21)
        X = np.sort(rng.uniform(0, 2 * np.pi, size=50))[:, None]
        y = np.sin(X[:, 0]) + 2.0
        data = Dataset(X, y[:, None], np.arange(50))
        C, gamma, eps = 10.0, 1.0, 0.01
        model = fit_svr(data, C=C, gamma=gamma, epsilon=eps)
        grid = np.linspace(0.2, 2 * np.pi - 0.2, 100)[:, None]
        rmse = np.sqrt(np.mean((model.predict(grid)[:, 0] - (np.sin(grid[:, 0]) + 2.0)) ** 2))
        assert rmse < 0.1
        K = rbf_kernel(X, X, gamma)
        beta, _, _, converged = smo_solve(K, y, C, eps)
        assert converged
        ref_obj, _ = projected_gradient_svr_dual(K, y, C, eps)
        assert dual_objective(K, y, beta, eps) <= ref_obj + 1e-3

    def test_kkt_constraints(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(40, 3))
        y = np.abs(X @ np.array([1.0, -0.5, 0.25]))
        data = Dataset(X, y[:, None], np.arange(40))
        C = 5.0
        model = fit_svr(data, C=C, epsilon=0.05)
        beta = model.coef[0]
        assert abs(beta.sum()) < 1e-6
        assert np.all(np.abs(beta) <= C + 1e-12)

    def test_non_support_vectors_inside_tube(self, monkeypatch):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(50, 2))
        y = np.abs(X[:, 0] - X[:, 1])
        data = Dataset(X, y[:, None], np.arange(50))
        eps = 0.2
        solve_with(monkeypatch, tol=1e-4)
        model = fit_svr(data, C=10.0, epsilon=eps)
        pred = model.predict(X)[:, 0]
        sv_rows = {tuple(r) for r in support_rows(model)[0]}
        outside = [
            abs(pred[i] - y[i]) for i in range(50) if tuple(X[i]) not in sv_rows
        ]
        assert all(v <= eps + 1e-3 for v in outside)

    def test_cv_selects_c(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(40, 2))
        y = np.abs(X[:, 0])
        data = Dataset(X, y[:, None], np.arange(40))
        model = fit_svr(data, C=(0.1, 10.0), folds=4)
        assert model.C in (0.1, 10.0)
        assert set(model.cv_mse) == {0.1, 10.0}

    def test_unconverged_fit_raises_with_no_model(self, monkeypatch):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(60, 2))
        y = np.abs(np.sin(3 * X[:, 0]) + X[:, 1])
        data = Dataset(X, y[:, None], np.arange(60))
        converged = solve_with(monkeypatch, max_iter=3)
        with pytest.raises(ResourceLimitError, match=r"output 0, C=100\.0") as err:
            fit_svr(data, C=100.0, epsilon=0.001)
        assert converged == [False]
        assert not hasattr(err.value, "partial")

    def test_first_unconverged_output_stops_the_fit(self, monkeypatch):
        rng = np.random.default_rng(75)
        converged = solve_with(monkeypatch, max_iter=3)
        built = []
        monkeypatch.setattr(svr, "SvrModel", lambda *args, **kwargs: built.append(args))
        with pytest.raises(ResourceLimitError, match="output 1"):
            fit_svr(TestSvrPredict.whole_dataset(rng), C=100.0, epsilon=0.001)
        # the constant output converged, the next did not; no later output
        # was solved and no model was built
        assert converged == [True, False] and not built

    def test_cv_raises_when_a_fold_does_not_converge(self, monkeypatch):
        rng = np.random.default_rng(26)
        data = make_dataset(rng, n=40, p=2, q=3)
        converged = solve_with(monkeypatch, max_iter=2)
        with pytest.raises(ResourceLimitError, match=r"output 0, C=1\.0"):
            fit_svr(data, C=[1.0, 10.0], folds=4)
        # the error comes from the first fold's first output, before any CV score
        assert converged == [False]

    @pytest.mark.parametrize("C", [(), (-1.0, 1.0), (0.0,), (float("nan"),), -2.0])
    def test_invalid_c_rejected_before_cv(self, C):
        rng = np.random.default_rng(27)
        data = make_dataset(rng, n=20, p=2, q=2)
        with pytest.raises(InputError, match="C "):
            fit_svr(data, C=C, folds=4)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("inf")])
    def test_invalid_gamma_rejected(self, gamma):
        rng = np.random.default_rng(28)
        data = make_dataset(rng, n=20, p=2, q=1)
        with pytest.raises(InputError, match="gamma"):
            fit_svr(data, C=1.0, gamma=gamma)

    @pytest.mark.parametrize("epsilon", [-2.0, float("nan")])
    def test_invalid_epsilon_rejected(self, epsilon):
        rng = np.random.default_rng(28)
        data = make_dataset(rng, n=20, p=2, q=1)
        with pytest.raises(InputError, match="epsilon"):
            fit_svr(data, C=1.0, epsilon=epsilon)


class TestSvrPredict:
    """One kernel over the distinct support rows of all outputs gives the
    bits of one kernel per output wherever the rows are whole numbers, and
    agrees to rounding on other rows."""

    @staticmethod
    def whole_dataset(rng, n=60, p=4):
        # inventory-like counts, many rows repeated; the constant output has
        # no support vectors
        X = rng.integers(0, 4, size=(n, p)).astype(float)
        Y = np.column_stack([np.full(n, 2.0), X[:, 0] + X[:, 1], np.abs(X[:, 2] - X[:, 3]), X[:, 3]])
        return Dataset(X, Y, np.arange(n))

    @staticmethod
    def built(picks, p=3):
        """Output j's support vectors are the rows ``picks[j]`` of one
        whole-number pool."""
        rng = np.random.default_rng(71)
        pool = rng.integers(-3, 4, size=(6, p)).astype(float)
        return SvrModel(
            **pack_support([pool[list(k)].reshape(-1, p) for k in picks],
                           [rng.normal(size=len(k)) for k in picks], p),
            bias=rng.normal(size=len(picks)),
            gamma=0.3, epsilon=0.1, C=1.0, n_features=p,
        )

    def models(self):
        fitted = fit_svr(self.whole_dataset(np.random.default_rng(70)), C=2.0, epsilon=0.1)
        sizes = [sv.shape[0] for sv in support_rows(fitted)]
        distinct = np.unique(np.concatenate(support_rows(fitted)), axis=0).shape[0]
        assert sizes[0] == 0 and min(sizes[1:]) > 0 and distinct < sum(sizes)
        return [
            fitted,
            # shared rows, an output without support vectors, a row twice in one output
            self.built([(0, 1, 2), (), (2, 3, 0, 0), (5,)]),
            self.built([(), ()]),
            self.built([]),
        ]

    @pytest.mark.parametrize("n", [0, 1, 7, 50])
    def test_whole_number_rows_match_the_reference_bits(self, n):
        rng = np.random.default_rng(72)
        for model in self.models():
            X = rng.integers(-2, 6, size=(n, model.n_features)).astype(float)
            assert same_bits(model.predict(X), reference_svr_predict(model, X))

    def test_float_rows_match_the_reference_closely(self):
        rng = np.random.default_rng(73)
        floats = fit_svr(make_dataset(rng, n=60, p=3, q=3), C=2.0, epsilon=0.05)
        for model in self.models() + [floats]:
            X = rng.normal(scale=2.0, size=(50, model.n_features))
            np.testing.assert_allclose(model.predict(X), reference_svr_predict(model, X), rtol=1e-12)

    def test_reloaded_model_keeps_the_bits(self, tmp_path):
        rng = np.random.default_rng(74)
        for k, model in enumerate(self.models()):
            save_model(tmp_path / f"{k}.surropt", model)
            loaded = load_model(tmp_path / f"{k}.surropt")
            for X in (rng.integers(-2, 6, size=(7, model.n_features)).astype(float),
                      rng.normal(size=(7, model.n_features))):
                assert same_bits(loaded.predict(X), model.predict(X))


class TestPredictApi:
    def test_single_vector_and_dim_check(self):
        rng = np.random.default_rng(30)
        data = make_dataset(rng, n=100)
        model = fit_ridge(data, lambdas=(1.0,), folds=5)
        single = model.predict(data.X[:1])
        assert single.shape == (1, 3)
        assert np.allclose(single[0], model.predict(data.X)[0], rtol=0, atol=1e-12)
        with pytest.raises(InputError):
            model.predict(np.zeros((2, 7)))

    def test_bitwise_deterministic_predictions(self):
        rng = np.random.default_rng(31)
        data = make_dataset(rng, n=60)
        params = GbdtParams(n_iterations=10, max_depth=2, min_child_weight=1)
        model = fit_gbdt(data, params, LossSpec("huber", 1.0), seed=1)
        a = model.predict(data.X)
        b = model.predict(data.X)
        assert np.array_equal(a, b)


class TestSerialization:
    @pytest.mark.parametrize("kind", ["ridge", "gbdt", "svr"])
    def test_round_trip_bit_identical(self, kind, tmp_path):
        rng = np.random.default_rng(40)
        data = make_dataset(rng, n=80)
        if kind == "ridge":
            model = fit_ridge(data, lambdas=(0.5,), folds=5)
        elif kind == "gbdt":
            params = GbdtParams(n_iterations=12, max_depth=3, min_child_weight=1, subsample=0.7)
            model = fit_gbdt(data, params, LossSpec("mae"), seed=5)
        else:
            model = fit_svr(data, C=2.0, epsilon=0.05)
        path = tmp_path / f"{kind}.surropt"
        save_model(path, model)
        loaded = load_model(path)
        probe = rng.normal(size=(25, data.n_features))
        assert np.array_equal(model.predict(probe), loaded.predict(probe))

    def test_reloaded_ridge_keeps_single_row_bits(self, tmp_path):
        """A fitted coef was F-ordered and a loaded one C-ordered, so single
        rows took two BLAS paths and could differ in the last bit."""
        rng = np.random.default_rng(40)
        data = make_dataset(rng, n=80)
        model = fit_ridge(data, lambdas=(0.5,), folds=5)
        path = tmp_path / "ridge.surropt"
        save_model(path, model)
        loaded = load_model(path)
        rows = rng.integers(-5, 6, size=(2000, 1, data.n_features)).astype(float)
        assert all(same_bits(model.predict(row), loaded.predict(row)) for row in rows)

    @pytest.mark.parametrize("kind", ["gbdt", "svr"])
    def test_reloaded_model_rebuilds_its_derived_state(self, kind, tmp_path):
        """A loaded model rebuilds what its constructor derives (the GBDT's
        cells, child table and term row; the SVR's row norms and per-output
        spans) and predicts the saved model's bits, one row or many."""
        rng = np.random.default_rng(44)
        data = make_dataset(rng, n=80)
        if kind == "gbdt":
            params = GbdtParams(n_iterations=12, max_depth=3, min_child_weight=1, subsample=0.7)
            model = fit_gbdt(data, params, LossSpec("huber", 1.0), seed=5)
        else:
            model = fit_svr(data, C=2.0, epsilon=0.05)
        path = tmp_path / f"{kind}.surropt"
        save_model(path, model)
        loaded = load_model(path)
        probes = [rng.normal(size=(25, data.n_features)),
                  rng.integers(-2, 6, size=(25, data.n_features)).astype(float)]
        if kind == "gbdt":
            probes.append(TestGbdtWalk.rows(model, 25, rng))
        for probe in probes:
            for rows in (probe, probe[:1]):
                assert same_bits(loaded.predict(rows), model.predict(rows))

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_gbdt_file_format_unchanged(self, tmp_path, loss):
        fixture = DATA / f"gbdt-{loss.kind}-v2.surropt"
        model = load_model(fixture)
        assert model.loss == loss
        X = probe_rows(model, 37, np.random.default_rng(42))
        assert same_bits(model.predict(X), reference_gbdt_predict(model, X))
        for i, source in enumerate((model, format_fixture_model(loss))):
            path = tmp_path / f"again-{i}.surropt"
            save_model(path, source)
            assert path.read_bytes() == fixture.read_bytes()

    @pytest.mark.parametrize("kind", ["ridge", "svr"])
    def test_ridge_svr_file_format_unchanged(self, tmp_path, kind):
        fixture = DATA / f"{kind}-v2.surropt"
        model, fitted = load_model(fixture), FORMAT_FIXTURES[fixture.name]()
        assert model.cv_mse == fitted.cv_mse and all(type(k) is float for k in model.cv_mse)
        X = np.random.default_rng(43).integers(-1, 5, size=(37, model.n_features)).astype(float)
        assert same_bits(model.predict(X), fitted.predict(X))
        if kind == "svr":
            assert same_bits(model.predict(X), reference_svr_predict(model, X))
        for i, source in enumerate((model, fitted)):
            path = tmp_path / f"again-{i}.surropt"
            save_model(path, source)
            assert path.read_bytes() == fixture.read_bytes()

    @pytest.mark.parametrize("name", sorted(FORMAT_FIXTURES))
    def test_file_holds_the_model_fields(self, name):
        """Every header key but format_version and kind names a field that is
        not an array, and every member an array field, of the file's kind."""
        meta, arrays = load_arrays(DATA / name)
        model = load_model(DATA / name)
        assert type(model) is KINDS[meta.pop("kind")] and meta.pop("format_version") == 2
        values = {f.name: getattr(model, f.name) for f in fields(model)}
        assert set(meta) | set(arrays) == set(values) and not set(meta) & set(arrays)
        for key, value in values.items():
            assert isinstance(value, np.ndarray) == (key in arrays), key

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(41)
        data = make_dataset(rng, n=60)
        model = fit_ridge(data, lambdas=(1.0,), folds=5)
        p1, p2 = tmp_path / "a.surropt", tmp_path / "b.surropt"
        save_model(p1, model)
        save_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_guard(self, tmp_path):
        from surropt.util import save_arrays

        path = tmp_path / "bad.surropt"
        save_arrays(path, {"format_version": 99, "kind": "ridge"}, {"coef": np.zeros((1, 2))})
        with pytest.raises(InputError):
            load_model(path)


class TestSplit:
    def test_chronological_ceiling(self):
        rng = np.random.default_rng(50)
        data = make_dataset(rng, n=10)
        train, test = split_train_test(data, 0.75)
        assert train.n_rows == 8  # ceil(7.5)
        assert test.n_rows == 2
        assert np.all(train.day == np.arange(8))
        with pytest.raises(InputError):
            split_train_test(data, 1.0)
