import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from surropt.errors import InputError, ResourceLimitError
from surropt.learners import (
    Dataset,
    fit_gbdt,
    fit_ridge,
    fit_svr,
    kfold_split,
    load_model,
    save_model,
    split_train_test,
)
from surropt.learners.gbdt import PACKED, GbdtModel, GbdtParams, Tree
from surropt.learners.ridge import solve_ridge
from surropt.learners.svr import dual_objective, rbf_kernel, smo_solve
from surropt.losses import LossSpec, loss_value

from _oracles import (
    apply_tree,
    gradient_descent_ridge,
    projected_gradient_svr_dual,
    reference_fit_gbdt,
    reference_gbdt_predict,
)

# GBDT model files written by the tree-by-tree grower, before the forest was
# packed in memory (mae) and before the trees grew level by level (mse,
# huber); the fitting recipe is format_fixture_model below.
GBDT_FORMAT_FIXTURES = Path(__file__).parent / "data"
LOSSES = [LossSpec("mse"), LossSpec("mae"), LossSpec("huber", 1.0)]


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
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 1))
        x /= np.linalg.norm(x)
        y = rng.normal(size=(40, 1))
        lam = 3.7
        coef = solve_ridge(x, y, lam, intercept=False)
        assert np.allclose(coef, (x.T @ y).T / (1.0 + lam), atol=1e-12)

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

    def test_too_few_rows_rejected(self):
        rng = np.random.default_rng(17)
        data = make_dataset(rng, n=4)
        with pytest.raises(InputError):
            fit_gbdt(data, GbdtParams(min_child_weight=5.0), LossSpec("mse"))


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


def format_fixture_model(loss=LossSpec("mae")):
    rng = np.random.default_rng(60)
    X = rng.normal(size=(60, 4))
    Y = np.column_stack([np.abs(X[:, 0] + X[:, 1]), np.full(60, 1.5), np.abs(np.sin(2 * X[:, 2]))])
    params = GbdtParams(n_iterations=6, max_depth=3, min_child_weight=1, subsample=0.7)
    return fit_gbdt(Dataset(X, Y, np.arange(60)), params, loss, seed=4)


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

    def fit_both(self, loss, **params):
        params = GbdtParams(eta=1.0, n_iterations=5, **params)
        data = self.data()
        reference = reference_fit_gbdt(data, params, loss, seed=7)
        return fit_gbdt(data, params, loss, seed=7), reference

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_stops_like_the_reference(self, loss):
        model, reference = self.fit_both(loss, max_depth=3, min_child_weight=2, subsample=1.0)
        assert model.tree_counts[:2].tolist() == [0, 1] and min(model.tree_counts[2:]) == 5
        assert model.diagnostics == reference.diagnostics

    @pytest.mark.parametrize("max_depth", [1, 3, 6])
    @pytest.mark.parametrize("subsample, colsample", [(1.0, 1.0), (0.7, 1.0), (1.0, 0.5), (0.7, 0.5)])
    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_matches_reference(self, loss, subsample, colsample, max_depth):
        # l2 = 0: with min_child_weight 0 empty nodes score 0 / 0, and 2.5 is
        # a child weight that is not a multiple of the mse hessian
        regular = itertools.product((0.0, 2.0), (0.0, 0.1), (2, 64), (1.0,))
        for mcw, l1, max_bins, l2 in itertools.chain(regular, [(0.0, 0.0, 64, 0.0), (2.5, 0.1, 64, 0.0)]):
            model, reference = self.fit_both(
                loss, max_depth=max_depth, min_child_weight=mcw, l1=l1, l2=l2, max_bins=max_bins,
                subsample=subsample, colsample_bytree=colsample,
            )
            for name in PACKED:
                assert same_bits(getattr(model, name), getattr(reference, name)), (name, mcw, l1, max_bins, l2)
            assert model.diagnostics == reference.diagnostics


class TestSvr:
    def test_constant_target_inside_tube(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(30, 2))
        data = Dataset(X, np.full((30, 1), 4.5), np.arange(30))
        model = fit_svr(data, C=1.0, epsilon=0.1)
        assert model.bias[0] == pytest.approx(4.5, abs=1e-9)
        assert model.support[0].shape[0] == 0
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

    def test_non_support_vectors_inside_tube(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(50, 2))
        y = np.abs(X[:, 0] - X[:, 1])
        data = Dataset(X, y[:, None], np.arange(50))
        eps = 0.2
        model = fit_svr(data, C=10.0, epsilon=eps, tol=1e-4)
        pred = model.predict(X)[:, 0]
        sv_rows = {tuple(r) for r in model.support[0]}
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

    def test_resource_error_carries_partial_model(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(60, 2))
        y = np.abs(np.sin(3 * X[:, 0]) + X[:, 1])
        data = Dataset(X, y[:, None], np.arange(60))
        with pytest.raises(ResourceLimitError) as err:
            fit_svr(data, C=100.0, epsilon=0.001, max_iter=3)
        assert err.value.partial is not None
        assert err.value.partial.predict(X).shape == (60, 1)

    def test_cv_raises_when_a_fold_does_not_converge(self):
        rng = np.random.default_rng(26)
        data = make_dataset(rng, n=40, p=2, q=3)
        with pytest.raises(ResourceLimitError) as err:
            fit_svr(data, C=[1.0, 10.0], folds=4, max_iter=2)
        # the error comes from the first fold's first output, before any CV score
        assert err.value.partial.n_outputs == 1

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

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.kind)
    def test_gbdt_file_format_unchanged(self, tmp_path, loss):
        fixture = GBDT_FORMAT_FIXTURES / f"gbdt-{loss.kind}-v1.surropt"
        model = load_model(fixture)
        assert model.loss == loss
        X = probe_rows(model, 37, np.random.default_rng(42))
        assert same_bits(model.predict(X), reference_gbdt_predict(model, X))
        for i, source in enumerate((model, format_fixture_model(loss))):
            path = tmp_path / f"again-{i}.surropt"
            save_model(path, source)
            assert path.read_bytes() == fixture.read_bytes()

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
