import numpy as np
import pytest

from surropt.demand import ZinbParams
from surropt.errors import ConfigError, InputError
from surropt.learners.gbdt import GbdtParams
from surropt.losses import LossSpec
from surropt.pipeline import (
    ExperimentConfig,
    LearnerSpec,
    compare_models,
    generation_demands,
    oracle_generation_run,
    postprocess_prediction,
    rollout,
    rollout_demands,
    train_surrogate,
)
from surropt.report import read_dataset_csv
from surropt.simulate import (
    CostParams,
    DecisionVector,
    InventoryState,
    check_feasibility,
    step,
    write_trajectory_csv,
)
from surropt.two_stage import SaaConfig

from _oracles import replay_rollout


def tiny_config(**kwargs):
    defaults = dict(
        seed=17,
        horizon_days=12,
        rollout_days=6,
        train_fraction=0.75,
        saa=SaaConfig(scenario_count=6, seed=17),
        max_age=11,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def dataset_via_csv(config, path):
    """The rows ``surropt train`` reads: the oracle run written as CSV and
    read back."""
    write_trajectory_csv(path, oracle_generation_run(config))
    return read_dataset_csv(path, config.n_hospitals, config.max_age)


def certain_zero_configs(h=2):
    return (ZinbParams(1.0, 2, 0.5),) * h


class ZeroModel:
    """Predicts the zero vector; useful for depletion behavior."""

    def __init__(self, n_features, n_outputs):
        self.n_features = n_features
        self.n_outputs = n_outputs

    def predict(self, X):
        return np.zeros((X.shape[0], self.n_outputs))


class ConstantModel:
    def __init__(self, vector, n_features):
        self.vector = np.asarray(vector, dtype=float)
        self.n_features = n_features
        self.n_outputs = self.vector.size

    def predict(self, X):
        return np.tile(self.vector, (X.shape[0], 1))


class TestPostprocess:
    def test_negatives_clamped(self):
        raw = np.full(136, -0.3)
        decision = postprocess_prediction(raw, 4, 11)
        assert decision.flatten().sum() == 0

    def test_ties_to_even(self):
        raw = np.zeros(136)
        raw[0] = 2.5
        raw[1] = 3.5
        decision = postprocess_prediction(raw, 4, 11)
        assert decision.orders[0] == 2
        assert decision.orders[1] == 4

    def test_integer_identity(self):
        rng = np.random.default_rng(0)
        flat = rng.integers(0, 4, size=136).astype(float)
        decision = postprocess_prediction(flat, 4, 11)
        assert np.array_equal(decision.flatten(), flat.astype(np.int64))

    def test_nonfinite_rejected(self):
        raw = np.zeros(136)
        raw[7] = np.nan
        with pytest.raises(InputError):
            postprocess_prediction(raw, 4, 11)

    @pytest.mark.parametrize("value", [1e19, 1e300, np.nan, np.inf, -np.inf, 2.0**63])
    def test_outside_int64_rejected_before_the_cast(self, value):
        # numpy warns on the cast (an error under the suite's RuntimeWarning
        # filter) and wraps to INT64_MIN, which DecisionVector would blame on
        # the sign; the check names the range first
        raw = np.zeros(136)
        raw[7] = value
        with pytest.raises(InputError, match="int64 range"):
            postprocess_prediction(raw, 4, 11)

    def test_largest_int64_float_passes(self):
        raw = np.zeros(136)
        raw[0] = np.nextafter(2.0**63, 0.0)
        assert postprocess_prediction(raw, 4, 11).orders[0] == 2**63 - 1024


class TestGenerate:
    def test_single_zero_day(self, tmp_path):
        config = ExperimentConfig(
            seed=1,
            horizon_days=1,
            rollout_days=1,
            hospitals=certain_zero_configs(),
            max_age=3,
            saa=SaaConfig(scenario_count=2, seed=1),
        )
        data = dataset_via_csv(config, tmp_path / "dataset.csv")
        assert data.n_rows == 1
        assert np.all(data.X[0] == 0)
        assert np.all(data.Y[0] == 0)

    def test_shapes_on_default_network(self, tmp_path):
        config = tiny_config()
        data = dataset_via_csv(config, tmp_path / "dataset.csv")
        assert data.X.shape == (12, 44)
        assert data.Y.shape == (12, 136)
        assert np.array_equal(data.day, np.arange(12))

    def test_labels_feasible_against_inputs(self, tmp_path):
        config = tiny_config()
        data = dataset_via_csv(config, tmp_path / "dataset.csv")
        for t in range(data.n_rows):
            state = InventoryState(data.X[t].reshape(4, 11))
            decision = DecisionVector.from_flat(data.Y[t].astype(int), 4, 11)
            assert check_feasibility(state, decision) == []

    def test_trajectory_consistency(self, tmp_path):
        config = tiny_config()
        data = dataset_via_csv(config, tmp_path / "dataset.csv")
        demands = generation_demands(config)
        state = config.initial_state
        for t in range(data.n_rows):
            assert np.array_equal(state.flatten(), data.X[t].astype(np.int64))
            decision = DecisionVector.from_flat(data.Y[t].astype(int), 4, 11)
            state, _ = step(state, decision, demands[t], config.costs)

    def test_deterministic(self, tmp_path):
        config = tiny_config()
        a = dataset_via_csv(config, tmp_path / "a.csv")
        b = dataset_via_csv(config, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)

    def test_oracle_run_has_no_violations(self):
        run = oracle_generation_run(tiny_config())
        assert run.violations == []
        assert run.slots_checked == 12 * 44


class TestReplayEquivalence:
    def test_label_replay_reproduces_oracle_costs(self, tmp_path):
        config = tiny_config()
        run = oracle_generation_run(config)
        replay = replay_rollout(config, dataset_via_csv(config, tmp_path / "dataset.csv"))
        assert replay.days == run.days
        for mine, oracle in zip(replay.breakdowns, run.breakdowns):
            assert mine.total == oracle.total
            assert mine.as_tuple() == oracle.as_tuple()
        assert replay.violations == []


class TestRollout:
    def test_zero_model_depletes_then_shorts(self):
        grid = np.zeros((4, 11), dtype=np.int64)
        grid[:, 5] = 2  # a little stock that ages out quickly
        config = tiny_config(initial_state=InventoryState(grid), rollout_days=8)
        model = ZeroModel(44, 136)
        demands = rollout_demands(config)
        report = rollout(config, model, demands, label="zero")
        assert report.cost_sum.ordering == 0.0
        assert report.cost_sum.transshipment == 0.0
        assert report.cost_sum.shortage > 0.0

    def test_violation_rate_denominator(self):
        config = tiny_config(rollout_days=5)
        raw = np.zeros(136)
        raw[4:] = 3.0  # ships from everywhere, mostly infeasible
        model = ConstantModel(raw, 44)
        report = rollout(config, model, rollout_demands(config, 5), label="greedy")
        assert report.slots_checked == 5 * 44
        assert report.violations > 0
        assert report.violation_rate == report.violations / (5 * 44)
        # repair keeps the simulation alive regardless
        assert report.days == 5

    def test_inventory_summary_shape(self):
        config = tiny_config(rollout_days=4)
        report = rollout(config, ZeroModel(44, 136), rollout_demands(config, 4), label="z")
        assert report.inventory_summary.shape == (4, 11, 5)
        assert np.all(report.inventory_summary[..., 0] <= report.inventory_summary[..., 4])


class TestCompare:
    def test_paired_streams_and_oracle_row(self):
        config = tiny_config(rollout_days=4)
        models = {"a": ZeroModel(44, 136), "b": ZeroModel(44, 136)}
        comparison = compare_models(config, models)
        rows = comparison.rows()
        assert [r["policy"] for r in rows] == ["a", "b", "oracle"]
        # identical models on the shared stream give identical rows
        assert rows[0]["total"] == rows[1]["total"]
        assert rows[2]["violations"] == 0
        text = comparison.table()
        for col in ("Holding", "Transshipment", "Outdate", "Ordering", "Shortage", "Total"):
            assert col in text

    def test_oracle_mimic_matches_oracle_row(self):
        from surropt.pipeline import ROLLOUT_PHASE, OraclePolicy

        config = tiny_config(rollout_days=4)

        class Mimic:
            """Replays the oracle policy by counting prediction calls."""

            n_features = 44
            n_outputs = 136

            def __init__(self):
                self.policy = OraclePolicy(config, ROLLOUT_PHASE)
                self.day = 0

            def predict(self, X):
                state = InventoryState(X[0].reshape(4, 11))
                decision = self.policy(self.day, state)
                self.day += 1
                return decision.flatten()[None, :].astype(float)

        comparison = compare_models(config, {"mimic": Mimic()})
        rows = comparison.rows()
        assert rows[0]["total"] == pytest.approx(rows[1]["total"], abs=1e-12)
        assert rows[0]["violations"] == rows[1]["violations"] == 0

    def test_fresh_rollout_demands_differ_from_generation(self):
        config = tiny_config()
        gen = generation_demands(config, 6)
        roll = rollout_demands(config, 6)
        assert not np.array_equal(gen, roll)


class TestTrainDispatch:
    def test_ridge_and_gbdt_and_svr(self, tmp_path):
        config = tiny_config(
            horizon_days=80,
            learner=LearnerSpec(kind="ridge", ridge_lambdas=(0.1, 10.0), folds=4),
        )
        data = dataset_via_csv(config, tmp_path / "dataset.csv")
        ridge = train_surrogate(config, data)
        assert ridge.coef.shape == (136, 45)
        gb_cfg = tiny_config(
            horizon_days=80,
            learner=LearnerSpec(
                kind="gbdt",
                loss=LossSpec("mae"),
                gbdt=GbdtParams(n_iterations=5, max_depth=2, min_child_weight=1, subsample=1.0),
            ),
        )
        gb = train_surrogate(gb_cfg, data)
        assert gb.loss.kind == "mae"
        assert gb.n_outputs == 136
        svr_cfg = tiny_config(horizon_days=80, learner=LearnerSpec(kind="svr", svr_C=1.0))
        sv = train_surrogate(svr_cfg, data)
        assert sv.n_outputs == 136
        # training used only the chronological block
        assert int(np.ceil(0.75 * 80)) == 60

    def test_unknown_learner_rejected(self):
        with pytest.raises(ConfigError):
            LearnerSpec(kind="forest")

    @pytest.mark.parametrize(
        "setting",
        [{"svr_C": -1.0}, {"svr_C": ()}, {"svr_gamma": -1.0}, {"svr_epsilon": -2.0},
         {"svr_epsilon": float("nan")}, {"ridge_lambdas": (-1.0,)}, {"ridge_lambdas": ()}],
        ids=["C", "no-C", "gamma", "epsilon", "nan-epsilon", "lambda", "no-lambda"],
    )
    def test_out_of_range_setting_rejected_when_built(self, setting):
        """The fit checks run when the spec is built, before any oracle day."""
        with pytest.raises(InputError):
            LearnerSpec(kind="svr", **setting)


class TestConfigValidation:
    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            tiny_config(train_fraction=1.5)

    def test_state_shape_mismatch(self):
        with pytest.raises(ConfigError):
            tiny_config(initial_state=InventoryState.zeros(2, 11))

    def test_defaults_use_paper_hospitals(self):
        config = tiny_config()
        assert len(config.hospitals) == 4
        assert config.hospitals[0].pi == 0.6
        assert config.hospitals[3].p == 0.48
        assert config.n_hospitals == 4
