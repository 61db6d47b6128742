import numpy as np
import pytest

from surropt.demand import MAX_SUPPORT, DemandModel, ZinbParams, default_demand_configs
from surropt.errors import ConfigError
from surropt.util import stream

N_DRAWS = 1_000_000


def draw(params, rng, n):
    """``n`` days of a one-hospital network: an int64 (n,) column."""
    return DemandModel((params,)).sample_day(rng, n)[:, 0]


def test_certain_zero_inflation():
    draws = draw(ZinbParams(1.0, 4, 0.6), stream(1, 50), 10_000)
    assert np.all(draws == 0)


def test_single_draw_api():
    # one day of one hospital is a (1, 1) block: the inverse CDF of the
    # stream's first uniform
    model = DemandModel((ZinbParams(0.5, 2, 0.5),))
    day = model.sample_day(stream(2, 50), 1)
    assert day.shape == (1, 1) and day.dtype == np.int64 and day[0, 0] >= 0
    u = stream(2, 50).random()
    assert day[0, 0] == np.searchsorted(model._tables[0], u, side="right")


@pytest.mark.parametrize(
    "params, mean",
    [
        # analytic means under the failures-before-r-th-success convention
        (ZinbParams(0.6, 4, 0.6), (1 - 0.6) * 4 * 0.4 / 0.6),
        (ZinbParams(0.0, 1, 0.5), 1.0),
    ],
)
def test_monte_carlo_mean(params, mean):
    draws = draw(params, stream(3, 50), N_DRAWS)
    assert draws.mean() == pytest.approx(mean, abs=0.01)


def test_monte_carlo_moments_all_hospitals():
    for k, params in enumerate(default_demand_configs(), 1):
        draws = draw(params, stream(4, 50, k), N_DRAWS)
        se_mean = np.sqrt(params.variance / N_DRAWS)
        assert abs(draws.mean() - params.mean) < 5 * se_mean + 1e-9
        # sample variance fluctuates more; allow a relative band
        assert draws.var() == pytest.approx(params.variance, rel=0.02)


def test_zero_probability_lower_bound():
    for k, params in enumerate(default_demand_configs(), 1):
        pi = params.pi
        draws = draw(params, stream(5, 50, k), N_DRAWS)
        p0 = np.mean(draws == 0)
        sigma = np.sqrt(pi * (1 - pi) / N_DRAWS)
        assert p0 >= pi - 3 * sigma


def test_samples_nonnegative_integers():
    draws = draw(ZinbParams(0.25, 15, 0.48), stream(6, 50), 50_000)
    assert draws.dtype == np.int64
    assert np.all(draws >= 0)


def test_same_seed_identical_stream():
    params = ZinbParams(0.6, 3, 0.57)
    a = draw(params, stream(7, 50), 10_000)
    b = draw(params, stream(7, 50), 10_000)
    assert np.array_equal(a, b)


def test_sample_day_all_certain_zero():
    model = DemandModel(tuple(ZinbParams(1.0, 2, 0.5) for _ in range(4)))
    assert np.array_equal(model.sample_day(stream(8, 50), 1), np.zeros((1, 4), dtype=np.int64))


def test_sample_day_paper_parameters():
    day = DemandModel(default_demand_configs()).sample_day(stream(9, 50), 1)
    assert day.shape == (1, 4)
    assert day.dtype == np.int64
    assert np.all(day >= 0)


def test_sample_day_deterministic():
    model = DemandModel(default_demand_configs())
    a = model.sample_day(stream(10, 50), 1)
    b = model.sample_day(stream(10, 50), 1)
    assert np.array_equal(a, b)


def test_sample_day_block_is_the_one_day_stream():
    # a block of days reads the generator exactly as one-day draws do, and
    # those as one scalar draw per hospital, day after day
    models = {
        "paper": default_demand_configs(),
        "pi=1": [ZinbParams(1.0, 2, 0.5)] * 3,
        "pi=0": [ZinbParams(0.0, 15, 0.48)] * 3,
        "r=1": [ZinbParams(0.3, 1, 0.4)] * 2,
    }
    for name, hospitals in models.items():
        model = DemandModel(tuple(hospitals))
        singles = [DemandModel((params,)) for params in hospitals]
        for days in (1, 7, 50):
            block_rng, day_rng, scalar_rng = (stream(11, 50, days) for _ in range(3))
            block = model.sample_day(block_rng, days)
            one_day = np.concatenate([model.sample_day(day_rng, 1) for _ in range(days)])
            scalar = [[int(s.sample_day(scalar_rng, 1)[0, 0]) for s in singles] for _ in range(days)]
            assert block.shape == (days, len(hospitals)) and block.dtype == np.int64, name
            assert np.array_equal(block, one_day) and block.tolist() == scalar, (name, days)
            # and leaves the generator at the same place
            assert block_rng.random() == day_rng.random() == scalar_rng.random()
        empty = model.sample_day(stream(11, 50), 0)
        assert empty.shape == (0, len(hospitals)) and empty.dtype == np.int64


def test_parameter_validation():
    with pytest.raises(ConfigError):
        ZinbParams(-0.1, 4, 0.6)
    with pytest.raises(ConfigError):
        ZinbParams(0.5, 0, 0.6)
    with pytest.raises(ConfigError):
        ZinbParams(0.5, 4, 0.0)
    with pytest.raises(ConfigError):
        ZinbParams(0.5, 4, 1.2)


def test_tail_cutoff_reached():
    # wide distribution still yields a finite table and valid draws
    model = DemandModel((ZinbParams(0.0, 15, 0.48),))
    assert model._tables[0][-1] >= 1 - 1e-12
    draws = draw(ZinbParams(0.0, 15, 0.48), stream(12, 50), 1000)
    assert draws.max() < model._tables[0].size


def test_default_tables_keep_their_support():
    model = DemandModel(default_demand_configs())
    assert [table.size for table in model._tables] == [38, 39, 65, 85]


@pytest.mark.parametrize(
    "params",
    [
        ZinbParams(0.0, 1, 1e-6),  # mean 999,999: the table stops far below 1
        ZinbParams(0.0, 2000, 0.5),  # p**r underflows: a table of zeros
    ],
    ids=["huge-mean", "underflow"],
)
def test_table_that_misses_the_tail_is_a_config_error(params):
    with pytest.raises(ConfigError) as err:
        DemandModel((ZinbParams(0.6, 4, 0.6), params))
    message = str(err.value)
    assert message.startswith("hospital 2: ") and repr(params) in message
    assert str(MAX_SUPPORT) in message
