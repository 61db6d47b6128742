import numpy as np
import pytest

from surropt.demand import (
    DemandModel,
    HospitalDemandConfig,
    ZinbParams,
    ZinbSampler,
    default_demand_configs,
)
from surropt.errors import ConfigError
from surropt.util import stream

N_DRAWS = 1_000_000


def test_certain_zero_inflation():
    sampler = ZinbSampler(ZinbParams(1.0, 4, 0.6))
    draws = sampler.sample(stream(1, 50), 10_000)
    assert np.all(draws == 0)


def test_single_draw_api():
    value = ZinbSampler(ZinbParams(0.5, 2, 0.5)).sample(stream(2, 50))
    assert isinstance(value, int) and value >= 0
    day = DemandModel((HospitalDemandConfig(1, ZinbParams(0.5, 2, 0.5)),)).sample_day(stream(2, 50))
    assert day.tolist() == [value]


@pytest.mark.parametrize(
    "params, mean",
    [
        # analytic means under the failures-before-r-th-success convention
        (ZinbParams(0.6, 4, 0.6), (1 - 0.6) * 4 * 0.4 / 0.6),
        (ZinbParams(0.0, 1, 0.5), 1.0),
    ],
)
def test_monte_carlo_mean(params, mean):
    draws = ZinbSampler(params).sample(stream(3, 50), N_DRAWS)
    assert draws.mean() == pytest.approx(mean, abs=0.01)


def test_monte_carlo_moments_all_hospitals():
    for cfg in default_demand_configs():
        draws = ZinbSampler(cfg.params).sample(stream(4, 50, cfg.hospital_id), N_DRAWS)
        se_mean = np.sqrt(cfg.params.variance / N_DRAWS)
        assert abs(draws.mean() - cfg.params.mean) < 5 * se_mean + 1e-9
        # sample variance fluctuates more; allow a relative band
        assert draws.var() == pytest.approx(cfg.params.variance, rel=0.02)


def test_zero_probability_lower_bound():
    for cfg in default_demand_configs():
        pi = cfg.params.pi
        draws = ZinbSampler(cfg.params).sample(stream(5, 50, cfg.hospital_id), N_DRAWS)
        p0 = np.mean(draws == 0)
        sigma = np.sqrt(pi * (1 - pi) / N_DRAWS)
        assert p0 >= pi - 3 * sigma


def test_samples_nonnegative_integers():
    draws = ZinbSampler(ZinbParams(0.25, 15, 0.48)).sample(stream(6, 50), 50_000)
    assert draws.dtype == np.int64
    assert np.all(draws >= 0)


def test_same_seed_identical_stream():
    sampler = ZinbSampler(ZinbParams(0.6, 3, 0.57))
    a = sampler.sample(stream(7, 50), 10_000)
    b = sampler.sample(stream(7, 50), 10_000)
    assert np.array_equal(a, b)


def test_sample_day_all_certain_zero():
    model = DemandModel(tuple(HospitalDemandConfig(i + 1, ZinbParams(1.0, 2, 0.5)) for i in range(4)))
    assert np.array_equal(model.sample_day(stream(8, 50)), np.zeros(4, dtype=np.int64))


def test_sample_day_paper_parameters():
    day = DemandModel(tuple(default_demand_configs())).sample_day(stream(9, 50))
    assert day.shape == (4,)
    assert day.dtype == np.int64
    assert np.all(day >= 0)


def test_sample_day_deterministic():
    model = DemandModel(tuple(default_demand_configs()))
    a = model.sample_day(stream(10, 50))
    b = model.sample_day(stream(10, 50))
    assert np.array_equal(a, b)


def test_sample_day_block_is_the_one_day_stream():
    # a block of days reads the generator exactly as one-day draws do, and
    # those as one scalar draw per hospital, day after day
    models = {
        "paper": default_demand_configs(),
        "pi=1": [HospitalDemandConfig(i + 1, ZinbParams(1.0, 2, 0.5)) for i in range(3)],
        "pi=0": [HospitalDemandConfig(i + 1, ZinbParams(0.0, 15, 0.48)) for i in range(3)],
        "r=1": [HospitalDemandConfig(i + 1, ZinbParams(0.3, 1, 0.4)) for i in range(2)],
    }
    for name, configs in models.items():
        model = DemandModel(tuple(configs))
        samplers = [ZinbSampler(c.params) for c in configs]
        for days in (1, 7, 50):
            block_rng, day_rng, scalar_rng = (stream(11, 50, days) for _ in range(3))
            block = model.sample_day(block_rng, days)
            one_day = np.stack([model.sample_day(day_rng) for _ in range(days)])
            scalar = [[s.sample(scalar_rng) for s in samplers] for _ in range(days)]
            assert block.shape == (days, len(configs)) and block.dtype == np.int64, name
            assert np.array_equal(block, one_day) and block.tolist() == scalar, (name, days)
            # and leaves the generator at the same place
            assert block_rng.random() == day_rng.random() == scalar_rng.random()
        empty = model.sample_day(stream(11, 50), 0)
        assert empty.shape == (0, len(configs)) and empty.dtype == np.int64


def test_parameter_validation():
    with pytest.raises(ConfigError):
        ZinbParams(-0.1, 4, 0.6)
    with pytest.raises(ConfigError):
        ZinbParams(0.5, 0, 0.6)
    with pytest.raises(ConfigError):
        ZinbParams(0.5, 4, 0.0)
    with pytest.raises(ConfigError):
        ZinbParams(0.5, 4, 1.2)
    with pytest.raises(ConfigError):
        DemandModel(
            (
                HospitalDemandConfig(1, ZinbParams(0.5, 4, 0.6)),
                HospitalDemandConfig(3, ZinbParams(0.5, 4, 0.6)),
            )
        )


def test_tail_cutoff_reached():
    # wide distribution still yields a finite table and valid draws
    sampler = ZinbSampler(ZinbParams(0.0, 15, 0.48))
    assert sampler._cdf[-1] >= 1 - 1e-12
    draws = sampler.sample(stream(12, 50), 1000)
    assert draws.max() < sampler._cdf.size
