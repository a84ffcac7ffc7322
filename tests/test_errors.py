import numpy as np
import pytest

from landscape import bounds, construct, stationarity, volume
from landscape.errors import DomainError, NonFinite, require_at_least
from landscape.network import Dataset
from landscape.train import TrainConfig, dlm_diagnostic, he_init, scan_overparam


def test_first_count_below_the_floor_is_named():
    require_at_least(2, a=2, b=3)
    with pytest.raises(DomainError) as info:
        require_at_least(2, a=2, b=1, c=0)
    assert str(info.value) == "b must be at least 2, got 1"


def test_non_finite_names_its_epoch():
    error = NonFinite(7)
    assert error.epoch == 7 and str(error) == "loss became non-finite at epoch 7"
    with pytest.raises(TypeError):
        NonFinite(7, "custom text")


# every minimum-count check of the package: the call and its exact message
COUNT_SITES = [
    pytest.param(lambda: bounds.BoundInputs(0, 3, 3), "N must be at least 1, got 0",
                 id="bound-inputs-N"),
    pytest.param(lambda: bounds.BoundInputs(3, 0, 3), "d0 must be at least 1, got 0",
                 id="bound-inputs-d0"),
    pytest.param(lambda: bounds.BoundInputs(3, 3, -1), "d1 must be at least 1, got -1",
                 id="bound-inputs-d1"),
    pytest.param(lambda: bounds.global_volume_log_lower_bound(1, 2, 0.5),
                 "d0 must be at least 2, got 1", id="global-lower-d0"),
    pytest.param(lambda: bounds.global_volume_log_lower_bound(3, 0, 0.5),
                 "d1_star must be at least 1, got 0", id="global-lower-d1-star"),
    pytest.param(lambda: bounds.delta_probability(1, 5), "d0 must be at least 2, got 1",
                 id="delta-d0"),
    pytest.param(lambda: bounds.delta_probability(2, 0), "N must be at least 1, got 0",
                 id="delta-N"),
    pytest.param(lambda: bounds.dichotomy_count_bound(0, 3), "N must be at least 1, got 0",
                 id="dichotomy-N"),
    pytest.param(lambda: bounds.dichotomy_count_bound(3, 0), "d0 must be at least 1, got 0",
                 id="dichotomy-d0"),
    pytest.param(lambda: bounds.coherence_tail_bound(0, 5, 0.5), "M must be at least 1, got 0",
                 id="coherence-tail-M"),
    pytest.param(lambda: bounds.coherence_tail_bound(5, 1, 0.5), "N must be at least 2, got 1",
                 id="coherence-tail-N"),
    pytest.param(lambda: bounds.orthant_probability_log_bound(0, 2, 2),
                 "N must be at least 1, got 0", id="orthant-bound-N"),
    pytest.param(lambda: bounds.orthant_probability_log_bound(2, 0, 2),
                 "M must be at least 1, got 0", id="orthant-bound-M"),
    pytest.param(lambda: bounds.orthant_probability_log_bound(2, 2, 0),
                 "L must be at least 1, got 0", id="orthant-bound-L"),
    pytest.param(lambda: bounds.beta_angle_bounds(1, 0.5, "upper"),
                 "d0 must be at least 2, got 1", id="beta-d0"),
    pytest.param(lambda: construct.partition_positive(np.ones(3), 1),
                 "d0 must be at least 2, got 1", id="partition-d0"),
    pytest.param(lambda: Dataset(X=np.zeros((2, 0)), y=np.zeros(0)),
                 "N must be at least 1, got 0", id="dataset-N"),
    pytest.param(lambda: stationarity.rank_condition_oracle(np.ones((0, 3)), np.ones((2, 3))),
                 "d1 must be at least 1, got 0", id="oracle-A-rows"),
    pytest.param(lambda: stationarity.rank_condition_oracle(np.ones((2, 0)), np.ones((2, 0))),
                 "N must be at least 1, got 0", id="oracle-A-columns"),
    pytest.param(lambda: stationarity.rank_condition_oracle(np.ones((2, 3)), np.ones((0, 3))),
                 "d0 must be at least 1, got 0", id="oracle-X-rows"),
    pytest.param(lambda: stationarity.rank_condition_oracle(np.ones((2, 3)), np.ones((2, 0))),
                 "X_columns must be at least 1, got 0", id="oracle-X-columns"),
    pytest.param(lambda: TrainConfig(epochs=0), "epochs must be at least 1, got 0",
                 id="config-epochs"),
    pytest.param(lambda: he_init(0, 3, seed=0), "d1 must be at least 1, got 0", id="he-init-d1"),
    pytest.param(lambda: he_init(3, 0, seed=0), "d0 must be at least 1, got 0", id="he-init-d0"),
    pytest.param(lambda: scan_overparam([4], [1.0], 0, TrainConfig(epochs=1)),
                 "seeds must be at least 1, got 0", id="scan-seeds"),
    pytest.param(lambda: dlm_diagnostic(3, 1, TrainConfig(epochs=2)),
                 "d must be at least 4, got 3", id="diagnostic-d"),
    pytest.param(lambda: dlm_diagnostic(4, 0, TrainConfig(epochs=2)),
                 "seeds must be at least 1, got 0", id="diagnostic-seeds"),
    pytest.param(lambda: volume.estimate_coherence_tail(0, 5, 0.5, 10, 1),
                 "M must be at least 1, got 0", id="coherence-tail-estimate-M"),
    pytest.param(lambda: volume.estimate_coherence_tail(5, 1, 0.5, 10, 1),
                 "N must be at least 2, got 1", id="coherence-tail-estimate-N"),
    pytest.param(lambda: volume.RegionSpec(d1=0, d0=2, predicate=None),
                 "d1 must be at least 1, got 0", id="region-d1"),
    pytest.param(lambda: volume.RegionSpec.from_activation_pattern(np.ones((2, 0)),
                                                                   np.ones((3, 0))),
                 "N must be at least 1, got 0", id="region-pattern-N"),
    pytest.param(lambda: volume.RegionSpec.from_sign_match(np.ones((3, 4)), np.ones((0, 3))),
                 "rows must be at least 1, got 0", id="region-sign-match-rows"),
    pytest.param(lambda: volume.estimate_angular_volume(volume.RegionSpec(1, 1, None), 0, 1),
                 "trials must be at least 1, got 0", id="estimate-trials"),
    pytest.param(lambda: volume.estimate_orthant_probability(2, 2, 0, 10, 1),
                 "L must be at least 1, got 0", id="orthant-estimate-L"),
    pytest.param(lambda: volume.estimate_margin_probability(np.ones((1, 3)), 0, 0.1, 10, 1),
                 "N must be at least 1, got 0", id="margin-estimate-N"),
]


@pytest.mark.parametrize("call, message", COUNT_SITES)
def test_every_count_below_its_floor_is_named(monkeypatch, call, message):
    # a Monte Carlo draw or a training step would raise TypeError
    monkeypatch.setattr(volume, "block_rng", None)
    monkeypatch.setattr("landscape.train._adam_train_stack", None)
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
