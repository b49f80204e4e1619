"""The statistical checks of the ``verify`` suite: false alarms and power."""

from tailopt.problems import HeavyTailNoise, pareto_radii
from tailopt.verify import tail_moment_checks


def test_tail_moment_checks_pass_at_every_seed():
    # the settling check tests R^0.5 of tail-1.5 streams, which has a
    # standard error, so correct draws pass at every seed, not 9 in 10
    failed = [(seed, check.name) for seed in range(50)
              for check in tail_moment_checks(seed, 10, 20_000) if not check.passed]
    assert failed == []


def test_p_moment_stabilizes_fails_below_twice_its_order(monkeypatch):
    # streams drawn at tail 0.75 < 2k = 1 give R^0.5 infinite variance: the
    # full and prefix means drift apart by far more than the closed-form
    # standard error of the tail-1.5 streams the check expects
    def heavier(self, rng, n):
        return pareto_radii(rng, n, 0.75, self.scale)

    monkeypatch.setattr(HeavyTailNoise, "sample_radii", heavier)
    for seed in range(5):
        _, stabilizes = tail_moment_checks(seed, 10, 20_000)
        assert not stabilizes.passed, (seed, stabilizes.worst)
