"""RNG streams and failure distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ParameterError
from repro.sim.distributions import (
    Deterministic,
    Empirical,
    Exponential,
    Gamma,
    LogNormal,
    Mixture,
    Weibull,
)
from repro.sim.rng import RngFactory, _SeedWords, replica_streams


class TestRngFactory:
    def test_reproducible(self):
        a = RngFactory(42).node(3).integers(1 << 40)
        b = RngFactory(42).node(3).integers(1 << 40)
        assert a == b

    def test_streams_differ(self):
        f = RngFactory(42)
        draws = {f.node(i).integers(1 << 40) for i in range(50)}
        assert len(draws) == 50

    def test_domains_do_not_collide(self):
        f = RngFactory(42)
        assert f.node(0).integers(1 << 40) != f.replica(0).integers(1 << 40)

    def test_stream_stability(self):
        # Stream k is identical whether or not other streams exist.
        f1 = RngFactory(7)
        _ = [f1.node(i) for i in range(10)]
        v1 = f1.node(9).integers(1 << 40)
        v2 = RngFactory(7).node(9).integers(1 << 40)
        assert v1 == v2

    def test_replicas_iterator(self):
        f = RngFactory(1)
        gens = list(f.replicas(3))
        assert len(gens) == 3

    def test_child_factory_distinct(self):
        f = RngFactory(5)
        c0, c1 = f.child_factory(0), f.child_factory(1)
        assert c0.node(0).integers(1 << 40) != c1.node(0).integers(1 << 40)

    def test_validation(self):
        with pytest.raises(ParameterError):
            RngFactory(-1)
        with pytest.raises(ParameterError):
            RngFactory(1).node(-2)
        with pytest.raises(ParameterError):
            list(RngFactory(1).replicas(-1))

    def test_none_seed_allowed(self):
        assert RngFactory(None).seed is None


#: One law of every kind; each first draw goes through a different
#: Generator path (``choice`` reaches the buffered 32-bit ``integers``).
EVERY_KIND = [
    Exponential(100.0),
    Weibull(100.0, 0.7),
    LogNormal(100.0, 1.2),
    Gamma(100.0, 2.0),
    Deterministic(100.0),
    Empirical([1.0, 5.0, 20.0, 400.0]),
    Mixture([Exponential(25.0), Weibull(400.0, 1.5)], [0.8, 0.2]),
]


class TestBatchedNodeStreams:
    """``nodes(count)`` is ``[node(i) for i in range(count)]``, seeded in
    one batch; ``node(i)`` is numpy's own SeedSequence path."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(
            st.just(0),
            st.integers(1, 2**32 - 1),
            st.integers(2**32, 2**64 - 1),
            st.integers(2**64, 2**200),
            st.none(),
        ),
        child=st.one_of(st.none(), st.integers(0, 2**40)),
        count=st.integers(1, 300),
    )
    def test_batch_is_the_per_node_streams(self, seed, child, count):
        factory = RngFactory(seed)
        if child is not None:
            factory = factory.child_factory(child)
        batch = factory.nodes(count)
        assert len(batch) == count
        for i, rng in enumerate(batch):
            assert rng.bit_generator.state == factory.node(i).bit_generator.state
        for i in sorted({0, count // 2, count - 1}):
            ours, reference = batch[i], factory.node(i)
            for dist in EVERY_KIND:
                assert dist.sample(ours) == dist.sample(reference)
            assert ours.integers(1 << 30) == reference.integers(1 << 30)
            assert ours.bit_generator.state == reference.bit_generator.state

    def test_empty_and_negative_counts(self):
        assert RngFactory(3).nodes(0) == []
        with pytest.raises(ParameterError):
            RngFactory(3).nodes(-1)

    @pytest.mark.parametrize("n_words, dtype", [
        (8, np.uint32), (4, np.uint32), (2, np.uint64), (8, np.uint64),
    ])
    def test_seed_words_refuse_other_requests(self, n_words, dtype):
        words = np.arange(4, dtype=np.uint64)
        assert _SeedWords(words).generate_state(4, np.uint64) is words
        with pytest.raises(ParameterError, match="4 uint64 words"):
            _SeedWords(words).generate_state(n_words, dtype)


class TestBatchedReplicaStreams:
    """``replica_streams(seeds)`` is ``[RngFactory(seed).replica(0) for
    seed in seeds]``, seeded in one batch per entropy length;
    ``replica(0)`` is numpy's own SeedSequence path."""

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.one_of(
        st.just(0),
        st.integers(1, 2**32 - 1),
        st.integers(2**32, 2**64 - 1),
        st.integers(2**64, 2**128 - 1),
        st.integers(2**128 + 1, 2**300),
    ), min_size=1, max_size=40))
    @example(seeds=[0, 7, 2**32, 2**64 + 3, 2**128 + 1, 2**200, 7])
    def test_batch_is_the_replica_streams(self, seeds):
        batch = replica_streams(seeds)
        assert len(batch) == len(seeds)
        for seed, ours in zip(seeds, batch):
            reference = RngFactory(seed).replica(0)
            assert ours.bit_generator.state == reference.bit_generator.state
            assert ours.uniform(size=3).tolist() \
                == reference.uniform(size=3).tolist()

    def test_empty_and_invalid_seeds(self):
        assert replica_streams([]) == []
        for bad in (-1, 1.5):
            with pytest.raises(ParameterError, match="non-negative int"):
                replica_streams([3, bad])


class TestDistributionMeans:
    """Every law hits its requested mean (law of large numbers check)."""

    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(100.0),
            Weibull(100.0, shape=0.7),
            Weibull(100.0, shape=1.5),
            LogNormal(100.0, sigma=1.0),
            Gamma(100.0, shape=2.0),
            Deterministic(100.0),
        ],
        ids=lambda d: type(d).__name__ + str(getattr(d, "shape", "")),
    )
    def test_sample_mean(self, dist):
        rng = np.random.default_rng(0)
        samples = dist.sample(rng, size=200_000)
        assert samples.mean() == pytest.approx(100.0, rel=0.03)
        assert dist.mean() == pytest.approx(100.0)

    def test_samples_positive(self):
        rng = np.random.default_rng(1)
        for dist in (Exponential(10.0), Weibull(10.0, 0.5), LogNormal(10.0, 2.0)):
            assert np.all(dist.sample(rng, size=10_000) > 0)

    def test_weibull_shape1_is_exponential(self):
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        w = Weibull(50.0, shape=1.0).sample(rng1, size=100_000)
        e = Exponential(50.0).sample(rng2, size=100_000)
        # Same family ⇒ same quantiles (loose check on the 90th percentile).
        assert np.percentile(w, 90) == pytest.approx(np.percentile(e, 90), rel=0.05)


class TestRescale:
    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(100.0),
            Weibull(100.0, 0.7),
            LogNormal(100.0, 1.0),
            Gamma(100.0, 2.0),
            Deterministic(100.0),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_rescale_changes_only_mean(self, dist):
        scaled = dist.rescale(500.0)
        assert scaled.mean() == pytest.approx(500.0)
        assert type(scaled) is type(dist)

    def test_empirical_rescale(self):
        emp = Empirical([1.0, 2.0, 3.0])
        scaled = emp.rescale(20.0)
        assert scaled.mean() == pytest.approx(20.0)
        np.testing.assert_allclose(scaled.data, [10.0, 20.0, 30.0])


class TestEmpirical:
    def test_bootstrap_support(self):
        emp = Empirical([5.0, 7.0, 11.0])
        rng = np.random.default_rng(0)
        draws = emp.sample(rng, size=1000)
        assert set(np.unique(draws)) <= {5.0, 7.0, 11.0}

    def test_scalar_draw(self):
        emp = Empirical([5.0])
        assert emp.sample(np.random.default_rng(0)) == 5.0

    def test_data_read_only(self):
        emp = Empirical([1.0, 2.0])
        with pytest.raises(ValueError):
            emp.data[0] = 9.0

    @pytest.mark.parametrize("bad", [[], [0.0], [-1.0], [np.nan]])
    def test_validation(self, bad):
        with pytest.raises(ParameterError):
            Empirical(bad)


class TestMixture:
    """Hyperexponential-style mixtures (heterogeneous-MTBF platforms)."""

    def hyperexp(self) -> Mixture:
        # 20% fragile nodes at 1/4 the fleet MTBF, balanced to mean 100.
        return Mixture(
            [Exponential(25.0), Exponential(118.75)], [0.2, 0.8]
        )

    def test_mean_is_weighted(self):
        assert self.hyperexp().mean() == pytest.approx(100.0)

    def test_sample_mean(self):
        rng = np.random.default_rng(0)
        samples = self.hyperexp().sample(rng, size=200_000)
        assert samples.mean() == pytest.approx(100.0, rel=0.03)
        assert np.all(samples > 0)

    def test_overdispersed_vs_exponential(self):
        """The defining property of heterogeneity: CV > 1."""
        rng = np.random.default_rng(1)
        samples = self.hyperexp().sample(rng, size=200_000)
        cv = samples.std() / samples.mean()
        assert cv > 1.05

    def test_scalar_draw(self):
        value = self.hyperexp().sample(np.random.default_rng(2))
        assert isinstance(value, float) and value > 0

    def test_rescale_preserves_heterogeneity(self):
        scaled = self.hyperexp().rescale(1000.0)
        assert scaled.mean() == pytest.approx(1000.0)
        ratio = scaled.components[1].mean() / scaled.components[0].mean()
        assert ratio == pytest.approx(118.75 / 25.0)

    def test_weights_normalised(self):
        mix = Mixture([Exponential(1.0), Exponential(2.0)], [2.0, 6.0])
        np.testing.assert_allclose(mix.weights, [0.25, 0.75])

    def test_fingerprint_identifies_components(self):
        a = self.hyperexp().fingerprint()
        b = Mixture(
            [Exponential(50.0), Exponential(112.5)], [0.2, 0.8]
        ).fingerprint()
        assert a != b
        assert a["kind"] == "Mixture" and len(a["components"]) == 2

    @pytest.mark.parametrize("comps,weights", [
        ([Exponential(1.0)], [1.0]),                       # one component
        ([Exponential(1.0), Exponential(2.0)], [1.0]),     # count mismatch
        ([Exponential(1.0), Exponential(2.0)], [1.0, 0.0]),  # zero weight
        ([Exponential(1.0), Exponential(2.0)], [1.0, np.nan]),
        ([Exponential(1.0), 2.0], [0.5, 0.5]),             # not a law
    ])
    def test_validation(self, comps, weights):
        with pytest.raises(ParameterError):
            Mixture(comps, weights)


class TestValidation:
    @pytest.mark.parametrize("mean", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_means(self, mean):
        with pytest.raises(ParameterError):
            Exponential(mean)

    def test_bad_shapes(self):
        with pytest.raises(ParameterError):
            Weibull(1.0, 0.0)
        with pytest.raises(ParameterError):
            LogNormal(1.0, 0.0)
        with pytest.raises(ParameterError):
            Gamma(1.0, -2.0)

    def test_deterministic_no_variance(self):
        d = Deterministic(5.0)
        rng = np.random.default_rng(0)
        assert np.all(d.sample(rng, size=10) == 5.0)
        assert d.sample(rng) == 5.0
