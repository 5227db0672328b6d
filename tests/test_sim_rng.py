"""RNG streams: determinism and independence."""

from repro.sim.rng import SeedSequenceFactory


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = SeedSequenceFactory(7).stream("traces")
        b = SeedSequenceFactory(7).stream("traces")
        assert [a.integers(0, 1000) for _ in range(10)] == [
            b.integers(0, 1000) for _ in range(10)
        ]

    def test_different_names_differ(self):
        factory = SeedSequenceFactory(7)
        a = factory.stream("traces")
        b = factory.stream("scheduler")
        assert a.seed != b.seed

    def test_different_root_seeds_differ(self):
        a = SeedSequenceFactory(1).stream("x")
        b = SeedSequenceFactory(2).stream("x")
        assert a.seed != b.seed

    def test_stream_memoized(self):
        factory = SeedSequenceFactory(0)
        assert factory.stream("a") is factory.stream("a")


class TestDrawing:
    def test_integers_in_range(self):
        stream = SeedSequenceFactory(3).stream("t")
        for _ in range(100):
            assert 0 <= stream.integers(0, 10) < 10

    def test_uniform_in_range(self):
        stream = SeedSequenceFactory(3).stream("t")
        for _ in range(100):
            assert 0.0 <= stream.uniform() < 1.0

    def test_exponential_positive(self):
        stream = SeedSequenceFactory(3).stream("t")
        assert all(stream.exponential(5.0) >= 0 for _ in range(50))

    def test_permutation(self):
        stream = SeedSequenceFactory(3).stream("t")
        perm = stream.permutation(10)
        assert sorted(perm.tolist()) == list(range(10))
