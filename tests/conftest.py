import pytest

from stellar import LabelAllocator, subdivide


def _random_subdivision(rng, k, moves):
    """`moves` stellar subdivisions of `k`, each at a random face of a random
    generator; the same seed gives the same complex."""
    for _ in range(moves):
        g = rng.choice(k.sorted_generators())
        a = tuple(sorted(rng.sample(g, rng.randint(1, len(g)))))
        k = subdivide(k, a, LabelAllocator(k).fresh())
    return k


@pytest.fixture
def random_subdivision():
    return _random_subdivision
