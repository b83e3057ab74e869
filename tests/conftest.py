import pytest

from stellar import Complex, LabelAllocator, subdivide


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


def _cycle(n, start):
    vs = range(start, start + n)
    return Complex([tuple(sorted((vs[i], vs[(i + 1) % n]))) for i in range(n)])


@pytest.fixture
def cycle_join():
    """C_a * C_b, the join of two cycles: a 3-sphere with a*b facets."""
    return lambda a, b: _cycle(a, 1).join(_cycle(b, a + 1))
