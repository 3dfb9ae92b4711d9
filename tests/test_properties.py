"""Property tests on small degenerate instances, checked against the oracle.

Hypothesis runs derandomized, so every run draws the same examples and a
failure reproduces.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from botmatch.applications import optimal_translation
from botmatch.geom import Instance, point
from botmatch.oracle import oracle_optimal_translation

# Point pools whose members are collinear, on a lattice or co-circular.
POOLS = {
    "grid": [(x, y) for x in range(-3, 4) for y in range(-3, 4)],
    "collinear": [(x, 2 * x - 1) for x in range(-3, 4)],
    "lattice": [(x, y) for x in range(0, 6, 2) for y in range(0, 4, 2)],
    "cocircular": [
        (5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
        (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3),
    ],
}


@st.composite
def instances(draw):
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(3, n)))
    A = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    B = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return Instance(
        tuple(point(x, y) for x, y in A), tuple(point(x, y) for x, y in B)
    )


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances())
def test_optimal_translation_equals_oracle(inst):
    t, mu, value = optimal_translation(inst)
    oracle_t, oracle_value = oracle_optimal_translation(inst)
    assert value == oracle_value
    assert t == oracle_t
    assert sorted(e.b for e in mu) == list(range(inst.k))
    assert len({e.a for e in mu}) == inst.k
    assert max(t.dist2(inst.anchor(e)) for e in mu) == value
