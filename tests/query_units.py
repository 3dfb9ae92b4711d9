"""The path and cover units of the benchmark's `queries` workload, restated.

``query_units(seed)`` yields the same configurations, placements and squares
as ``bench/workloads.py``'s ``make_units("queries", seed)`` (family seed 5,
shapes (5, 2), (4, 3), (6, 2), (3, 3) twice, span 6, placements in
[-8, 8]^2), each seen in the seeded frame of ``seed``. The tests pin answers
on them without importing the benchmark.
"""

import random

_SYMMETRIES = [
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0),
]


def _rand_points(rng, count, span):
    seen = set()
    while len(seen) < count:
        seen.add((rng.randint(-span, span), rng.randint(-span, span)))
    return sorted(seen)


def query_units(seed):
    """Per shape: ``("path", A, B, t0, t1)``, then ``("cover", A, B, square)``."""
    frame = random.Random(seed)
    if seed == 0:
        (a, b, c, d), sA, sB = _SYMMETRIES[0], (0, 0), (0, 0)
    else:
        a, b, c, d = _SYMMETRIES[frame.randrange(8)]
        sA = (frame.randint(-10, 10), frame.randint(-10, 10))
        sB = (frame.randint(-10, 10), frame.randint(-10, 10))

    def move(p, s):
        return (a * p[0] + b * p[1] + s[0], c * p[0] + d * p[1] + s[1])

    shift = (sA[0] - sB[0], sA[1] - sB[1])
    rng = random.Random(5)
    for n, k in [(5, 2), (4, 3), (6, 2), (3, 3)] * 2:
        pts = _rand_points(rng, n + k, 6)
        A, B = pts[:n], pts[n:]
        t0 = (rng.randint(-8, 8), rng.randint(-8, 8))
        t1 = (rng.randint(-8, 8), rng.randint(-8, 8))
        xs, ys = [q[0] for q in B], [q[1] for q in B]
        h = max(max(xs) - min(xs), max(ys) - min(ys)) // 2 + rng.randint(1, 4)
        cx, cy = rng.randint(-2, 2), rng.randint(-2, 2)
        A2, B2 = [move(p, sA) for p in A], [move(p, sB) for p in B]
        if seed != 0:
            frame.shuffle(A2)
            frame.shuffle(B2)
        yield "path", A2, B2, move(t0, shift), move(t1, shift)
        corners = [move(p, sA) for p in ((cx - h, cy - h), (cx + h, cy + h))]
        xs, ys = zip(*corners)
        yield "cover", A2, B2, [(min(xs), min(ys)), (max(xs), min(ys)), (max(xs), max(ys)), (min(xs), max(ys))]
