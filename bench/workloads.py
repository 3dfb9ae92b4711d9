"""The benchmark's seeded workloads and the rounds that run them.

A workload is a fixed list of units. A unit is one timed block of library
calls with its answer check; every round runs every unit once, on fresh
`Instance` objects, so per-instance caches never carry over from one round to
the next. The library is reached only through the public names imported
below; the traced run replaces them in this module's namespace.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import checks
import speed
from botmatch import Instance, Point, convex_polygon, point
from botmatch import bottleneck_path, build_diagram, cover_radius, eval_E, optimal_translation

# The point configurations come from fixed family seeds; --seed picks the
# frame each configuration is shown in (see Frame). Seed 0 is the identity.
FAMILY_SEEDS = {"align": 1010, "lex": 7, "queries": 5}

# Sizes. `align` and `lex` use the instance family of acceptance criterion 10,
# `queries` that of criteria 5-7 (see README.md for why these sizes).
ALIGN = dict(instances=2, n=8, k=3, span=15)
LEX = dict(instances=1, n=5, k=4, span=10, check_faces=30, check_cells=15)
QUERIES = dict(
    shapes=[(5, 2), (4, 3), (6, 2), (3, 3)] * 2,
    span=6,
    place=8,
    eval_n=30,
    eval_k=3,
    eval_span=15,
    eval_points=2000,
)
SHIFT = 10  # frame shifts of A and of B lie in [-SHIFT, SHIFT]^2

# the eight symmetries of the integer lattice, as (a, b, c, d): (x, y) -> (ax + by, cx + dy)
SYMMETRIES = [
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0),
]


class Frame:
    """A seeded congruence: a lattice symmetry, integer shifts of A and of B,
    and an order of the points of each set.

    A configuration and its image have congruent arrangements and equal
    optimal values, so the seed changes every coordinate the library sees but
    not the amount of work: the spread between seeds is then the machine's,
    not the instances'. Placements t map to sigma(t) + sA - sB and a region
    for B + t maps to sigma(region) + sA.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.identity = seed == 0
        if self.identity:
            self.sym, self.sA, self.sB = SYMMETRIES[0], (0, 0), (0, 0)
        else:
            self.sym = SYMMETRIES[self.rng.randrange(8)]
            self.sA = (self.rng.randint(-SHIFT, SHIFT), self.rng.randint(-SHIFT, SHIFT))
            self.sB = (self.rng.randint(-SHIFT, SHIFT), self.rng.randint(-SHIFT, SHIFT))

    def _map(self, p, s):
        a, b, c, d = self.sym
        return (a * p[0] + b * p[1] + s[0], c * p[0] + d * p[1] + s[1])

    def instance(self, A, B):
        A2 = [self._map(p, self.sA) for p in A]
        B2 = [self._map(p, self.sB) for p in B]
        if not self.identity:
            self.rng.shuffle(A2)
            self.rng.shuffle(B2)
        return A2, B2

    def place(self, t):
        s = (self.sA[0] - self.sB[0], self.sA[1] - self.sB[1])
        return self._map(t, s)

    def box(self, box):
        x0, y0, x1, y1 = box
        xs, ys = zip(*(self._map(p, self.sA) for p in ((x0, y0), (x1, y1))))
        return (min(xs), min(ys), max(xs), max(ys))


def rand_points(rng: random.Random, count: int, span: int) -> list[tuple[int, int]]:
    """``count`` distinct integer points in [-span, span]^2, sorted."""
    seen: set[tuple[int, int]] = set()
    while len(seen) < count:
        seen.add((rng.randint(-span, span), rng.randint(-span, span)))
    return sorted(seen)


def rand_instance(rng: random.Random, n: int, k: int, span: int):
    pts = rand_points(rng, n + k, span)
    return pts[:n], pts[n:]


def make_instance(A, B) -> Instance:
    return Instance(tuple(point(x, y) for x, y in A), tuple(point(x, y) for x, y in B))


class AlignUnit:
    """optimal_translation on one instance."""

    attempted = 1

    def __init__(self, A, B):
        self.A, self.B = A, B

    def prepare(self) -> None:
        self.expect = checks.align_expect(self.A, self.B)

    def fresh(self) -> tuple:
        return (make_instance(self.A, self.B),)

    def call(self, inst):
        return optimal_translation(inst)

    def check(self, args, answer, rng) -> list[str]:
        return checks.check_align(args[0], self.A, self.B, answer, self.expect)


class LexUnit:
    """build_diagram(lex=True) on one instance."""

    attempted = 1

    def __init__(self, A, B):
        self.A, self.B = A, B

    def prepare(self) -> None:
        pass

    def fresh(self) -> tuple:
        return (make_instance(self.A, self.B),)

    def call(self, inst):
        return build_diagram(inst, lex=True)

    def check(self, args, answer, rng) -> list[str]:
        return checks.check_lex(
            args[0], self.A, self.B, answer, rng, LEX["check_faces"], LEX["check_cells"]
        )


class PathUnit:
    """bottleneck_path between two integer placements."""

    attempted = 1

    def __init__(self, A, B, t0, t1):
        self.A, self.B, self.t0, self.t1 = A, B, t0, t1

    def prepare(self) -> None:
        self.upper = checks.path_expect(self.A, self.B, self.t0, self.t1)

    def fresh(self) -> tuple:
        return (make_instance(self.A, self.B), point(*self.t0), point(*self.t1))

    def call(self, inst, t0, t1):
        return bottleneck_path(inst, t0, t1)

    def check(self, args, answer, rng) -> list[str]:
        return checks.check_path(args[0], self.t0, self.t1, answer, self.upper, rng)


class CoverUnit:
    """cover_radius over an axis-parallel square."""

    attempted = 1

    def __init__(self, A, B, box):
        self.A, self.B, self.box = A, B, box

    def _square(self):
        x0, y0, x1, y1 = self.box
        return convex_polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

    def prepare(self) -> None:
        inst = make_instance(self.A, self.B)
        self.expect = checks.cover_expect(inst, self._square(), self.A, self.B, self.box)

    def fresh(self) -> tuple:
        return (make_instance(self.A, self.B), self._square())

    def call(self, inst, Q):
        return cover_radius(inst, Q)

    def check(self, args, answer, rng) -> list[str]:
        return checks.check_cover(args[0], self.B, self.box, answer, self.expect)


class EvalUnit:
    """A block of eval_E point queries on one instance; one operation each."""

    def __init__(self, A, B, points):
        self.A, self.B, self.points = A, B, points
        self.attempted = len(points)

    def prepare(self) -> None:
        self.expect = checks.eval_expect(make_instance(self.A, self.B), self.points)

    def fresh(self) -> tuple:
        return (make_instance(self.A, self.B),)

    def call(self, inst):
        return [eval_E(inst, t)[0] for t in self.points]

    def check(self, args, answer, rng) -> list[str]:
        return checks.check_eval(answer, self.expect)


def make_units(name: str, seed: int) -> list:
    """The workload's units: its family's configurations in the frame of ``seed``."""
    rng = random.Random(FAMILY_SEEDS[name])
    frame = Frame(seed)
    if name == "align":
        return [
            AlignUnit(*frame.instance(*rand_instance(rng, ALIGN["n"], ALIGN["k"], ALIGN["span"])))
            for _ in range(ALIGN["instances"])
        ]
    if name == "lex":
        return [
            LexUnit(*frame.instance(*rand_instance(rng, LEX["n"], LEX["k"], LEX["span"])))
            for _ in range(LEX["instances"])
        ]
    if name == "queries":
        units: list = []
        place = QUERIES["place"]
        for n, k in QUERIES["shapes"]:
            A, B = rand_instance(rng, n, k, QUERIES["span"])
            t0 = (rng.randint(-place, place), rng.randint(-place, place))
            t1 = (rng.randint(-place, place), rng.randint(-place, place))
            xs = [b[0] for b in B]
            ys = [b[1] for b in B]
            # 2h exceeds B's extent, so the admissible region has interior
            h = max(max(xs) - min(xs), max(ys) - min(ys)) // 2 + rng.randint(1, 4)
            cx, cy = rng.randint(-2, 2), rng.randint(-2, 2)
            A2, B2 = frame.instance(A, B)
            units.append(PathUnit(A2, B2, frame.place(t0), frame.place(t1)))
            units.append(CoverUnit(A2, B2, frame.box((cx - h, cy - h, cx + h, cy + h))))
        A, B = rand_instance(rng, QUERIES["eval_n"], QUERIES["eval_k"], QUERIES["eval_span"])
        points = []
        for _ in range(QUERIES["eval_points"]):
            d = rng.randint(1, 12)
            x, y = frame.place((Fraction(rng.randint(-30 * d, 30 * d), d), Fraction(rng.randint(-30 * d, 30 * d), d)))
            points.append(Point(x, y))
        units.append(EvalUnit(*frame.instance(A, B), points))
        return units
    raise ValueError(f"unknown workload {name!r}")


def warm_up(name: str) -> None:
    """One untimed call per operation kind on a tiny instance."""
    inst = make_instance([(0, 0), (2, 0)], [(0, 0), (3, 0)])
    if name == "align":
        optimal_translation(inst)
    elif name == "lex":
        build_diagram(inst, lex=True)
    else:
        bottleneck_path(inst, point(0, 0), point(1, 1))
        cover_radius(inst, convex_polygon([(-4, -4), (4, -4), (4, 4), (-4, 4)]))
        eval_E(inst, point(0, 0))


class RoundStats:
    """Per-unit times across rounds, plus operation and failure counts.

    ``times`` holds wall-clock seconds; ``scaled`` the same calls at the
    reference speed of `speed`.
    """

    def __init__(self, n_units: int):
        self.times: list[list[float]] = [[] for _ in range(n_units)]
        self.scaled: list[list[float]] = [[] for _ in range(n_units)]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0


def run_round(units: list, stats: RoundStats, seed: int, tracer=None) -> None:
    """Run every unit once: time the call, then check the answer untimed.

    Each call is timed by a `speed.Meter`. With a tracer, its spans are
    recorded during the calls only, never during the checks.
    """
    for i, unit in enumerate(units):
        args = unit.fresh()
        if tracer is not None:
            tracer.active = True
        with speed.Meter() as meter:
            try:
                answer, error = unit.call(*args), None
            except Exception as exc:  # a failing operation is counted, not fatal
                answer, error = None, exc
        if tracer is not None:
            tracer.active = False
        stats.times[i].append(meter.elapsed)
        stats.scaled[i].append(meter.scaled)
        stats.attempted += unit.attempted
        if error is not None:
            stats.failed += unit.attempted
            print(f"unit {i}: {type(error).__name__}: {error}", file=sys.stderr)
            continue
        rng = random.Random(f"check-{seed}-{stats.rounds}-{i}")
        problems = unit.check(args, answer, rng)
        del answer
        if problems:
            bad = min(unit.attempted, len(problems))
            stats.failed += bad
            stats.wrong += bad
            for p in problems[:5]:
                print(f"unit {i}: {p}", file=sys.stderr)
    stats.rounds += 1
