"""The benchmark's own tests: planted wrong answers must count as failed.

    python -m pytest bench/test_checks.py
"""

import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import botmatch  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from botmatch import CellLabel, CoverResult, FaceRef, LexLabel, PathResult, Point  # noqa: E402

A = [(0, 0), (4, 1), (1, 5), (6, 6)]
B = [(0, 0), (3, 2)]
OFF = Fraction(1, 1000)


def _says(problems, phrase):
    """The problems include one from the check that owns ``phrase``."""
    return any(phrase in p for p in problems)


def test_align_check_rejects_planted_answers():
    unit = workloads.AlignUnit(A, B)
    unit.prepare()
    (inst,) = unit.fresh()
    t, mu, val = botmatch.optimal_translation(inst)
    assert unit.check((inst,), (t, mu, val), None) == []
    assert _says(unit.check((inst,), (t, mu, val + OFF), None), "enumerated optimum")
    moved = Point(t.x + OFF, t.y)
    assert _says(unit.check((inst,), (moved, mu, val), None), "lex-smallest")
    # another optimal-looking t: a different matching's circle centre
    for other in checks.injections(len(A), len(B)):
        _r2, c = checks.min_enclosing_circle(checks.anchors_of(A, B, other))
        if c != (t.x, t.y):
            assert _says(unit.check((inst,), (Point(*c), mu, val), None), "lex-smallest")
            break


def test_min_enclosing_circle_against_known_cases():
    assert checks.min_enclosing_circle([(Fraction(0), Fraction(0))]) == (0, (0, 0))
    r2, c = checks.min_enclosing_circle([(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(1), Fraction(1, 2))])
    assert (r2, c) == (1, (1, 0))  # obtuse: the diameter circle
    r2, c = checks.min_enclosing_circle([(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))])
    assert (r2, c) == (2, (1, 1))  # right angle: hypotenuse is a diameter
    r2, c = checks.min_enclosing_circle([(Fraction(0), Fraction(0)), (Fraction(4), Fraction(0)), (Fraction(2), Fraction(3))])
    assert c == (2, Fraction(5, 6)) and r2 == 4 + Fraction(25, 36)  # acute: circumcircle


def test_lex_check_rejects_planted_labels():
    inst = workloads.make_instance(A[:3], B)
    diag = botmatch.build_diagram(inst, lex=True)
    rng = random.Random(1)
    assert checks.check_lex(inst, A[:3], B, diag, rng, 20, 10) == []
    good_faces = dict(diag.faces)
    diag.faces = {
        ref: LexLabel(lab.matching, tuple(v + 1 for v in lab._nums), lab._den)
        for ref, lab in good_faces.items()
    }
    assert checks.check_lex(inst, A[:3], B, diag, random.Random(1), 5, 0)
    diag.faces = good_faces
    # every cell labelled with its worst matching at its sample point
    arr = diag.arrangement
    planted = []
    for cid in range(arr.n_cells):
        x, y, w = arr.face_sample_triple(FaceRef(2, cid))
        t = (Fraction(x, w), Fraction(y, w))
        worst = max(checks.injections(3, 2), key=lambda mu: checks.f_mu(checks.anchors_of(A[:3], B, mu), t))
        mu = botmatch.matching.matching_from_map(dict(enumerate(worst)))
        planted.append(CellLabel(mu, mu[0], 1))
    diag.cells = planted
    assert checks.check_lex(inst, A[:3], B, diag, random.Random(1), 0, 10)


def test_path_check_rejects_planted_answers():
    unit = workloads.PathUnit(A, B, (-3, 2), (5, -1))
    unit.prepare()
    args = unit.fresh()
    res = botmatch.bottleneck_path(*args)
    assert unit.check(args, res, random.Random(2)) == []
    bad = PathResult(res.polyline, res.value + OFF, res.vertex_values)
    assert _says(unit.check(args, bad, random.Random(2)), "largest vertex value")
    bad = PathResult(res.polyline, unit.upper + 1, res.vertex_values)
    assert _says(unit.check(args, bad, random.Random(2)), "straight-line bound")
    detour = (res.polyline[0], Point(Fraction(40), Fraction(40)), res.polyline[-1])
    bad = PathResult(detour, res.value, res.vertex_values)
    assert _says(unit.check(args, bad, random.Random(2)), "on the path exceeds")


def test_cover_check_rejects_planted_answers():
    unit = workloads.CoverUnit(A, B, (-4, -4, 5, 5))
    unit.prepare()
    args = unit.fresh()
    res = botmatch.cover_radius(*args)
    assert unit.check(args, res, None) == []
    for wrong in (res.value + OFF, res.value - OFF):
        assert _says(unit.check(args, CoverResult(wrong, res.witness, res.region), None), "at the witness")
    lower, upper = unit.expect
    for wrong in (lower - OFF, upper + OFF):
        assert _says(unit.check(args, CoverResult(wrong, res.witness, res.region), None), "outside [")
    outside = Point(res.witness.x + 100, res.witness.y)
    assert _says(unit.check(args, CoverResult(res.value, outside, res.region), None), "outside Q")
    assert unit.check(args, botmatch.Empty, None)


def test_eval_check_counts_each_wrong_point():
    pts = [Point(Fraction(i, 3), Fraction(-i, 7)) for i in range(5)]
    unit = workloads.EvalUnit(A, B, pts)
    unit.prepare()
    args = unit.fresh()
    values = unit.call(*args)
    assert unit.check(args, values, None) == []
    values[2] += OFF
    values[4] -= OFF
    assert len(unit.check(args, values, None)) == 2


def test_planted_answer_raises_failed_count(monkeypatch):
    unit = workloads.AlignUnit(A, B)
    unit.prepare()
    stats = workloads.RoundStats(1)
    workloads.run_round([unit], stats, 0)
    assert (stats.attempted, stats.failed, stats.wrong) == (1, 0, 0)

    real = workloads.optimal_translation
    monkeypatch.setattr(workloads, "optimal_translation", lambda inst: (lambda t, mu, v: (t, mu, v + OFF))(*real(inst)))
    workloads.run_round([unit], stats, 0)
    assert (stats.attempted, stats.failed, stats.wrong) == (2, 1, 1)

    def broken(inst):
        raise ValueError("planted")

    monkeypatch.setattr(workloads, "optimal_translation", broken)
    workloads.run_round([unit], stats, 0)
    assert (stats.attempted, stats.failed, stats.wrong) == (3, 2, 1)


def test_frames_keep_values_and_move_answers():
    base = workloads.make_units("queries", 0)
    moved = workloads.make_units("queries", 3)
    assert [type(u) for u in base] == [type(u) for u in moved]
    r0 = base[0].call(*base[0].fresh())
    r1 = moved[0].call(*moved[0].fresh())
    assert r0.value == r1.value
    assert base[0].A != moved[0].A


def test_tracer_wraps_only_while_installed():
    targets = tracing.wrap_targets(workloads)
    originals = [(o, a, o.__dict__[a] if isinstance(o, type) else getattr(o, a)) for o, a, _ in targets]
    assert botmatch.diagram.build_arrangement is botmatch.arrangement.build_arrangement
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        assert botmatch.diagram.build_arrangement is not botmatch.arrangement.build_arrangement
        unit = workloads.CoverUnit(A, B, (-4, -4, 5, 5))
        unit.prepare()
        stats = workloads.RoundStats(1)
        workloads.run_round([unit], stats, 0, tracer)
        got = tracer.round_metrics(0)
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is fn
    assert stats.failed == 0
    assert got["diagram.build_diagram_calls"] == 1
    assert got["diagram.eval_E_calls"] >= 1
    assert got["geom.erode_polygon_s"] > 0
    assert 0 < got["applications.cover_radius_self_s"] < sum(
        end - start for i, start, end, parent in tracer.spans if parent == -1
    )
    names = {tracer.names[i] for i, _s, _e, _p in tracer.spans}
    assert "applications.cover_radius" in names and "arrangement.build_arrangement" in names


def test_traced_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    tracer = tracing.Tracer()
    names = set(tracer.round_metrics(0)) | {"trace.overhead_s"}
    assert names == set(declared)
    assert all(tracing.unit_of(name) == unit for name, unit in declared.items())
