"""Command-line front end: JSON instances in, JSON results and SVG out.

Subcommands: ``diagram`` (build and summarize, optionally render), ``match``
(best translation), ``path`` (minimax path between two placements), ``cover``
(worst placement inside a region), ``eval`` (bottleneck value at one point),
plus a hidden ``oracle`` namespace exposing the slow reference
implementations to the test harness.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 over budget.
All exact values are serialized as "p/q" strings next to float
approximations, null past float range; parsing those strings returns the
identical rational.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from fractions import Fraction
from typing import Any, Sequence

from .applications import (
    CoverResult,
    Empty,
    bottleneck_path,
    cover_radius,
    optimal_translation,
)
from .diagram import LabeledDiagram, build_diagram, eval_E
from .geom import ConvexPolygon, Instance, Point, Scalar, format_scalar
from .geom import ContractViolation
from .matching import Matching, NoCompleteMatching
from .oracle import (
    TooLarge,
    brute_force_E,
    brute_force_lex,
    grid_cover_radius,
    oracle_optimal_translation,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

_RATIONAL = re.compile(r"-?\d+(/[1-9]\d*)?\Z")


class InputError(ValueError):
    """Invalid instance, polygon, or coordinate input (exit code 2)."""


# -- parsing ----------------------------------------------------------------------


def parse_scalar(raw: Any) -> Scalar:
    """One coordinate: a JSON integer or a "p/q" string."""
    if isinstance(raw, bool):
        raise InputError(f"not a coordinate: {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str) and _RATIONAL.match(raw):
        try:
            return Fraction(raw)
        except ValueError as err:  # past Python's int-string digit limit
            raise InputError(f"cannot read a {len(raw)}-character coordinate: {err}") from err
    raise InputError(f"not an integer or p/q string: {raw!r}")


def _parse_points(raw: Any, name: str) -> tuple[Point, ...]:
    if not isinstance(raw, list) or not raw:
        raise InputError(f'"{name}" must be a nonempty list of [x, y] pairs')
    pts = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise InputError(f'every point of "{name}" must be an [x, y] pair')
        pts.append(Point(parse_scalar(item[0]), parse_scalar(item[1])))
    return tuple(pts)


def parse_instance(doc: Any) -> Instance:
    if not isinstance(doc, dict) or set(doc) != {"A", "B"}:
        raise InputError('instance file must be {"A": [...], "B": [...]}')
    A = _parse_points(doc["A"], "A")
    B = _parse_points(doc["B"], "B")
    try:
        return Instance(A, B)
    except ValueError as err:
        raise InputError(str(err)) from err


def instance_to_json(inst: Instance) -> dict:
    return {
        "A": [[format_scalar(p.x), format_scalar(p.y)] for p in inst.A],
        "B": [[format_scalar(p.x), format_scalar(p.y)] for p in inst.B],
    }


def parse_polygon(doc: Any) -> ConvexPolygon:
    if not isinstance(doc, dict) or "Q" not in doc:
        raise InputError('polygon file must be {"Q": [[x, y], ...]}')
    verts = _parse_points(doc["Q"], "Q")
    if len(verts) < 3:
        raise InputError('"Q" must have at least 3 vertices')
    try:
        return ConvexPolygon(verts)
    except ValueError as err:
        raise InputError(str(err)) from err


def _parse_xy(raw: str) -> Point:
    parts = raw.split(",")
    if len(parts) != 2:
        raise InputError(f"expected x,y but got {raw!r}")
    return Point(parse_scalar(parts[0].strip()), parse_scalar(parts[1].strip()))


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except ValueError as err:  # JSONDecodeError, or an int past the digit limit
        raise InputError(f"{path} is not valid JSON: {err}") from err


# -- serialization ----------------------------------------------------------------


def _point_json(p: Point) -> list[str]:
    return [format_scalar(p.x), format_scalar(p.y)]


def _approx(x: Scalar) -> float | None:
    """float(x), or None (JSON null) when x is past float range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _point_approx(p: Point) -> list[float | None]:
    return [_approx(p.x), _approx(p.y)]


def _matching_json(mu: Matching) -> list[list[int]]:
    return sorted([e.a, e.b] for e in mu)


def _emit(result: dict, out: str | None) -> None:
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# -- rendering --------------------------------------------------------------------


def _label_color(key: str) -> str:
    digest = hashlib.sha256(key.encode()).digest()
    # Light pastel fills so the black edges stay visible.
    r, g, b = (160 + digest[i] * 96 // 255 for i in range(3))
    return f"#{r:02x}{g:02x}{b:02x}"


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def render_svg(
    diagram: LabeledDiagram,
    *,
    path: Sequence[Point] = (),
    region: ConvexPolygon | None = None,
    marker: Point | None = None,
) -> str:
    """Deterministic SVG: cells colored by label identity plus overlays."""
    arr = diagram.arrangement
    xlo, ylo, xhi, yhi = (float(v) for v in arr.box)
    width, height = xhi - xlo, yhi - ylo
    stroke = _fmt(max(width, height) / 400.0)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(xlo)} '
        f'{_fmt(-yhi)} {_fmt(width)} {_fmt(height)}">',
        f'<g transform="scale(1,-1)" stroke-linejoin="round" '
        f'stroke-linecap="round" stroke-width="{stroke}">',
    ]
    for cid in range(arr.n_cells):
        poly = arr.cell_polygon(cid)
        coords = " ".join(
            f"{_fmt(float(v.x))},{_fmt(float(v.y))}" for v in poly.vertices
        )
        key = repr(tuple(sorted((e.a, e.b) for e in diagram.cells[cid].matching)))
        parts.append(f'<polygon points="{coords}" fill="{_label_color(key)}"/>')
    for eid in range(arr.n_edges):
        u, v = arr.edge_endpoints(eid)
        pu, pv = arr.vertex_point(u), arr.vertex_point(v)
        parts.append(
            f'<line x1="{_fmt(float(pu.x))}" y1="{_fmt(float(pu.y))}" '
            f'x2="{_fmt(float(pv.x))}" y2="{_fmt(float(pv.y))}" stroke="#333333"/>'
        )
    if region is not None:
        coords = " ".join(
            f"{_fmt(float(v.x))},{_fmt(float(v.y))}" for v in region.vertices
        )
        parts.append(
            f'<polygon points="{coords}" fill="none" stroke="#0044cc" '
            f'stroke-width="{_fmt(2 * float(stroke))}"/>'
        )
    if path:
        coords = " ".join(f"{_fmt(float(p.x))},{_fmt(float(p.y))}" for p in path)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#cc0000" '
            f'stroke-width="{_fmt(2 * float(stroke))}"/>'
        )
    if marker is not None:
        parts.append(
            f'<circle cx="{_fmt(float(marker.x))}" cy="{_fmt(float(marker.y))}" '
            f'r="{_fmt(3 * float(stroke))}" fill="#cc0000" stroke="none"/>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- subcommands ------------------------------------------------------------------


def _cmd_diagram(args) -> int:
    inst = parse_instance(_load_json(args.instance))
    diag = build_diagram(inst, lex=args.lex)
    arr = diag.arrangement
    result = {
        "cells": arr.n_cells,
        "vertices": arr.n_vertices,
        "edges": arr.n_edges,
        "used_bisectors": len(diag.bisectors),
        "distinct_labels": len(
            {tuple(sorted((e.a, e.b) for e in c.matching)) for c in diag.cells}
        ),
    }
    if args.lex:
        result["lex_faces"] = len(diag.faces)
    _emit(result, args.out)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(diag))
    return EXIT_OK


def _cmd_match(args) -> int:
    inst = parse_instance(_load_json(args.instance))
    t, mu, value = optimal_translation(inst)
    _emit(
        {
            "t": _point_json(t),
            "t_approx": _point_approx(t),
            "value": format_scalar(value),
            "approx": _approx(value),
            "matching": _matching_json(mu),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_path(args) -> int:
    inst = parse_instance(_load_json(args.instance))
    t0 = _parse_xy(args.src)
    t1 = _parse_xy(args.dst)
    res = bottleneck_path(inst, t0, t1)
    _emit(
        {
            "value": format_scalar(res.value),
            "approx": _approx(res.value),
            "polyline": [_point_json(p) for p in res.polyline],
            "polyline_approx": [_point_approx(p) for p in res.polyline],
            "vertex_values": [format_scalar(v) for v in res.vertex_values],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_cover(args) -> int:
    inst = parse_instance(_load_json(args.instance))
    Q = parse_polygon(_load_json(args.polygon))
    res = cover_radius(inst, Q)
    if res is Empty:
        _emit({"empty": True}, args.out)
        return EXIT_OK
    if not isinstance(res, CoverResult):
        raise ContractViolation("cover_radius returned neither Empty nor a result")
    _emit(
        {
            "empty": False,
            "value": format_scalar(res.value),
            "approx": _approx(res.value),
            "witness": _point_json(res.witness),
            "witness_approx": _point_approx(res.witness),
            "region": [_point_json(v) for v in res.region.vertices],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    inst = parse_instance(_load_json(args.instance))
    t = _parse_xy(args.t)
    value, mu = eval_E(inst, t)
    _emit(
        {
            "value": format_scalar(value),
            "approx": _approx(value),
            "t": _point_json(t),
            "matching": _matching_json(mu),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.subop in ("eval", "lex") and args.t is None:
        raise _UsageError(f"oracle {args.subop} requires --t")
    if args.subop == "cover" and args.polygon is None:
        raise _UsageError("oracle cover requires --polygon")
    inst = parse_instance(_load_json(args.instance))
    if args.subop == "eval":
        value, mu = brute_force_E(inst, _parse_xy(args.t))
        result = {
            "value": format_scalar(value),
            "approx": _approx(value),
            "matching": _matching_json(mu),
        }
    elif args.subop == "lex":
        vec = brute_force_lex(inst, _parse_xy(args.t))
        result = {
            "vector": [format_scalar(v) for v in vec],
            "approx": [_approx(v) for v in vec],
        }
    elif args.subop == "match":
        t, value = oracle_optimal_translation(inst)
        result = {
            "t": _point_json(t),
            "value": format_scalar(value),
            "approx": _approx(value),
        }
    else:
        if args.subop != "cover":
            raise ContractViolation(f"unknown oracle subcommand {args.subop}")
        Q = parse_polygon(_load_json(args.polygon))
        value = grid_cover_radius(inst, Q, args.resolution)
        result = {"value": format_scalar(value), "approx": _approx(value)}
    _emit(result, args.out)
    return EXIT_OK


# -- dispatch ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors must exit 1, not 2
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="botmatch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(
        dest="command", metavar="{diagram,match,path,cover,eval}"
    )
    sub.required = True

    def common(p):
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("-o", "--out", help="also write the result JSON here")

    p = sub.add_parser("diagram", help="build the diagram and summarize it")
    common(p)
    p.add_argument("--lex", action="store_true", help="also label every face")
    p.add_argument("--svg", help="render the labeled diagram to this SVG file")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("match", help="optimal bottleneck matching under translation")
    common(p)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("path", help="minimax path between two placements")
    common(p)
    p.add_argument("--from", dest="src", required=True, metavar="x,y")
    p.add_argument("--to", dest="dst", required=True, metavar="x,y")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("cover", help="worst placement inside a convex region")
    common(p)
    p.add_argument("--polygon", required=True, help="polygon JSON file")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("eval", help="bottleneck value at one translation")
    common(p)
    p.add_argument("--t", required=True, metavar="x,y")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle")  # reference implementations, test harness only
    p.add_argument("subop", choices=["eval", "lex", "match", "cover"])
    common(p)
    p.add_argument("--t", metavar="x,y")
    p.add_argument("--polygon")
    p.add_argument("--resolution", type=int, default=16)
    p.set_defaults(func=_cmd_oracle)
    return parser


def _glue_xy_values(argv: Sequence[str]) -> list[str]:
    """``--t -1,0`` as ``--t=-1,0``: argparse reads a lone "-1,0" as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--t", "--from", "--to") and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_xy_values(argv))
        return args.func(args)
    except _UsageError as err:
        print(f"botmatch: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as err:
        print(f"botmatch: invalid input: {err}", file=sys.stderr)
        return EXIT_INVALID
    except NoCompleteMatching as err:
        print(f"botmatch: invalid input: {err}", file=sys.stderr)
        return EXIT_INVALID
    except TooLarge as err:
        print(f"botmatch: over budget: {err}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
