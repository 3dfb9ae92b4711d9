import hashlib
import json
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from botmatch.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    format_scalar,
    instance_to_json,
    parse_instance,
    parse_scalar,
    render_svg,
    run,
)
from botmatch import diagram
from botmatch.diagram import LabeledDiagram, build_diagram
from botmatch.applications import bottleneck_path, cover_radius, optimal_translation
from botmatch.geom import ConvexPolygon, Instance, point


def _pts(coords):
    return tuple(point(x, y) for x, y in coords)


def _mk(a_coords, b_coords):
    return Instance(_pts(a_coords), _pts(b_coords))


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -- parsing and round-trips ------------------------------------------------------


def test_scalar_round_trip():
    for x in (Fraction(81), Fraction(-1, 2), Fraction(22, 7), Fraction(0)):
        assert parse_scalar(format_scalar(x)) == x
    assert parse_scalar(5) == 5
    assert parse_scalar("-3/4") == Fraction(-3, 4)


def test_scalar_rejects_malformed():
    from botmatch.cli import InputError

    for bad in ("1/0", "1.5", "3/-4", "", "a", True, 2.5, None, "1/2/3"):
        with pytest.raises(InputError):
            parse_scalar(bad)


def test_instance_round_trip():
    inst = _mk([(0, 0), (2, 0)], [(0, 0), (3, 0)])
    assert parse_instance(instance_to_json(inst)) == inst
    frac = Instance(
        (point(Fraction(1, 3), 2), point(0, 0)), (point(Fraction(-5, 7), 1),)
    )
    assert parse_instance(instance_to_json(frac)) == frac


def test_eval_command_and_result_file(tmp_path, capsys):
    inst = _write(tmp_path, "in.json", {"A": [[0, 0], [10, 0]], "B": [[0, 0], [1, 0]]})
    out = tmp_path / "res.json"
    assert run(["eval", inst, "--t", "0,0", "-o", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert json.loads(printed) == doc
    assert doc["value"] == "81"
    assert doc["approx"] == 81.0
    assert Fraction(doc["value"]) == 81
    assert sorted(map(tuple, doc["matching"])) == [(0, 0), (1, 1)]


def test_match_command(tmp_path, capsys):
    inst = _write(tmp_path, "in.json", {"A": [[0, 0], [2, 0]], "B": [[0, 0], [3, 0]]})
    assert run(["match", inst]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "1/4"
    assert doc["t"] == ["-1/2", "0"]


def test_path_command(tmp_path, capsys):
    inst = _write(tmp_path, "in.json", {"A": [[0, 0], [10, 0]], "B": [[0, 0]]})
    assert run(["path", inst, "--from", "0,0", "--to", "10,0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "25"
    assert doc["polyline"][0] == ["0", "0"]
    assert doc["polyline"][-1] == ["10", "0"]
    assert max(Fraction(v) for v in doc["vertex_values"]) == 25


def test_cover_command(tmp_path, capsys):
    inst = _write(tmp_path, "in.json", {"A": [[0, 0]], "B": [[0, 0]]})
    poly = _write(tmp_path, "q.json", {"Q": [[-1, -1], [1, -1], [1, 1], [-1, 1]]})
    assert run(["cover", inst, "--polygon", poly]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "2"
    assert not doc["empty"]

    tiny = _write(tmp_path, "tiny.json", {"Q": [[0, 0], [1, 0], [0, 1]]})
    wide = _write(
        tmp_path, "wide.json", {"A": [[0, 0], [9, 9]], "B": [[0, 0], [5, 0]]}
    )
    assert run(["cover", wide, "--polygon", tiny]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"empty": True}


# -- golden outputs ---------------------------------------------------------------

# Full `path` and `cover` stdout on instances with non-integer answers. The
# texts were recorded from the Fraction envelope and clipping kernels; the
# integer kernels must reproduce them byte for byte.
GOLDEN = [
    (
        "path",
        {"A": [[0, 0], [3, 1]], "B": [[0, 0]]},
        ["--from=0,1/2", "--to=3,2"],
        """\
{
  "approx": 2.5,
  "polyline": [
    [
      "0",
      "1/2"
    ],
    [
      "3/2",
      "1/2"
    ],
    [
      "3",
      "2"
    ]
  ],
  "polyline_approx": [
    [
      0.0,
      0.5
    ],
    [
      1.5,
      0.5
    ],
    [
      3.0,
      2.0
    ]
  ],
  "value": "5/2",
  "vertex_values": [
    "1/4",
    "5/2",
    "1"
  ]
}
""",
    ),
    (
        "path",
        {"A": [[-1, -5], [-3, 1], ["-5/3", -3]], "B": [[-2, 7], ["3/2", 8]]},
        ["--from=9,0", "--to=3,1/2"],
        """\
{
  "approx": 231.25,
  "polyline": [
    [
      "9",
      "0"
    ],
    [
      "-53/276",
      "-2149/276"
    ],
    [
      "199/276",
      "-1099/276"
    ],
    [
      "3",
      "1/2"
    ]
  ],
  "polyline_approx": [
    [
      9.0,
      0.0
    ],
    [
      -0.19202898550724637,
      -7.786231884057971
    ],
    [
      0.7210144927536232,
      -3.9818840579710146
    ],
    [
      3.0,
      0.5
    ]
  ],
  "value": "925/4",
  "vertex_values": [
    "925/4",
    "730405/38088",
    "1385185/38088",
    "4225/36"
  ]
}
""",
    ),
    (
        "path",
        {"A": [["-1/2", 3], [-3, "2/3"]], "B": [["3/2", -10], ["-9/2", "11/2"]]},
        ["--from=3,4", "--to=-3,-8"],
        """\
{
  "approx": 350.69444444444446,
  "polyline": [
    [
      "3",
      "4"
    ],
    [
      "-21965/7596",
      "2007/844"
    ],
    [
      "-3",
      "-8"
    ]
  ],
  "polyline_approx": [
    [
      3.0,
      4.0
    ],
    [
      -2.8916535018430753,
      2.3779620853080567
    ],
    [
      -3.0,
      -8.0
    ]
  ],
  "value": "12625/36",
  "vertex_values": [
    "3625/36",
    "2056671305/28849608",
    "12625/36"
  ]
}
""",
    ),
    (
        "cover",
        {"A": [["1/2", 0], [4, "7/3"], [-2, 3]], "B": [[0, 0]]},
        {"Q": [[-1, -1], [4, 0], [2, 3]]},
        """\
{
  "approx": 7.010428681276432,
  "empty": false,
  "region": [
    [
      "-1",
      "-1"
    ],
    [
      "4",
      "0"
    ],
    [
      "2",
      "3"
    ]
  ],
  "value": "145873/20808",
  "witness": [
    "641/204",
    "-35/204"
  ],
  "witness_approx": [
    3.142156862745098,
    -0.1715686274509804
  ]
}
""",
    ),
    (
        "cover",
        {"A": [[0, -7], ["-8/3", -5]], "B": [["-7/3", "4/3"], ["-2/3", -3]]},
        {"Q": [[-4, -4], [4, -3], [5, 5], [-3, 4]]},
        """\
{
  "approx": 123.88214215727443,
  "empty": false,
  "region": [
    [
      "-206/189",
      "-136/189"
    ],
    [
      "14/3",
      "0"
    ],
    [
      "962/189",
      "640/189"
    ],
    [
      "-2/3",
      "8/3"
    ]
  ],
  "value": "4425194/35721",
  "witness": [
    "962/189",
    "640/189"
  ],
  "witness_approx": [
    5.08994708994709,
    3.386243386243386
  ]
}
""",
    ),
    (
        "cover",
        {"A": [[0, 0], [2, 1], [1, 3]], "B": [[0, 0], [1, 0]]},
        {"Q": [["-1/2", 0], [3, "1/3"], [1, 4]]},
        """\
{
  "approx": 4.111111111111111,
  "empty": false,
  "region": [
    [
      "-25/54",
      "8/81"
    ],
    [
      "2",
      "1/3"
    ],
    [
      "16/27",
      "236/81"
    ]
  ],
  "value": "37/9",
  "witness": [
    "2",
    "1/3"
  ],
  "witness_approx": [
    2.0,
    0.3333333333333333
  ]
}
""",
    ),
    (
        "cover",
        {"A": [[-4, 10], [1, -4], [8, -4]], "B": [[7, -5]]},
        {"Q": [[-4, -4], [4, -3], [5, 5], [-3, 4]]},
        """\
{
  "approx": 92.12890625,
  "empty": false,
  "region": [
    [
      "-11",
      "1"
    ],
    [
      "-3",
      "2"
    ],
    [
      "-2",
      "10"
    ],
    [
      "-10",
      "9"
    ]
  ],
  "value": "23585/256",
  "witness": [
    "-5/2",
    "159/16"
  ],
  "witness_approx": [
    -2.5,
    9.9375
  ]
}
""",
    ),
]


@pytest.mark.parametrize("cmd, doc, extra, expected", GOLDEN)
def test_path_and_cover_stdout_is_pinned(tmp_path, capsys, cmd, doc, extra, expected):
    argv = [cmd, _write(tmp_path, "in.json", doc)]
    if cmd == "cover":
        argv += ["--polygon", _write(tmp_path, "q.json", extra)]
    else:
        argv += extra
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == expected


PATH_GOLDEN = [g[1:] for g in GOLDEN if g[0] == "path"]


@pytest.mark.parametrize(
    "doc, extra, expected", PATH_GOLDEN, ids=[f"path{i}" for i in range(len(PATH_GOLDEN))]
)
def test_path_answers_without_labelling_the_diagram(tmp_path, capsys, monkeypatch, doc, extra, expected):
    def refuse(*args):
        raise AssertionError("the path must not label the whole diagram")

    monkeypatch.setattr(diagram, "label_cells_incremental", refuse)
    monkeypatch.setattr(LabeledDiagram, "cells", property(refuse))
    assert run(["path", _write(tmp_path, "in.json", doc), *extra]) == EXIT_OK
    assert capsys.readouterr().out == expected


# Full `eval` and `match` stdout. Each `eval` instance but the last has
# several optimal matchings at its t, and each `match` instance has several
# at its optimum, so the witness rule shows in the text. The last `eval`
# instance is solved above the first rank at which every b has an edge. The
# texts were recorded before the bottleneck search probed from that rank
# up; the search must reproduce them byte for byte. They are written here as
# the documents the CLI prints with `json.dumps(indent=2, sort_keys=True)`.
EVAL_MATCH_GOLDEN = [
    (
        "eval",
        {"A": [[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]], "B": [[0, 0], [1, 1], [2, 0]]},
        ["--t", "1/2,1/2"],
        {"approx": 0.5, "matching": [[0, 0], [1, 2], [3, 1]], "t": ["1/2", "1/2"], "value": "1/2"},
    ),
    (
        "eval",
        {"A": [[0, 0], [3, 0], [6, 0], [9, 0]], "B": [[0, 0], [3, 0], [6, 0]]},
        ["--t", "3/2,0"],
        {"approx": 2.25, "matching": [[0, 0], [1, 1], [2, 2]], "t": ["3/2", "0"], "value": "9/4"},
    ),
    (
        "eval",
        {"A": [[1, 0], [0, 1], [-1, 0], [0, -1], [3, 4]], "B": [[0, 0], [5, 5]]},
        ["--t", "0,0"],
        {"approx": 5.0, "matching": [[0, 0], [4, 1]], "t": ["0", "0"], "value": "5"},
    ),
    (
        "eval",
        {"A": [[0, 0], [5, 0], [-5, 0]], "B": [[0, 0], [1, 0]]},
        ["--t", "0,0"],
        {"approx": 16.0, "matching": [[0, 0], [1, 1]], "t": ["0", "0"], "value": "16"},
    ),
    (
        "match",
        {"A": [[-3, 0], [-2, -3], [-1, -3], [-1, -2]], "B": [[-1, 2], [0, -2], [0, -1]]},
        [],
        {
            "approx": 0.5,
            "matching": [[0, 0], [1, 1], [2, 2]],
            "t": ["-3/2", "-3/2"],
            "t_approx": [-1.5, -1.5],
            "value": "1/2",
        },
    ),
    (
        "match",
        {"A": [[-3, 3], [-2, 2], [-1, 2]], "B": [[0, 0], [2, -1], [2, 2]]},
        [],
        {
            "approx": 2.5,
            "matching": [[0, 0], [1, 2], [2, 1]],
            "t": ["-7/2", "3/2"],
            "t_approx": [-3.5, 1.5],
            "value": "5/2",
        },
    ),
    (
        "match",
        {"A": [[-3, -3], [-2, -3], [-2, -2], [-2, -1], [-2, 1]], "B": [[0, -1], [2, 0], [3, 3]]},
        [],
        {
            "approx": 1.0,
            "matching": [[0, 0], [1, 1], [4, 2]],
            "t": ["-4", "-2"],
            "t_approx": [-4.0, -2.0],
            "value": "1",
        },
    ),
]


@pytest.mark.parametrize(
    "cmd, doc, extra, printed",
    EVAL_MATCH_GOLDEN,
    ids=[f"{g[0]}{i}" for i, g in enumerate(EVAL_MATCH_GOLDEN)],
)
def test_eval_and_match_stdout_is_pinned(tmp_path, capsys, cmd, doc, extra, printed):
    assert run([cmd, _write(tmp_path, "in.json", doc), *extra]) == EXIT_OK
    assert capsys.readouterr().out == json.dumps(printed, indent=2, sort_keys=True) + "\n"


def test_diagram_summary(tmp_path, capsys):
    inst = _write(tmp_path, "in.json", {"A": [[0, 0], [6, 0], [0, 6]], "B": [[0, 0]]})
    assert run(["diagram", inst]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["used_bisectors"] == 3
    assert doc["cells"] == 6
    assert doc["distinct_labels"] == 3


def test_diagram_lex_counts_faces(tmp_path, capsys):
    inst = _write(tmp_path, "in.json", {"A": [[0, 0], [4, 2]], "B": [[0, 0]]})
    assert run(["diagram", inst, "--lex"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["lex_faces"] == doc["cells"] + doc["edges"] + doc["vertices"]


# `diagram --lex` stdout and the sha256 of its SVG, recorded from the per-face
# lex labeller; the array labeller must reproduce them byte for byte.
LEX_GOLDEN = [
    (
        {"A": [[0, 0], [6, 0], [0, 6]], "B": [[0, 0]]},
        (6, 3, 14, 29, 3, 9),
        "f0f149130d57f784c22200b9b90ce10c43778e498963795f4baca1e8c5ae8aac",
    ),
    (
        {"A": [[0, 0], [1, 0], [7, 5]], "B": [[0, 0], [1, 0]]},
        (39, 5, 81, 163, 10, 43),
        "ab01d4006704e64f690208cc8364ffcf7faef0e2d669ebd15cb4fa7b7d83e2d9",
    ),
    (
        {"A": [[5, 5], [6, 4], [6, 5], [20, 20]], "B": [[0, 0], [1, 0], [0, 1]]},
        (345, 13, 637, 1275, 30, 293),
        "a60ccabe0ce2a46f3ef50d0d0e456b8f4a26bdf7d07bae7a8006a0041bf4b951",
    ),
    (
        {"A": [["1/3", 2], [0, 0], [3, 1], [-2, "5/2"]], "B": [["-5/7", 1], [1, 1]]},
        (317, 10, 613, 1227, 27, 297),
        "fa238854a8a750d590ca622cc2175b44f25445de7da3b3822191bff699cb18c7",
    ),
]


@pytest.mark.parametrize("doc, counts, svg_sha256", LEX_GOLDEN)
def test_diagram_lex_stdout_and_svg_are_pinned(tmp_path, capsys, doc, counts, svg_sha256):
    svg = tmp_path / "out.svg"
    assert run(["diagram", _write(tmp_path, "in.json", doc), "--lex", "--svg", str(svg)]) == EXIT_OK
    cells, labels, edges, faces, used, vertices = counts
    assert capsys.readouterr().out == (
        f'{{\n  "cells": {cells},\n  "distinct_labels": {labels},\n  "edges": {edges},\n'
        f'  "lex_faces": {faces},\n  "used_bisectors": {used},\n  "vertices": {vertices}\n}}\n'
    )
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha256


def test_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, "ok.json", {"A": [[0, 0], [1, 0]], "B": [[0, 0]]})
    assert run(["frobnicate", ok]) == EXIT_USAGE
    assert run(["path", ok, "--from", "0,0"]) == EXIT_USAGE
    assert run(["oracle", "eval", ok]) == EXIT_USAGE

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["eval", str(bad), "--t", "0,0"]) == EXIT_INVALID
    for doc in (
        {"A": [[0, 0]], "B": [[0, 0], [1, 1]]},  # k > n
        {"A": [[0, 0], [0, 0]], "B": [[1, 1]]},  # duplicates
        {"A": [[0, 0], ["1/0", 2]], "B": [[0, 0]]},  # malformed rational
        {"A": [[0, 0], [1, 0.5]], "B": [[0, 0]]},  # floats rejected
        {"B": [[0, 0]]},  # missing key
    ):
        assert run(["eval", _write(tmp_path, "x.json", doc), "--t", "0,0"]) == (
            EXIT_INVALID
        )
    assert run(["eval", ok, "--t", "0;0"]) == EXIT_INVALID
    # integers past Python's 4,300-digit int-string limit
    digits = "9" * 5000
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"A": [[0, 0], [1, %s]], "B": [[0, 0]]}' % digits)
    assert run(["eval", str(long_int), "--t", "0,0"]) == EXIT_INVALID
    long_str = tmp_path / "long_str.json"
    long_str.write_text('{"A": [[0, 0], [1, "%s/7"]], "B": [[0, 0]]}' % digits)
    assert run(["eval", str(long_str), "--t", "0,0"]) == EXIT_INVALID
    assert run(["eval", ok, "--t", f"{digits},0"]) == EXIT_INVALID
    assert run(["eval", str(tmp_path / "absent.json"), "--t", "0,0"]) == EXIT_INVALID
    segment = _write(tmp_path, "segment.json", {"Q": [[0, 0], [5, 5]]})  # not full-dimensional
    assert run(["cover", ok, "--polygon", segment]) == EXIT_INVALID
    assert run(["oracle", "cover", ok, "--polygon", segment]) == EXIT_INVALID
    capsys.readouterr()


def test_values_past_float_range_stay_exact(tmp_path, capsys):
    # Scaled by 10**160, squared values pass 2**1024; scaled by 10**310, the
    # coordinates do too. The float keys and prefilters must not raise, and
    # the answers are the unscaled ones, scaled.
    A, B = [(0, 0), (3, 1), (1, 4), (5, 5)], [(0, 0), (2, 2)]
    small = _mk(A, B)

    def square(s):
        return [[-6 * s, -6 * s], [9 * s, -6 * s], [9 * s, 9 * s], [-6 * s, 9 * s]]

    t, mu, value = optimal_translation(small)
    path = bottleneck_path(small, point(-3, 2), point(5, -1))
    cover = cover_radius(small, ConvexPolygon(_pts(square(1))))
    capsys.readouterr()
    assert run(["diagram", _write(tmp_path, "small.json", instance_to_json(small))]) == EXIT_OK
    counts = json.loads(capsys.readouterr().out)
    for S in (10**160, 10**310):
        big = _mk([(x * S, y * S) for x, y in A], [(x * S, y * S) for x, y in B])
        assert optimal_translation(big) == (point(t.x * S, t.y * S), mu, value * S * S)
        big_path = bottleneck_path(big, point(-3 * S, 2 * S), point(5 * S, -S))
        assert big_path.value == path.value * S * S
        big_cover = cover_radius(big, ConvexPolygon(_pts(square(S))))
        assert big_cover.value == cover.value * S * S
        assert big_cover.witness == point(cover.witness.x * S, cover.witness.y * S)

        inst = _write(tmp_path, "big.json", instance_to_json(big))
        poly = _write(tmp_path, "q.json", {"Q": square(S)})
        for argv in (
            ["match", inst],
            ["eval", inst, "--t", "0,0"],
            ["path", inst, "--from", f"{-3 * S},{2 * S}", "--to", f"{5 * S},{-S}"],
            ["cover", inst, "--polygon", poly],
        ):
            capsys.readouterr()
            assert run(argv) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["approx"] is None
        assert run(["diagram", inst]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == counts


def test_oracle_budget_exit(tmp_path, capsys):
    big = {
        "A": [[i, i * i % 97] for i in range(40)],
        "B": [[100 + i, i] for i in range(6)],
    }
    inst = _write(tmp_path, "big.json", big)
    assert run(["oracle", "eval", inst, "--t", "0,0"]) == EXIT_BUDGET
    capsys.readouterr()


def test_oracle_subcommands(tmp_path, capsys):
    inst = _write(tmp_path, "in.json", {"A": [[0, 0], [2, 0]], "B": [[0, 0], [3, 0]]})
    assert run(["oracle", "match", inst]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "1/4"
    assert run(["oracle", "eval", inst, "--t", "0,0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["value"] == "1"
    assert run(["oracle", "lex", inst, "--t", "0,0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["vector"] == ["1", "0"]
    poly = _write(tmp_path, "q.json", {"Q": [[-9, -9], [9, -9], [9, 9], [-9, 9]]})
    assert run(["oracle", "cover", inst, "--polygon", poly, "--resolution", "4"]) == (
        EXIT_OK
    )
    capsys.readouterr()


# -- SVG --------------------------------------------------------------------------


def test_svg_deterministic_and_parseable(tmp_path):
    inst = _mk([(0, 0), (6, 0), (0, 6)], [(0, 0)])
    diag = build_diagram(inst)
    first = render_svg(diag)
    second = render_svg(build_diagram(inst))
    assert first == second

    root = ET.fromstring(first)
    ns = "{http://www.w3.org/2000/svg}"
    polys = root.findall(f".//{ns}polygon")
    assert len(polys) == diag.arrangement.n_cells
    lines = root.findall(f".//{ns}line")
    assert len(lines) == diag.arrangement.n_edges


def test_svg_single_cell_single_fill():
    inst = _mk([(3, 4)], [(0, 0)])
    diag = build_diagram(inst)
    root = ET.fromstring(render_svg(diag))
    ns = "{http://www.w3.org/2000/svg}"
    polys = root.findall(f".//{ns}polygon")
    assert len(polys) == 1


def test_svg_fill_equals_label_identity():
    inst = _mk([(0, 0), (1, 0), (7, 5)], [(0, 0), (1, 0)])
    diag = build_diagram(inst)
    root = ET.fromstring(render_svg(diag))
    ns = "{http://www.w3.org/2000/svg}"
    fills = [p.get("fill") for p in root.findall(f".//{ns}polygon")]
    keys = [
        tuple(sorted((e.a, e.b) for e in c.matching)) for c in diag.cells
    ]
    assert len(fills) == len(keys)
    seen: dict[tuple, str] = {}
    for key, fill in zip(keys, fills):
        if key in seen:
            assert seen[key] == fill
        else:
            assert fill not in seen.values()
            seen[key] = fill
    assert len(set(keys)) < len(keys), "instance should exercise label sharing"


def test_svg_overlays(tmp_path):
    inst = _mk([(0, 0), (10, 0)], [(0, 0)])
    diag = build_diagram(inst)
    from botmatch.geom import convex_polygon

    svg = render_svg(
        diag,
        path=(point(0, 0), point(5, 0), point(10, 0)),
        region=convex_polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]),
        marker=point(5, 0),
    )
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert root.findall(f".//{ns}polyline")
    assert root.findall(f".//{ns}circle")


def test_diagram_svg_file_byte_identical(tmp_path, capsys):
    inst = _write(tmp_path, "in.json", {"A": [[0, 0], [6, 0], [0, 6]], "B": [[0, 0]]})
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(["diagram", inst, "--svg", str(a)]) == EXIT_OK
    assert run(["diagram", inst, "--svg", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_negative_points_parse_as_separate_arguments(tmp_path, capsys):
    inst = _write(tmp_path, "in.json", {"A": [[0, 0], [3, 1]], "B": [[0, 0]]})
    for glued, split in (
        (["eval", inst, "--t=-1,0"], ["eval", inst, "--t", "-1,0"]),
        (
            ["path", inst, "--from=-7/2,1", "--to=1,1"],
            ["path", inst, "--from", "-7/2,1", "--to", "1,1"],
        ),
        (
            ["path", inst, "--from=1,1", "--to=-1/2,-3"],
            ["path", inst, "--to", "-1/2,-3", "--from", "1,1"],
        ),
        (["oracle", "eval", inst, "--t=-2,-1/3"], ["oracle", "eval", inst, "--t", "-2,-1/3"]),
    ):
        assert run(glued) == EXIT_OK
        expected = capsys.readouterr().out
        assert run(split) == EXIT_OK
        assert capsys.readouterr().out == expected
    assert run(["eval", inst, "--t"]) == EXIT_USAGE
    assert run(["path", inst, "--from", "--to", "1,1"]) == EXIT_USAGE
    assert run(["path", inst, "--from", "-7/2,1", "--to"]) == EXIT_USAGE
