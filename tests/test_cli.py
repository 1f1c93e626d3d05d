import itertools
import json
from pathlib import Path

import pytest

from emrings.analysis import PropertyReport
from emrings.cli import PROPERTIES, main, parse_poly_literal
from emrings.construct import OrderCapError, build_spec
from emrings.poly import poly_str, polynomial
from emrings.presets import build_preset, preset_names

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_presets(capsys):
    code, out, _ = run(capsys, "list-presets")
    assert code == 0
    for name in preset_names():
        assert name in out


def test_check_em_false_on_e1(capsys):
    code, out, _ = run(capsys, "check", "--ring", "preset:e1", "--property", "em",
                       "--format", "json", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "false"
    assert doc["witness"]["coefficients"] == [2, 4]
    assert doc["millis"] is None
    # JSON reports round-trip into PropertyReport values
    rep = PropertyReport.from_dict(doc)
    assert rep.verdict == "false"


def test_check_em_graded_true_on_e1(capsys):
    code, out, _ = run(capsys, "check", "--ring", "e1", "--grading", "canonical",
                       "--property", "em-graded", "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out)["verdict"] == "true"


def test_check_other_properties(capsys):
    for prop, expected in [
        ("crossed-product", "false"),
        ("grading-valid", "true"),
        ("t2-hypotheses", "true"),
        ("t8-condition", "false"),
        ("t10-condition", "false"),
        ("armendariz", "false"),
        ("armendariz-graded", "true_up_to_bounds"),
        ("bezout-graded", "false"),
    ]:
        code, out, _ = run(capsys, "check", "--ring", "e1", "--property", prop,
                           "--format", "json", "--no-timing")
        assert code == 0, prop
        assert json.loads(out)["verdict"] == expected, prop


def test_oversized_armendariz_degree_is_refused(capsys):
    # e1 has 8 zero divisors: degree 8 would need 8^9 tuples of 9 coefficients
    code, _, err = run(capsys, "check", "--ring", "e1", "--property", "armendariz",
                       "--max-degree", "8")
    assert code == 1
    assert "error:" in err and str(8**9) in err


def test_ungraded_armendariz_on_a_split_preset_at_the_default_degree(capsys):
    # prod-e1sm splits into two order-4 factors, each scanned at degree 3
    code, out, _ = run(capsys, "check", "--ring", "prod-e1sm", "--property", "armendariz",
                       "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out) == {
        "bounds": {"max_degree": 3}, "millis": None, "property": "armendariz",
        "verdict": "true_up_to_bounds", "witness": None,
    }


def test_tuple_cap_is_taken_on_the_whole_ring_pool(capsys):
    # e2-trunc-d2 splits, but its own 5184 zero divisors decide the cap
    code, _, err = run(capsys, "check", "--ring", "e2-trunc-d2", "--property", "armendariz")
    assert code == 1
    assert err == (
        "error: Armendariz scan over 5184 coefficients at degree 3 needs "
        f"{5184**4} tuples, above the cap of {1 << 20}\n"
    )


def test_find_content_witness(capsys):
    code, out, _ = run(capsys, "find-content", "--ring", "z4", "--poly", "[2,2]",
                       "--format", "json", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["c"] == 2
    assert doc["witness"]["g"] == [1, 1, 2]


def test_find_content_none(capsys):
    code, out, _ = run(capsys, "find-content", "--ring", "e1", "--poly", "2+Y*x",
                       "--format", "json", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"] is None
    assert doc["certificate"]["candidates_exhausted"] == 7


def test_find_content_homogeneous_flag(capsys):
    code, out, _ = run(capsys, "find-content", "--ring", "e1", "--poly", "Y+3Y*x",
                       "--report-homogeneous-content", "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out)["witness"]["homogeneous_c"] == 4


def test_find_content_regular_poly_is_usage_error(capsys):
    code, _, err = run(capsys, "find-content", "--ring", "z4", "--poly", "[1,2]")
    assert code == 1
    assert "zero-divisor" in err


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--ring", "nope", "--property", "em")
    assert code == 1
    assert "unknown preset" in err


@pytest.mark.parametrize("argv", [
    ["check", "--ring", "z4", "--property", "nope"],
    ["check", "--ring", "z4", "--property", "em", "--max-subset", "4"],  # removed flag
    ["suite", "--max-degree", "2"],  # suite runs t3 at its own degree
    ["list-presets", "--max-order", "4"],  # builds no ring
])
def test_bad_command_line_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_ring_file_and_spec_file(tmp_path, capsys, z6):
    ring_doc = tmp_path / "ring.json"
    ring_doc.write_text(json.dumps(z6.to_dict()))
    code, out, _ = run(capsys, "check", "--ring", str(ring_doc), "--property", "em",
                       "--format", "json", "--no-timing")
    assert code == 0 and json.loads(out)["verdict"] == "true"

    spec_doc = tmp_path / "spec.json"
    spec_doc.write_text(json.dumps({"kind": "cyclic", "n": 6}))
    code, out, _ = run(capsys, "describe", "--ring", str(spec_doc), "--format", "json")
    assert code == 0 and json.loads(out)["order"] == 6


def test_ring_file_respects_max_order(tmp_path, capsys, z6):
    ring_doc = tmp_path / "ring.json"
    ring_doc.write_text(json.dumps(z6.to_dict()))
    code, _, err = run(capsys, "check", "--ring", str(ring_doc), "--property", "em",
                       "--max-order", "4")
    assert code == 1
    assert "cap 4" in err


def test_bad_ring_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "describe", "--ring", str(bad))
    assert code == 1

    # a localization naming an element id the base ring does not have
    spec = tmp_path / "loc.json"
    spec.write_text(json.dumps(
        {"kind": "localization", "base": {"kind": "cyclic", "n": 6}, "s": [1, 9]}
    ))
    code, _, err = run(capsys, "describe", "--ring", str(spec))
    assert code == 1 and "error:" in err and "id 9 is out of range" in err

    # a grading whose components are not a list of {degree, elements} objects
    grading = tmp_path / "grading.json"
    grading.write_text(json.dumps({"moduli": [2], "components": {"0": [0, 1]}}))
    code, _, err = run(capsys, "describe", "--ring", "z4", "--grading", str(grading))
    assert code == 1 and "error:" in err and "malformed-document" in err

    # documents of the wrong shape are input errors, not crashes
    table = {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}
    for doc in ([1, 2], 5, {"add": 3, "mul": 3, "zero": 0, "one": 0},
                {"kind": "product", "factors": 3}, {**table, "labels": 7}):
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "describe", "--ring", str(bad))
        assert code == 1 and "error:" in err and "Traceback" not in err, doc


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "polyQuotientXn", "base": {"kind": "cyclic", "n": 2}, "n": 20000},
        {"kind": "groupRing", "base": {"kind": "cyclic", "n": 2}, "group": [3000]},
        {"kind": "monomialQuotient", "m": 2, "v": 60, "d": 3},
        {"kind": "monomialQuotient", "m": 2, "v": 1500, "d": 1},
    ],
)
def test_oversized_construction_fails_fast(tmp_path, capsys, doc):
    """The order cap is checked before the basis and its basis-product table
    are built: no long build, large allocation or deep recursion first."""
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run(capsys, "describe", "--ring", str(spec))
    assert code == 1 and "error: refusing to materialize" in err


def test_order_one_base_hits_the_basis_cap(tmp_path, capsys):
    """A basis of cap.bit_length() or more elements is refused whatever the
    base order: over Z_1 the order stays 1 while the basis-product table
    grows with the basis.  The small document goes first, so that without
    the refusal the test fails on a 165 x 165 table before the 39711 x 39711
    one of the second document is attempted."""
    small = {"kind": "monomialQuotient", "m": 1, "v": 8, "relations": [], "d": 3}
    with pytest.raises(OrderCapError):
        build_spec(small, max_order=64)
    doc = {"kind": "monomialQuotient", "m": 1, "v": 60, "relations": [], "d": 3}
    with pytest.raises(OrderCapError):
        build_spec(doc)
    spec = tmp_path / "order1.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", "--ring", str(spec), "--property", "em")
    assert code == 1 and "error: refusing to materialize" in err


@pytest.mark.parametrize("components, clause, detail", [
    ([{"degree": [0], "elements": [0, 1]}, {"degree": [1], "elements": [0, 2, 3]}],
     "not-a-subgroup", "1 + 1"),
    # the same degree twice, written out or after reduction mod 2
    ([{"degree": [0], "elements": [0, 2]}, {"degree": [0], "elements": [0, 1, 2, 3]}],
     "duplicate-degree", "(0,)"),
    ([{"degree": [0], "elements": [0, 1, 2, 3]}, {"degree": [2], "elements": [0, 2]}],
     "duplicate-degree", "(0,)"),
])
def test_grading_valid_answers_false_on_a_broken_axiom(tmp_path, capsys, components,
                                                       clause, detail):
    grading = tmp_path / "grading.json"
    grading.write_text(json.dumps({"moduli": [2], "components": components}))
    code, out, _ = run(capsys, "check", "--ring", "z4", "--property", "grading-valid",
                       "--grading", str(grading), "--format", "json", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "false"
    assert doc["witness"]["clause"] == clause and detail in doc["witness"]["detail"]


def test_grading_valid_malformed_document_is_an_input_error(tmp_path, capsys):
    grading = tmp_path / "grading.json"
    grading.write_text(json.dumps({"moduli": [2], "components": {"0": [0, 1]}}))
    code, _, err = run(capsys, "check", "--ring", "z4", "--property", "grading-valid",
                       "--grading", str(grading))
    assert code == 1 and "error:" in err and "malformed-document" in err


@pytest.mark.parametrize("elem", [99, -1])
def test_out_of_range_grading_element_is_an_input_error(tmp_path, capsys, elem):
    grading = tmp_path / "grading.json"
    grading.write_text(json.dumps({"moduli": [1], "components": [
        {"degree": [0], "elements": [0, 1, 2, 3, elem]},
    ]}))
    code, _, err = run(capsys, "check", "--ring", "z4", "--property", "em-graded",
                       "--grading", str(grading))
    assert code == 1 and "element id out of range for order 4" in err


def test_poly_literal_parser(e1):
    assert parse_poly_literal(e1, "[2,4]").coeffs == (2, 4)
    assert parse_poly_literal(e1, "2+Y*x").coeffs == (2, 4)
    assert parse_poly_literal(e1, "Y+3Y*x").coeffs == (4, 12)
    assert parse_poly_literal(e1, "2+Y").coeffs == (6,)  # compound label constant
    assert parse_poly_literal(e1, "1+x^2").coeffs == (1, 0, 1)
    assert poly_str(parse_poly_literal(e1, "3Y*x^3")) == "3Y*x^3"
    with pytest.raises(ValueError):
        parse_poly_literal(e1, "5Q+x")
    with pytest.raises(ValueError):
        parse_poly_literal(e1, "[99]")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_poly_literal_in_the_printed_variable(capsys, fmt):
    """Over z4-xn-3 poly_str writes the variable as t, since the labels use
    x; the literal it prints is read back as the same polynomial."""
    outputs = [
        run(capsys, "find-content", "--ring", "z4-xn-3", "--poly", poly, "--format", fmt)
        for poly in ("[4,2]", "x+2*t")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and "x + 2*t" in outputs[0][1]


def test_poly_literal_round_trips_poly_str():
    """parse_poly_literal reads back what poly_str prints, for every
    polynomial of degree <= 2 with two nonzero coefficients whose labels
    poly_str prints bare (no '+' or '/'), on every preset of order <= 64."""
    checked = 0
    for name in preset_names():
        ring, _ = build_preset(name)
        if ring.order > 64:
            continue
        plain = [c for c in ring.elements()
                 if c != ring.zero and not {"+", "/"} & set(ring.label(c))]
        for a, b in itertools.product(plain, repeat=2):
            for coeffs in ([a, b], [a, 0, b], [0, a, b]):
                f = polynomial(ring, coeffs)
                assert parse_poly_literal(ring, poly_str(f)) == f, (name, coeffs, poly_str(f))
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("name", preset_names())
def test_describe_matches_golden(capsys, name):
    code, out, _ = run(capsys, "describe", "--ring", f"preset:{name}",
                       "--format", "json", "--no-timing")
    assert code == 0
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert json.loads(out) == expected


def test_check_matches_golden(capsys):
    """check --format json --no-timing --max-degree 2 for every property on
    every preset of order <= 216, pinned byte for byte; a cell that exits
    nonzero is pinned as its exit code."""
    expected = json.loads((GOLDEN / "check.json").read_text())
    for name, cells in expected.items():
        assert sorted(cells) == sorted(PROPERTIES), name
        for prop in PROPERTIES:
            code, out, _ = run(capsys, "check", "--ring", f"preset:{name}", "--property", prop,
                               "--format", "json", "--no-timing", "--max-degree", "2")
            assert (json.loads(out) if code == 0 else code) == cells[prop], (name, prop)


def test_suite_subcommand(capsys):
    code, out, _ = run(capsys, "suite", "--corpus", "z4,e1", "--format", "json",
                       "--no-timing")
    assert code == 0
    docs = json.loads(out)
    assert all(PropertyReport.from_dict(d).holds for d in docs)
