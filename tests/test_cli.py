from __future__ import annotations

import json
from fractions import Fraction

import pytest

import roughpart.approx as approx
import roughpart.cli as cli
import roughpart.inclusion as inclusion
from roughpart import (
    VALID_AXIOMS,
    Granulation,
    Universe,
    build_parthood,
    classify_rif,
    kappa_k0,
    rational_lower,
    rational_upper,
)
from roughpart.cli import main
from roughpart.inclusion import SWEPT_AXIOMS

STANDARD = {
    "universe": ["x1", "x2", "x3", "x4"],
    "relation": {"pairs": [["x1", "x2"], ["x2", "x3"]],
                 "closure": "tolerance"},
}


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_approx_markdown_table(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        **STANDARD, "alpha": "3/10", "k": 1,
        "sets": [["x1", "x2"], []],
        "operators": ["l", "u", "u_b", "l_alpha", "u_alpha"],
    })
    code, out, err = run(capsys, "approx", "--spec", spec)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "| set | l | u | u_b | l_alpha | u_alpha |"
    assert "| {x1,x2} | {x1,x2} | {x1,x2,x3} | {x1,x2,x3} | {x1,x2} " \
           "| {x1,x2,x3} |" in lines
    assert "| {} | {} | {} | {} | {} | {} |" in lines


def test_approx_json_and_csv_formats(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        **STANDARD, "alpha": "3/10",
        "sets": [["x1"]], "operators": ["u_alpha"],
    })
    code, out, _ = run(capsys, "approx", "--spec", spec, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["u_alpha"]
    assert payload["rows"] == [{"set": "{x1}", "u_alpha": "{x1,x2,x3}"}]
    code, out, _ = run(capsys, "approx", "--spec", spec, "--format", "csv")
    assert code == 0
    assert out == "set,u_alpha\n{x1},\"{x1,x2,x3}\"\n"


def test_default_operator_set_depends_on_the_route(tmp_path, capsys):
    by_relation = write_spec(tmp_path, {**STANDARD, "sets": [["x1"]]},
                             "rel.json")
    code, out, _ = run(capsys, "approx", "--spec", by_relation)
    assert code == 0 and "l_alpha_pt" in out.splitlines()[0]
    by_granules = write_spec(tmp_path, {
        "universe": ["x1", "x2"], "granules": [["x1"], ["x1", "x2"]],
        "sets": [["x1"]],
    }, "gran.json")
    code, out, _ = run(capsys, "approx", "--spec", by_granules)
    assert code == 0 and "l_alpha_pt" not in out.splitlines()[0]


def test_an_approx_table_checks_its_neighborhood_map_once(
        tmp_path, capsys, monkeypatch):
    """ApproxSpec checks its map once; the public pointwise operators
    still check the map they are given on every call."""
    calls = []
    check = approx._as_neighborhoods

    def counted(*args):
        calls.append(args)
        return check(*args)
    monkeypatch.setattr(approx, "_as_neighborhoods", counted)
    spec = write_spec(tmp_path, {
        **STANDARD, "alpha": "1/5",
        "operators": ["l_alpha_pt", "u_alpha_pt", "l_alpha"],
    })
    code, out, _ = run(capsys, "approx", "--spec", spec)
    assert code == 0 and len(out.splitlines()) == 2 + 16
    assert len(calls) == 1
    u = Universe(("x1", "x2"))
    nb = {"x1": u.subset(("x1",)), "x2": u.full}
    for x in u.subsets():
        approx.pointwise_lower(x, nb)
        approx.pointwise_upper(x, nb)
    assert len(calls) == 1 + 2 * 4


def test_pointwise_operators_need_the_relation_route(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "universe": ["x1", "x2"], "granules": [["x1"], ["x1", "x2"]],
        "operators": ["l_alpha_pt"],
    })
    code, out, err = run(capsys, "approx", "--spec", spec)
    assert code == 2 and out == ""
    assert "needs a relation" in err
    assert "at /operators/0" in err


def test_axioms_witness_and_classification(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "universe": ["e1", "e2", "e3", "e4"],
        "kappa": "K0",
        "axioms": ["R6"],
    })
    code, out, _ = run(capsys, "axioms", "--spec", spec)
    assert code == 0
    assert "| R6 | fails | a={e1}; b={e1}; c={e1,e2,e3,e4} |" in out
    assert out.rstrip().endswith("classes: gRIF, pRIF, qRIF, wqRIF")


def test_axioms_json_payload(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "universe": ["e1", "e2", "e3"],
        "axioms": ["R0", "R1"],
    })
    code, out, _ = run(capsys, "axioms", "--spec", spec, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == ["gRIF", "pRIF", "qRIF", "wqRIF"]
    assert [a["axiom"] for a in payload["axioms"]] == ["R0", "R1"]
    assert all(a["holds"] for a in payload["axioms"])


def test_axioms_pin_delta_on_swept_axioms_only(tmp_path, capsys):
    base = {"universe": ["e1", "e2", "e3", "e4"], "kappa": "K0"}
    _, plain, _ = run(capsys, "axioms", "--spec", write_spec(tmp_path, base),
                      "--format", "json")
    code, pinned, err = run(capsys, "axioms", "--spec",
                            write_spec(tmp_path, {**base, "delta": "1/2"},
                                       "d.json"), "--format", "json")
    assert code == 0 and err == ""
    plain, pinned = json.loads(plain), json.loads(pinned)
    assert pinned["classes"] == plain["classes"]
    assert len(pinned["axioms"]) == len(VALID_AXIOMS)
    for before, row in zip(plain["axioms"], pinned["axioms"]):
        if row["axiom"] in SWEPT_AXIOMS:
            assert row["note"] == "kappa=K0; delta=1/2"
        else:
            assert row == before


@pytest.mark.parametrize("extra, checks", [
    ({}, 14),                   # every class verdict is already swept
    ({"delta": "1/2"}, 15),     # RV is swept again over the default deltas
    ({"axioms": ["R6"]}, 6),    # R0, IR0, R2, R3 and RV are checked once
])
def test_axioms_reuse_their_verdicts_for_the_classes(tmp_path, capsys,
                                                     monkeypatch, extra,
                                                     checks):
    calls = []

    def counting(real):
        def decide(kappa, axiom, universe, *args, **kw):
            calls.append(axiom)
            return real(kappa, axiom, universe, *args, **kw)
        return decide

    # The report rows come from check_axiom, the extra class verdicts
    # from the verdict-only helper.
    for name in ("check_axiom", "_axiom_holds"):
        recorder = counting(getattr(inclusion, name))
        monkeypatch.setattr(cli, name, recorder)
        monkeypatch.setattr(inclusion, name, recorder)
    spec = write_spec(tmp_path, {"universe": ["e1", "e2", "e3"], **extra})
    code, out, _ = run(capsys, "axioms", "--spec", spec, "--format", "json")
    assert code == 0 and len(calls) == checks
    assert json.loads(out)["classes"] == \
        list(classify_rif(kappa_k0(), Universe(("e1", "e2", "e3"))))


def test_spec_errors_carry_json_pointers(tmp_path, capsys):
    bad_alpha = write_spec(tmp_path, {**STANDARD, "alpha": "1/2"}, "a.json")
    code, _, err = run(capsys, "approx", "--spec", bad_alpha)
    assert code == 2
    assert err == "error: alpha must lie in [0, 1/2) at /alpha\n"

    stray = write_spec(tmp_path, {
        "universe": ["x1", "x2"], "granules": [["x1"], ["x9"]],
    }, "b.json")
    code, _, err = run(capsys, "approx", "--spec", stray)
    assert code == 2
    assert err == "error: 'x9' is not a universe element at /granules/1/0\n"

    bad_kappa = write_spec(tmp_path, {**STANDARD, "kappa": "K7"}, "c.json")
    code, _, err = run(capsys, "approx", "--spec", bad_kappa)
    assert code == 2
    assert "unknown measure tag 'K7'" in err and "at /kappa" in err

    unknown = write_spec(tmp_path, {**STANDARD, "frobnicate": 1}, "d.json")
    code, _, err = run(capsys, "approx", "--spec", unknown)
    assert code == 2
    assert err == "error: unknown field 'frobnicate' at /frobnicate\n"

    both = write_spec(tmp_path, {**STANDARD, "granules": [["x1"]]}, "e.json")
    code, _, err = run(capsys, "approx", "--spec", both)
    assert code == 2
    assert "exactly one of 'granules' and 'relation'" in err

    code, _, err = run(capsys, "approx", "--spec",
                       str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read spec file" in err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "approx", "--spec", str(garbled))
    assert code == 2 and "invalid JSON" in err


def test_empty_universe_yields_header_only(tmp_path, capsys):
    spec = write_spec(tmp_path, {"universe": []})
    code, out, err = run(capsys, "approx", "--spec", spec)
    assert code == 0 and err == ""
    assert out == (
        "| set | l | u | u_b | l_alpha | u_alpha | neg_alpha | l_alpha_star "
        "| u_alpha_star | l_grade | l_grade_strict | u_grade |\n"
        "|" + "|".join(" --- " for _ in range(12)) + "|\n")


@pytest.mark.parametrize("command, fields", [
    ("approx", {"granules": [["x1"]]}),
    ("approx", {"relation": {"pairs": []}}),
    ("approx", {"granules": [["x1"]], "operators": ["u", "l_grade"]}),
    ("axioms", {}),
    ("parthood", {"granules": [["x1"]]}),
    ("parthood", {"granules": [["x1"]], "properties": True}),
    ("rational", {"granules": [["x1"]], "substantial": {"tag": "s3"}}),
    ("correspond", {"granules": [["x1"]]}),
])
def test_empty_universe_prints_the_columns_of_a_nonempty_one(
        tmp_path, capsys, command, fields):
    """The header-only table for no elements has the columns that the
    same spec prints on one element."""
    for fmt in ("md", "csv"):
        heads = []
        for universe in ([], ["x1"]):
            spec = write_spec(tmp_path, {**fields, "universe": universe})
            code, out, err = run(capsys, command, "--spec", spec,
                                 "--format", fmt)
            assert code == 0 and err == "", err
            heads.append(out.splitlines()[0])
        assert heads[0] == heads[1], (command, fmt)


@pytest.mark.parametrize("command, field, pointer", [
    ("approx", {"kappa": "bogus"}, "/kappa"),
    ("axioms", {"delta": "3/2"}, "/delta"),
    ("parthood", {"tags": ["s4"]}, "/tags/0"),
    ("rational", {"substantial": 3}, "/substantial"),
    ("correspond", {"alpha": "9/10"}, "/alpha"),
    ("approx", {"granules": [], "operators": ["l_alpha_pt"]},
     "/operators/0"),
])
def test_empty_universe_still_validates_its_fields(tmp_path, capsys, command,
                                                   field, pointer):
    """A bad field is refused at the same pointer whether the universe is
    empty or not."""
    nonempty = STANDARD
    if command == "axioms" or "granules" in field:
        nonempty = {"universe": STANDARD["universe"]}
    for base in ({"universe": []}, nonempty):
        spec = write_spec(tmp_path, {**base, **field})
        code, out, err = run(capsys, command, "--spec", spec)
        assert code == 2 and out == ""
        assert err.endswith(f" at {pointer}\n"), err


def test_parthood_sizes(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        **STANDARD, "alpha": "3/10", "k": 1,
        "tags": ["s3", "s5", "s5*", "s6", "s7", "s9", "s*",
                 "s0l", "s0u", "st", "pu"],
        "tset": [["x4"], ["x1", "x2"]],
    })
    code, out, _ = run(capsys, "parthood", "--spec", spec)
    assert code == 0
    rows = [line for line in out.splitlines()[2:] if line]
    assert rows == [
        "| s3 | 33 |", "| s5 | 187 |", "| s5* | 171 |", "| s6 | 33 |",
        "| s7 | 187 |", "| s9 | 137 |", "| s* | 45 |", "| s0l | 73 |",
        "| s0u | 144 |", "| st | 33 |", "| pu | 171 |",
    ]


def test_parthood_property_rows(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        **STANDARD, "alpha": "3/10", "k": 1,
        "tags": ["s3"], "properties": True,
    })
    code, out, _ = run(capsys, "parthood", "--spec", spec)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| tag | pairs | property | status | detail |"
    body = [line for line in lines[2:] if line]
    assert len(body) == 10
    assert "| s3 | 33 | symmetric | fails | a={x1,x2}; b={x1,x2,x3} |" in body
    assert ("| s3 | 33 | reflexive | conditional | reflexive exactly on "
            "sets with cardinality above the grade |") in body


def test_parthood_rejects_designated_strangers(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        **STANDARD, "tags": ["st"], "tset": [["x1", "x3"]],
    })
    code, _, err = run(capsys, "parthood", "--spec", spec)
    assert code == 2
    assert err == ("error: designated granule {x1,x3} is not in the "
                   "granulation at /tset/0\n")
    missing = write_spec(tmp_path, {**STANDARD, "tags": ["st"]}, "m.json")
    code, _, err = run(capsys, "parthood", "--spec", missing)
    assert code == 2 and "required when tags include 'st'" in err
    stranger = write_spec(tmp_path, {
        **STANDARD, "sets": [["x1"]],
        "substantial": {"tag": "st", "tset": [["x4"], ["x1", "x3"]]},
    }, "r.json")
    code, _, err = run(capsys, "rational", "--spec", stranger)
    assert code == 2
    assert err == ("error: designated granule {x1,x3} is not in the "
                   "granulation at /substantial/tset/1\n")


@pytest.mark.parametrize("command, extra", [
    ("parthood", {"tags": ["s3"]}),
    ("rational", {"substantial": {"tag": "s3"}, "sets": [["e1"]]}),
])
def test_parthood_cap_names_no_spec_field(tmp_path, capsys, command, extra):
    spec = write_spec(tmp_path, {
        "universe": [f"e{i}" for i in range(13)],
        "granules": [[f"e{i}" for i in range(13)]], **extra})
    code, _, err = run(capsys, command, "--spec", spec)
    assert code == 2
    assert err == ("error: the pairwise parthood sweep over a universe of "
                   "size 26 exceeds the cap of 24\n")


def test_rational_rows(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        **STANDARD, "alpha": "3/10",
        "substantial": {"tag": "st", "tset": [["x4"], ["x1", "x2"]]},
        "sets": [["x1", "x2", "x3", "x4"], ["x1"]],
    })
    code, out, _ = run(capsys, "rational", "--spec", spec)
    assert code == 0
    assert ("| {x1,x2,x3,x4} | lower | yes | no | {x1,x2,x3} | "
            "source={x1,x2,x3,x4} |") in out
    assert "no substantial lower value; trivial fallback" in out
    assert "no operator image qualifies" in out


RATIONAL_7 = {
    "universe": [f"e{i}" for i in range(1, 8)],
    "granules": [["e1", "e2"], ["e2", "e3", "e4"], ["e5"],
                 ["e4", "e5", "e6"], ["e1", "e6", "e7"], ["e3", "e7"]],
    "alpha": "1/5",
    "substantial": {"tag": "s3", "k": 0},
}


@pytest.mark.parametrize("mode", ["substantial", "exhaustive"])
def test_rational_reads_one_table_per_operator(tmp_path, capsys,
                                               monkeypatch, mode):
    spec = write_spec(tmp_path, {**RATIONAL_7, "mode": mode})
    calls = {"lower": 0, "upper": 0}
    real_lower, real_upper = approx.vprs_lower, approx.vprs_upper

    def lower(*a):
        calls["lower"] += 1
        return real_lower(*a)

    def upper(*a):
        calls["upper"] += 1
        return real_upper(*a)

    monkeypatch.setattr(approx, "vprs_lower", lower)
    monkeypatch.setattr(approx, "vprs_upper", upper)
    code, out, _ = run(capsys, "rational", "--spec", spec,
                       "--format", "json")
    assert code == 0
    assert calls["lower"] <= 2 * 2 ** 7 and calls["upper"] <= 2 * 2 ** 7
    monkeypatch.undo()

    # The per-set public route gives the same points.
    u = Universe(tuple(RATIONAL_7["universe"]))
    g = Granulation.of(u, [tuple(m) for m in RATIONAL_7["granules"]])
    alpha = Fraction(1, 5)
    sub = build_parthood("s3", u, g, kappa=kappa_k0(), alpha=alpha, k=0)

    def lo(x):
        return real_lower(x, g, kappa_k0(), alpha)

    def up(x):
        return real_upper(x, g, kappa_k0(), alpha)

    expected = []
    for x in u.subsets():
        for kind, res in (("lower", rational_lower(x, lo, sub, mode=mode)),
                          ("upper", rational_upper(x, up, lo, sub))):
            expected.append({
                "set": x.label(), "kind": kind, "defined": res.defined,
                "trivial": res.trivial,
                "value": "" if res.value is None else res.value.label(),
                "witnesses": "; ".join(f"{n}={e.label()}"
                                       for n, e in res.witnesses),
                "note": "; ".join(res.notes)})
    assert json.loads(out) == {"points": expected}

    # The tables stay capped at 2n <= 24.
    big = write_spec(tmp_path, {
        "universe": [f"e{i}" for i in range(13)],
        "granules": [[f"e{i}" for i in range(13)]],
        "substantial": {"tag": "s3"}, "sets": [["e1"]], "mode": mode},
        "big.json")
    code, _, err = run(capsys, "rational", "--spec", big)
    assert code == 2 and "exceeds the cap of 24" in err


def test_rational_requires_substantial(tmp_path, capsys):
    spec = write_spec(tmp_path, {**STANDARD, "sets": [["x1"]]})
    code, _, err = run(capsys, "rational", "--spec", spec)
    assert code == 2
    assert err == "error: field is required at /substantial\n"


def test_correspond_footer_and_payload(tmp_path, capsys):
    spec = write_spec(tmp_path, {**STANDARD, "alpha": "3/10", "k": 1})
    code, out, _ = run(capsys, "correspond", "--spec", spec)
    assert code == 0
    assert out.rstrip().endswith(
        "grade 1: nonrepresentable subset sizes: 0,1,2")
    code, out, _ = run(capsys, "correspond", "--spec", spec,
                       "--format", "json")
    payload = json.loads(out)
    assert payload["nonrepresentability"] == {
        "k": 1, "representable-everywhere": False,
        "nonrepresentable-sizes": "0,1,2"}
    sides = {b["side"] for b in payload["blocks"]}
    assert sides == {"upper", "lower"}
    assert all(b["verified"] for b in payload["blocks"])


def test_verify_matches_manifest_and_notes_witnesses(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "vprs-alpha",
                       "--random-count", "2")
    assert code == 0
    assert ("| uA-cmo | refuted |" in out)
    assert "e.g. a={x1,x4}; b={x1,x2,x3,x4} [standard, alpha=3/10]" in out
    assert "e.g. a={x1,x2}; b={x2,x3} [standard, alpha=1/10]" in out
    assert out.rstrip().endswith(
        "all verdicts match the expected-outcomes manifest, "
        "documented divergences included")


def test_verify_writes_deterministic_files(tmp_path, capsys):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    for path in (first, second):
        code, out, _ = run(capsys, "verify", "--suite", "parthood",
                           "--random-count", "2",
                           "--format", "json", "--out", str(path))
        assert code == 0 and out == ""
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text(encoding="utf-8"))
    assert payload["mismatches"] == []
    assert payload["result"]["suite"] == "parthood"


def test_verify_refuses_the_removed_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--threads", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --threads 1" in err
    assert "Traceback" not in err


def test_verify_flags_manifest_disagreements(capsys, monkeypatch):
    import roughpart.verify as verify_mod
    doctored = dict(verify_mod.load_expected_outcomes())
    doctored["ri-cap:lARI-cap"] = "holds"
    monkeypatch.setattr(verify_mod, "load_expected_outcomes",
                        lambda: doctored)
    code, out, _ = run(capsys, "verify", "--suite", "ri-cap",
                       "--random-count", "1")
    assert code == 1
    assert "1 verdict(s) disagree with the expected-outcomes manifest:" in out
    assert "ri-cap:lARI-cap: expected holds, got refuted" in out


def test_axioms_delta_validation(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "universe": ["e1", "e2"], "delta": "3/2",
    })
    code, _, err = run(capsys, "axioms", "--spec", spec)
    assert code == 2
    assert err == "error: threshold must lie in [0, 1] at /delta\n"


def test_alpha_must_be_exact(tmp_path, capsys):
    """A JSON float holds only the nearest binary value of 1/5, which
    moves s9 and s0u pairs across the threshold, so it is refused."""
    base = {"universe": ["a", "b", "c", "d", "e"],
            "granules": [["a"], ["a", "b", "c", "d", "e"], ["b", "c"]],
            "kappa": "K0", "tags": ["s9", "s0u"]}
    code, out, _ = run(capsys, "parthood", "--format", "json", "--spec",
                       write_spec(tmp_path, {**base, "alpha": "1/5"}))
    assert code == 0
    assert [r["pairs"] for r in json.loads(out)["relations"]] == [633, 813]
    for bad in (0.2, True, None):
        spec = write_spec(tmp_path, {**base, "alpha": bad}, "bad.json")
        code, _, err = run(capsys, "parthood", "--spec", spec)
        assert code == 2
        assert err == "error: expected a fraction string at /alpha\n"


def test_delta_must_be_exact(tmp_path, capsys):
    base = {"universe": ["e1", "e2"], "axioms": ["RV"]}
    for good in ("1/2", 1):
        spec = write_spec(tmp_path, {**base, "delta": good})
        code, _, _ = run(capsys, "axioms", "--spec", spec)
        assert code == 0
    for bad in (0.5, False, "half"):
        spec = write_spec(tmp_path, {**base, "delta": bad})
        code, _, err = run(capsys, "axioms", "--spec", spec)
        assert code == 2
        assert err == "error: expected a fraction string at /delta\n"
