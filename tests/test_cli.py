import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qps import census, pg
from qps.cli import (
    BadHeader,
    DuplicatePoint,
    ParseError,
    format_point_set,
    load_point_set,
    parse_point_set,
    run,
    save_point_set,
)
from qps.forms import PolarKind, canonical_form, nucleus_point, point_set
from qps.pg import PointSet, line_through, point_set_from_indices, space_for

from line_helpers import forbid_all_lines


def canonical(fam, m, q):
    return point_set(canonical_form(PolarKind(fam, m, q), space_for(m, q)))


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def test_round_trip_canonical(tmp_path):
    s = canonical("parabolic", 4, 2)
    path = tmp_path / "q42.qps"
    save_point_set(str(path), s)
    assert load_point_set(str(path)).bits == s.bits
    text = path.read_text()
    assert text.startswith("QPS 1\nPG 4 2\n")


def test_round_trip_random_sets():
    rng = random.Random(7)
    for m, q in [(2, 3), (3, 4), (4, 2)]:
        sp = space_for(m, q)
        pts = rng.sample(range(sp.n_points), sp.n_points // 3)
        s = point_set_from_indices(sp, pts)
        assert parse_point_set(format_point_set(s)).bits == s.bits


def test_parse_accepts_comments_and_unnormalized_rows():
    s = parse_point_set("# header\nQPS 1\n\nPG 2 3\n0 2 1\n# tail\n1 0 0\n")
    sp = space_for(2, 3)
    assert s.size == 2
    assert s.contains(sp.point_index[(0, 1, 2)])


def test_parse_bad_header():
    with pytest.raises(BadHeader):
        parse_point_set("QPS 2\nPG 2 2\n")
    with pytest.raises(BadHeader):
        parse_point_set("QPS 1\n")
    with pytest.raises(BadHeader):
        parse_point_set("QPS 1\nPG two 2\n")
    with pytest.raises(BadHeader):
        parse_point_set("QPS 1\nPG 2 6\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_point_set("QPS 1\nPG 2 2\n1 0\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_point_set("QPS 1\nPG 2 2\n1 0 x\n")
    with pytest.raises(ParseError):
        parse_point_set("QPS 1\nPG 2 2\n0 0 0\n")
    with pytest.raises(ParseError):
        parse_point_set("QPS 1\nPG 2 2\n0 0 2\n")


def test_parse_duplicate_includes_scalar_multiples():
    with pytest.raises(DuplicatePoint):
        parse_point_set("QPS 1\nPG 2 2\n1 1 0\n1 1 0\n")
    with pytest.raises(DuplicatePoint):
        parse_point_set("QPS 1\nPG 2 3\n0 1 2\n0 2 1\n")


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_exit_zero_on_success(tmp_path, capsys):
    out = tmp_path / "a.qps"
    assert run(["construct", "canonical", "--kind", "parabolic", "--m", "4", "--q", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["spectrum", "--in", str(out), "--kind", "parabolic"]) == 0
    capsys.readouterr()


def test_exit_one_on_failed_verification(tmp_path, capsys):
    sp = space_for(4, 2)
    bad = point_set_from_indices(sp, range(15))
    path = tmp_path / "bad.qps"
    save_point_set(str(path), bad)
    code, rep = run_json(capsys, ["spectrum", "--in", str(path), "--kind", "parabolic", "--json"])
    assert code == 1
    assert rep["verdict"] == "not_quasi_polar"


def test_exit_two_on_usage_and_domain_errors(tmp_path, capsys):
    assert run(["spectrum"]) == 2
    capsys.readouterr()
    assert run(["census", "no-such-census"]) == 2
    capsys.readouterr()
    # parity violation is a domain error
    assert run(["construct", "canonical", "--kind", "parabolic", "--m", "3", "--q", "2", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    out = tmp_path / "c.qps"
    run(["construct", "canonical", "--kind", "parabolic", "--m", "4", "--q", "2", "--out", str(out)])
    capsys.readouterr()
    assert run(["surgery", "pivot", "--in", str(out)]) == 2
    assert "requires" in capsys.readouterr().err


def test_exit_two_when_the_incidence_is_too_large(tmp_path, capsys):
    path = tmp_path / "one.qps"
    save_point_set(str(path), point_set_from_indices(space_for(4, 16), [0]))
    start = time.perf_counter()
    assert run(["spectrum", "--in", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "incidence table" in capsys.readouterr().err


def test_construct_too_large_to_classify_writes_no_file(tmp_path, capsys, monkeypatch):
    # a cache of its own, so that the PG(7,7) of 960,800 points is freed
    monkeypatch.setattr(pg, "_SPACES", {})
    # the incidence guard refuses before the form is evaluated at every
    # point, which takes about 28 s for Q-(7,7)
    for fam, m, q in [("parabolic", 4, 16), ("elliptic", 7, 7)]:
        out = tmp_path / f"{fam}{m}{q}.qps"
        argv = ["construct", "canonical", "--kind", fam, "--m", str(m), "--q", str(q), "--out", str(out)]
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "incidence table" in captured.err
        assert not out.exists()


# sizes whose powers Python cannot evaluate in time or print in full: each
# is refused from its dimension alone, before any power of q is formed
_HUGE = {
    "construct-1e10": ("construct canonical --kind parabolic --m 10000000000 --q 2 --out {out}", 2, "PG(10000000000,2)"),
    "construct-1e8": ("construct canonical --kind parabolic --m 100000000 --q 2 --out {out}", 2, "PG(100000000,2)"),
    "file-header": ("spectrum --in {huge}", 3, "PG(10000000000,2)"),
    "census-quadrics": ("census quadrics --kind parabolic --m 1000 --q 2", 2, "PG(1000,2)"),
    "roots-1000001": ("roots --kind hyperbolic --m 1000001 --q 2", 2, "PG(1000001,2)"),
    "roots-20001": ("roots --kind hyperbolic --m 20001 --q 2", 2, "PG(20001,2)"),
}


@pytest.mark.parametrize("argv,code,name", list(_HUGE.values()), ids=list(_HUGE))
def test_huge_dimensions_are_refused_at_once(tmp_path, capsys, argv, code, name):
    huge = tmp_path / "huge.qps"
    huge.write_text("QPS 1\nPG 10000000000 2\n")
    out = tmp_path / "out.qps"
    start = time.perf_counter()
    assert run(argv.format(huge=huge, out=out).split()) == code
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name}") and captured.err.count("\n") == 1
    if "quadrics" in argv:
        assert captured.err.endswith(" classical sets exceed the enumeration cap\n")
    assert not out.exists()


@pytest.mark.parametrize("fam,q", [("hyperbolic", 2), ("elliptic", 3), ("hermitian", 4), ("hermitian", 25)])
def test_roots_up_to_their_bound_print_under_the_least_digit_limit(capsys, fam, q):
    # the largest m of the family with q^(m+1) <= 2^ROOTS_MAX_BITS prints under
    # a limit of 640 digits, the least Python allows; the next m is refused
    from qps.spectra import ROOTS_MAX_BITS

    m = int(ROOTS_MAX_BITS / math.log2(q)) - 1
    step = 1
    if fam != "hermitian":  # odd m only
        m -= (m + 1) % 2
        step = 2
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run(["roots", "--kind", fam, "--m", str(m), "--q", str(q)]) == 0
        assert "classical cardinality: " in capsys.readouterr().out
        assert run(["roots", "--kind", fam, "--m", str(m + step), "--q", str(q)]) == 2
        assert capsys.readouterr().err.startswith(f"error: PG({m + step},{q}): q^(m+1) is over 2^")
    finally:
        sys.set_int_max_str_digits(limit)


def test_q3_switch_over_the_line_budget_writes_no_file(tmp_path, capsys, monkeypatch):
    # q3-switch reads the lines through each point of its zone; in a fresh
    # PG(4,3) those are 40 ints of 44 bytes per point, so a cap of 4 KiB
    # (the incidence takes 1,936 bytes) is reached at the third point
    monkeypatch.setattr(pg, "_SPACES", {})
    q43 = tmp_path / "q43.qps"
    out = tmp_path / "out.qps"
    assert run(["construct", "canonical", "--kind", "parabolic", "--m", "4", "--q", "3", "--out", str(q43)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(pg, "MAX_TABLE_BYTES", 4096)
    argv = ["surgery", "q3-switch", "--in", str(q43), "--sub", "0,0,0,1,2;0,0,1,0,0", "--out", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: PG(4,3) lines table needs about ")
    assert captured.err.count("\n") == 1
    assert not out.exists()
    assert len(space_for(4, 3)._lines) == 2


# a classical-size quasi-polar set of Q(4,2) without a line nucleus: one
# non-singular section of the quadric switched for another of its type
NO_NUCLEUS_Q42 = (
    "00010 00011 00100 00101 00110 01000 01001 01010 01101 10011 10111 11011 11100 11101 11110"
)


# another such switch, whose elliptic sections are none of them classical sets
NO_ELLIPTIC_Q42 = (
    "00001 00010 00011 00100 00110 01000 01001 01100 01111 10001 10010 10011 10100 11000 11100"
)


def _q42_file(path, points):
    rows = "".join(" ".join(w) + "\n" for w in points.split())
    path.write_text("QPS 1\nPG 4 2\n" + rows)


def test_singular_switch_census_without_nucleus_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "no_nucleus.qps"
    _q42_file(path, NO_NUCLEUS_Q42)
    assert run(["spectrum", "--in", str(path), "--kind", "parabolic"]) == 0
    assert "verdict: classical_size" in capsys.readouterr().out
    assert run(["census", "singular-switch", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the ambient set has no line nucleus\n"


@pytest.mark.parametrize(
    "command,points,message",
    [
        (
            "nucleus-pivot",
            NO_NUCLEUS_Q42,
            "census needs the quadric: a hyperbolic switch at 6 is not quasi-polar",
        ),
        ("nonsingular-switch", NO_ELLIPTIC_Q42, "no section of size 5 is a classical elliptic set"),
    ],
    ids=["nucleus-pivot", "nonsingular-switch"],
)
def test_switch_census_of_a_non_quadric_is_a_domain_error(
    tmp_path, capsys, command, points, message
):
    # valid input that the census cannot take: exit 2, not an invariant
    # violation (exit 4)
    path = tmp_path / "switched.qps"
    _q42_file(path, points)
    argv = ["census", command, "--kind", "parabolic", "--m", "4", "--q", "2", "--in", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_nonsingular_switch_census_takes_a_classical_section(tmp_path, capsys):
    # the lex-least elliptic section of this set is not a classical set, but
    # another one is: the census switches there, and every same-type set
    # survives, as on the quadric
    path = tmp_path / "no_nucleus.qps"
    _q42_file(path, NO_NUCLEUS_Q42)
    argv = ["census", "nonsingular-switch", "--in", str(path), "--json"]
    assert run(argv) == 0
    body = json.loads(capsys.readouterr().out)["census"]
    # the lex-least elliptic hyperplane is 5; 27 is the first with a classical section
    assert body["extra"]["hyperplanes"] == {"elliptic": 27, "hyperbolic": 15}
    assert body["breakdown"] == {
        "elliptic_identity": 1,
        "elliptic_other_survivor": 167,
        "elliptic_not_quasi_polar": 0,
        "hyperbolic_identity": 1,
        "hyperbolic_other_survivor": 279,
        "hyperbolic_not_quasi_polar": 0,
    }


def test_exit_three_on_io_and_format_errors(tmp_path, capsys):
    assert run(["spectrum", "--in", str(tmp_path / "missing.qps")]) == 3
    capsys.readouterr()
    bad = tmp_path / "bad.qps"
    bad.write_text("not a point set\n")
    assert run(["spectrum", "--in", str(bad)]) == 3
    capsys.readouterr()
    bad.write_text("QPS 1\nPG 2\n")
    assert run(["spectrum", "--in", str(bad)]) == 3
    assert capsys.readouterr().err == "error: expected a 'PG m q' line\n"


@pytest.mark.parametrize(
    "text,line,byte",
    [
        (b"QPS 1\nPG 4 2\n1 0 0 0 0 # caf\xc3\xa9\n", 3, 0xC3),
        (b"QPS 1\nPG 4 2\n1 0 0 0 0\n0 1 \xb2 0 0\n", 4, 0xB2),
        (b"QPS 1\xff\nPG 4 2\n1 0 0 0 0\n", 1, 0xFF),
        (b"QPS 1\r\nPG 4 2\r\n\r\n1 0 0 0 0 \xe9\r\n", 4, 0xE9),
    ],
    ids=["comment", "coordinates", "header", "crlf"],
)
def test_non_ascii_byte_is_a_format_error(tmp_path, capsys, text, line, byte):
    bad = tmp_path / "bad.qps"
    bad.write_bytes(text)
    with pytest.raises(ParseError) as exc:
        load_point_set(str(bad))
    assert exc.value.line == line
    src = tmp_path / "q42.qps"
    save_point_set(str(src), canonical("parabolic", 4, 2))
    pivot = ["surgery", "pivot", "--in", str(src), "--kind", "parabolic", "--base", str(bad)]
    for argv in (["spectrum", "--in", str(bad)], [*pivot, "--hyperplane", "0,0,0,0,1"]):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line {line}: non-ASCII byte 0x{byte:02x}\n"


# ---------------------------------------------------------------------------
# Report schema
# ---------------------------------------------------------------------------


def test_report_format_header_first(tmp_path, capsys):
    out = tmp_path / "a.qps"
    code, rep = run_json(
        capsys,
        ["construct", "canonical", "--kind", "hyperbolic", "--m", "3", "--q", "3", "--out", str(out), "--json"],
    )
    assert code == 0
    assert list(rep)[:3] == ["format", "command", "space"]
    assert rep["format"] == "qps-report/1"
    assert rep["command"] == "construct"
    assert rep["space"] == {"m": 3, "q": 3}
    assert rep["size"] == 16
    assert rep["verdict"] == "classical_size"
    assert rep["spectrum"] == [{"size": 4, "count": 24}, {"size": 7, "count": 16}]


@pytest.mark.parametrize(
    "m,q,nucleus",
    [(6, 4, {"exists": True, "point": 1365}), (4, 9, {"exists": False, "point": None})],
    ids=["Q(6,4)", "Q(4,9)"],
)
def test_verify_conditions_without_the_line_table(tmp_path, capsys, m, q, nucleus, monkeypatch):
    # c' reads the incidence only, so verify streams no line of PG(6,4) or
    # PG(4,9) and builds none through any point.  For q even the quadric has
    # its nucleus and every flag; for q odd the tangent hyperplanes share no
    # point and, forming a dual quadric, miss some pencils
    forbid_all_lines(monkeypatch)
    sp = space_for(m, q)
    held = set(sp._lines)
    out = tmp_path / "q.qps"
    argv = ["construct", "canonical", "--kind", "parabolic", "--m", str(m), "--q", str(q)]
    assert run([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    code, rep = run_json(capsys, ["verify", "conditions", "--in", str(out), "--json"])
    assert code == 0
    even = q % 2 == 0
    tangents = (q**m - 1) // (q - 1)
    assert rep["conditions"] == {
        "a": True,
        "b": even,
        "b_prime": True,
        "c": even,
        "c_prime": even,
        "d": even,
        "d_prime": even,
        "singular_count": tangents,
        "expected_singular": tangents,
    }
    assert rep["nucleus"] == nucleus
    assert set(sp._lines) == held


def test_spectrum_verdicts(tmp_path, capsys):
    sp = space_for(3, 2)
    line_file = tmp_path / "line.qps"
    save_point_set(str(line_file), line_through(sp, 0, 1))
    code, rep = run_json(capsys, ["spectrum", "--in", str(line_file), "--kind", "elliptic", "--json"])
    assert code == 0
    assert rep["verdict"] == "exceptional_line"

    sp24 = space_for(2, 4)
    form = canonical_form(PolarKind("parabolic", 2, 4), sp24)
    hyperoval = PointSet(sp24, point_set(form).bits | 1 << nucleus_point(form))
    hfile = tmp_path / "hyperoval.qps"
    save_point_set(str(hfile), hyperoval)
    code, rep = run_json(capsys, ["spectrum", "--in", str(hfile), "--kind", "parabolic", "--json"])
    assert code == 0
    assert rep["size"] == 6
    assert rep["verdict"] == "quasi_polar"


def test_verify_conditions_report(tmp_path, capsys):
    out = tmp_path / "q42.qps"
    run(["construct", "canonical", "--kind", "parabolic", "--m", "4", "--q", "2", "--out", str(out)])
    capsys.readouterr()
    code, rep = run_json(capsys, ["verify", "conditions", "--in", str(out), "--json"])
    assert code == 0
    assert all(rep["conditions"][k] for k in ["a", "b", "b_prime", "c", "c_prime", "d", "d_prime"])
    assert rep["conditions"]["singular_count"] == 15
    assert rep["nucleus"] == {"exists": True, "point": 15}


def test_roots_json(capsys):
    code, rep = run_json(capsys, ["roots", "--kind", "elliptic", "--m", "3", "--q", "2", "--json"])
    assert code == 0
    assert rep["roots"] == {"classical": 5, "other": "3", "other_integral": True, "tag": "line"}
    code, rep = run_json(capsys, ["roots", "--kind", "hyperbolic", "--m", "3", "--q", "3", "--json"])
    assert rep["roots"] == {"classical": 16, "other": "35/2", "other_integral": False, "tag": None}
    # arithmetic only: PG(5,16), over MAX_POINTS, is never built
    code, rep = run_json(capsys, ["roots", "--kind", "hermitian", "--m", "5", "--q", "16", "--json"])
    assert code == 0
    assert rep == {
        "format": "qps-report/1",
        "command": "roots",
        "space": {"m": 5, "q": 16},
        "roots": {"classical": 279825, "other": "72439057/257", "other_integral": False, "tag": None},
    }
    assert (5, 16) not in pg._SPACES


# ---------------------------------------------------------------------------
# Surgery subcommand
# ---------------------------------------------------------------------------


def test_surgery_cone_swap_cli(tmp_path, capsys):
    src = tmp_path / "q42.qps"
    dst = tmp_path / "swapped.qps"
    run(["construct", "canonical", "--kind", "parabolic", "--m", "4", "--q", "2", "--out", str(src)])
    capsys.readouterr()
    code, rep = run_json(
        capsys,
        ["surgery", "cone-swap", "--in", str(src), "--hyperplane", "0,0,0,0,1", "--out", str(dst), "--json"],
    )
    assert code == 0
    assert rep["verdict"] == "classical_size"
    assert rep["surgery"]["construction"] == "cone-swap"
    assert rep["surgery"]["hyperplane"] == [0, 0, 0, 0, 1]
    assert load_point_set(str(dst)).size == 15


def test_surgery_affine_switch_cli(tmp_path, capsys):
    src = tmp_path / "q32.qps"
    run(["construct", "canonical", "--kind", "hyperbolic", "--m", "3", "--q", "2", "--out", str(src)])
    capsys.readouterr()
    code, rep = run_json(capsys, ["surgery", "affine-switch", "--in", str(src), "--json"])
    assert code == 0
    assert rep["size"] == 5
    assert rep["verdict"] == "classical_size"
    assert rep["surgery"]["construction"] == "affine-switch"
    assert rep["surgery"]["added"] == []


def test_surgery_oval_swap_cli(tmp_path, capsys):
    src = tmp_path / "conic.qps"
    run(["construct", "canonical", "--kind", "parabolic", "--m", "2", "--q", "4", "--out", str(src)])
    capsys.readouterr()
    s = load_point_set(str(src))
    sp = s.space
    tangent = next(
        h for h in range(sp.n_points) if (s.bits & sp.incidence[h]).bit_count() == 1
    )
    coords = ",".join(str(c) for c in sp.points[tangent])
    code, rep = run_json(capsys, ["surgery", "oval-swap", "--in", str(src), "--tangent", coords, "--json"])
    assert code == 0
    assert rep["size"] == 5
    assert rep["verdict"] in ("classical_size", "quasi_polar")


def test_surgery_repeated_pivot_on_q49_builds_no_line_table(tmp_path, capsys, monkeypatch):
    # the tangent hyperplanes are found in their own PG(3,9), so the pivot
    # streams no line of PG(4,9) and builds none through any of its points
    forbid_all_lines(monkeypatch)
    sp = space_for(4, 9)
    held = set(sp._lines)
    out = tmp_path / "q49.qps"
    assert run(["construct", "canonical", "--kind", "parabolic", "--m", "4", "--q", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    argv = ["surgery", "repeated-pivot", "--in", str(out), "--kind", "parabolic"]
    code, rep = run_json(capsys, [*argv, "--p", "0,1,0,0,0", "--r", "0,0,0,1,0", "--json"])
    assert code == 0
    assert rep["size"] == 820
    assert rep["verdict"] == "classical_size"
    assert rep["surgery"]["removed"] == rep["surgery"]["added"] == []
    assert len(rep["surgery"]["details"]["tangent_hyperplanes"]) == 10
    assert set(sp._lines) == held


# refusals no other test reaches: (argv, with {name} for the files that
# _refusal_files writes, the message after "error: ")
_REFUSALS = {
    "vec-length": ("surgery cone-swap --in {q42} --hyperplane 0,0,1", "expected 5 comma separated coordinates"),
    "vec-integer": ("surgery cone-swap --in {q42} --hyperplane 0,x,0,0,1", "coordinates must be integers"),
    "vec-range": ("surgery cone-swap --in {q42} --hyperplane 0,0,0,0,2", "coordinates must lie in [0, 2)"),
    "vec-zero": ("surgery cone-swap --in {q42} --hyperplane 0,0,0,0,0", "the zero vector names no point"),
    "base-space": (
        "surgery pivot --in {q42} --kind parabolic --hyperplane 0,0,1,0,0 --base {pg32}",
        "base file lives in a different space",
    ),
    "section-space": (
        "surgery q2-switch --in {q42} --hyperplane 1,0,0,0,0 --section {pg32}",
        "section file lives in a different space",
    ),
    "at-space": (
        "surgery repeated-pivot --in {q42} --kind parabolic --p 0,1,0,0,0 --r 0,0,0,1,0 --at 0,1,0,0,0:{pg32}",
        "base file lives in a different space",
    ),
    "at-colon": (
        "surgery repeated-pivot --in {q42} --kind parabolic --p 0,1,0,0,0 --r 0,0,0,1,0 --at 0,1,0,0,0",
        "--at expects COORDS:PATH",
    ),
    "at-off-line": (
        "surgery repeated-pivot --in {q44} --kind parabolic --p 0,1,0,0,0 --r 0,0,0,1,0 --at 1,0,0,0,0:{q44}",
        "base choice at point 1,0,0,0,0 is not on the line",
    ),
    "sub-semicolon": ("surgery q3-switch --in {q43} --sub 1,0,0,0,0", "--sub expects two dual vectors joined by ';'"),
    "sub-twice": ("surgery q3-switch --in {q43} --sub 1,0,0,0,0;1,0,0,0,0", "--sub needs two distinct hyperplanes"),
    "census-space": ("census nonsingular-switch --in {pg32}", "census needs a point set in PG(4,2)"),
    "census-hermitian-line": (
        "census nonsingular-switch --kind hermitian --m 1 --q 9",
        "nonsingular-switch needs m >= 2: its sections lie in PG(0,9)",
    ),
    "census-hyperbolic-line": (
        "census nonsingular-switch --kind hyperbolic --m 1 --q 2",
        "nonsingular-switch needs m >= 2: its sections lie in PG(0,2)",
    ),
    "census-elliptic-line": (
        "census nonsingular-switch --kind elliptic --m 1 --q 3",
        "nonsingular-switch needs m >= 2: its sections lie in PG(0,3)",
    ),
    "pivot-base-off": (
        "surgery pivot --in {q42} --kind parabolic --hyperplane 0,0,1,0,0 --base {off}",
        "base is not contained in the hyperplane",
    ),
    "q2-section-off": (
        "surgery q2-switch --in {q42} --hyperplane 1,0,0,0,0 --section {off}",
        "replacement section must lie in the hyperplane",
    ),
    "q3-sub-nonsingular": (
        "surgery q3-switch --in {q43} --sub 1,0,0,0,0;0,1,1,0,0",
        "pi_sub must be singular for the section",
    ),
    "oval-not-oval": ("surgery oval-swap --in {line24} --tangent 1,0,0", "set is not an oval"),
    "cone-swap-plane": (
        "surgery cone-swap --in {c24} --hyperplane 0,0,1",
        "operation needs even ambient dimension >= 4",
    ),
    "shifted-plane": (
        "surgery shifted-nucleus --in {c24} --hyperplane 0,0,1",
        "operation needs even ambient dimension >= 4",
    ),
    "pivot-base-kind": (
        "surgery pivot --in {c24} --kind parabolic --hyperplane 0,0,1 --base {nuc24}",
        "base kind in PG(0,4): parabolic needs even ambient dimension >= 2",
    ),
    "affine-line": ("surgery affine-switch --in {h12}", "the generators are points, so they have no wall"),
    "q2-odd": (
        "surgery q2-switch --in {e32} --hyperplane 1,0,0,0 --section {e32}",
        "ambient dimension must be even",
    ),
    "q3-odd": ("surgery q3-switch --in {e33} --sub 1,0,0,0;0,1,0,0", "ambient dimension must be even"),
}


def _refusal_files(tmp_path):
    """The files the refusal cases name: the canonical Q(4,2), Q(4,3),
    Q(4,4), conic of PG(2,4), Q+(1,2), Q-(3,2) and Q-(3,3); a point of
    PG(3,2); the point 1,0,1,0,0 of PG(4,2), off both hyperplanes the cases
    give; the conic's nucleus 1,0,0; and a line of PG(2,4)."""
    pg42 = space_for(4, 2)
    pg24 = space_for(2, 4)
    sets = {
        "q42": canonical("parabolic", 4, 2),
        "q43": canonical("parabolic", 4, 3),
        "q44": canonical("parabolic", 4, 4),
        "c24": canonical("parabolic", 2, 4),
        "h12": canonical("hyperbolic", 1, 2),
        "e32": canonical("elliptic", 3, 2),
        "e33": canonical("elliptic", 3, 3),
        "pg32": point_set_from_indices(space_for(3, 2), [0]),
        "off": point_set_from_indices(pg42, [pg42.point_index[(1, 0, 1, 0, 0)]]),
        "nuc24": point_set_from_indices(pg24, [pg24.point_index[(1, 0, 0)]]),
        "line24": line_through(pg24, 0, 1),
    }
    paths = {}
    for name, s in sets.items():
        paths[name] = tmp_path / f"{name}.qps"
        save_point_set(str(paths[name]), s)
    return paths


@pytest.mark.parametrize("argv,message", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_refusals_exit_two_with_one_error_line(tmp_path, capsys, argv, message):
    assert run(argv.format(**_refusal_files(tmp_path)).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# Census subcommand
# ---------------------------------------------------------------------------


def test_census_quadrics_csv(capsys):
    code = run(["census", "quadrics", "--kind", "elliptic", "--m", "3", "--q", "2", "--csv"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "elliptic,168"


def test_census_two_secants_json(capsys):
    code, rep = run_json(capsys, ["census", "two-secants", "--kind", "parabolic", "--m", "4", "--q", "2", "--json"])
    assert code == 0
    body = rep["census"]
    assert body["breakdown"] == {"two_secants=4": 15}
    assert body["extra"]["expected"] == 4
    assert "runtime_ms" not in body


def test_census_classical_dist_json(capsys):
    code, rep = run_json(capsys, ["census", "classical-dist", "--kind", "hermitian", "--m", "3", "--q", "4", "--json"])
    assert code == 0
    assert rep["census"]["breakdown"] == {
        "sec=1;nonsingular=4;singular=1": 90,
        "sec=3;nonsingular=2;singular=3": 240,
        "sec=5;singular=5": 27,
    }


def test_census_classical_dist_over_the_line_cap(capsys, monkeypatch):
    # PG(6,4) has 1,490,853 lines, over MAX_LINES = 2^20: the census builds
    # the incidence (3.6 MiB), then refuses the lines before the form is
    # evaluated, with one error line that names the count
    def evaluated(form):
        raise AssertionError("the form was evaluated before the line cap")

    monkeypatch.setattr(census, "point_set", evaluated)
    argv = ["census", "classical-dist", "--kind", "parabolic", "--m", "6", "--q", "4", "--json"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: PG(6,4) has 1490853 lines, over the cap of 1048576\n"


def test_census_threads_json_identical(capsys):
    c1, r1 = run_json(capsys, ["--threads", "1", "census", "nucleus-pivot", "--json"])
    c2, r2 = run_json(capsys, ["--threads", "8", "census", "nucleus-pivot", "--json"])
    assert c1 == c2 == 0
    assert r1 == r2


def test_spectrum_threads_identical(tmp_path, capsys):
    out = tmp_path / "h34.qps"
    run(["construct", "canonical", "--kind", "hermitian", "--m", "3", "--q", "4", "--out", str(out)])
    capsys.readouterr()
    _c, r1 = run_json(capsys, ["--threads", "1", "spectrum", "--in", str(out), "--json"])
    _c, r2 = run_json(capsys, ["--threads", "6", "spectrum", "--in", str(out), "--json"])
    assert r1 == r2


def test_threads_env_is_ignored(capsys, monkeypatch):
    argv = ["roots", "--kind", "elliptic", "--m", "3", "--q", "2", "--json"]
    monkeypatch.delenv("QPS_THREADS", raising=False)
    code = run(argv)
    plain = capsys.readouterr().out
    monkeypatch.setenv("QPS_THREADS", "abc")
    assert run(argv) == code == 0
    assert capsys.readouterr().out == plain


def test_threads_flag_must_be_an_integer(capsys):
    assert run(["--threads", "abc", "roots", "--kind", "elliptic", "--m", "3", "--q", "2"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Invariant violations
# ---------------------------------------------------------------------------

_DROP_FAMILY = """
from qps import census
families = census._q42_shape_families
census._q42_shape_families = lambda *a: {
    k: v for k, v in families(*a).items() if k != "cone_vertex"
}
"""


def test_invariant_violation_raises_and_exits_four(capsys, monkeypatch):
    from qps.spectra import InvariantViolated

    families = census._q42_shape_families
    monkeypatch.setattr(
        census,
        "_q42_shape_families",
        lambda *a: {k: v for k, v in families(*a).items() if k != "cone_vertex"},
    )
    assert not issubclass(InvariantViolated, ValueError)
    with pytest.raises(InvariantViolated, match="shape families"):
        census.singular_switch_census(canonical("parabolic", 4, 2))
    assert run(["census", "singular-switch", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_invariant_violation_survives_optimize_flag():
    code = _DROP_FAMILY + "import sys\nfrom qps.cli import run\nsys.exit(run(['census', 'singular-switch']))\n"
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# Installed entry point
# ---------------------------------------------------------------------------


def test_cli_import_loads_no_heavy_modules():
    # every command pays for what `import qps.cli` loads: dataclasses pulls in
    # inspect, ast and dis, and fractions pulls in decimal.  -S keeps .pth
    # files, and what they import, out of the child
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("dataclasses", "decimal", "fractions", "inspect")
    code = f"import qps.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_script_smoke(tmp_path):
    out = tmp_path / "c.qps"
    proc = subprocess.run(
        [sys.executable, "-m", "qps.cli", "construct", "canonical", "--kind", "elliptic", "--m", "3", "--q", "3", "--out", str(out), "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["format"] == "qps-report/1"
    assert rep["size"] == 10
