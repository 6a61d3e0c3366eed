"""Command line interface and the on-disk point set format.

Point set files ("QPS 1") are plain text: a magic line, a "PG m q" line, then
one point per line as m+1 coordinates in [0, q).  Comments start with '#'.
Machine-readable output uses the qps-report/1 JSON schema (--json).  Census
witnesses are given as indices into the canonical point order of the space;
surgery records carry coordinate rows (hyperplanes as their dual vector,
other flats as a row basis).

Exit codes: 0 success, 1 verification failed, 2 usage or domain error,
3 file or format error, 4 an internal invariant failed (a bug in qps, not a
bad input).  The global ``--threads N`` flag is accepted for compatibility
and has no effect.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census as census_lib
from .forms import FAMILIES, PolarKind, canonical_form, point_set
from .gf import SUPPORTED_ORDERS
from .pg import (
    Flat,
    PointSet,
    ProjSpace,
    normalize_point,
    null_space,
    space_for,
)
from .spectra import (
    InvariantViolated,
    cardinality_roots,
    classify,
    nucleus_conditions,
    section_type,
    spectrum,
)
from . import surgery as surgery_lib

MAGIC = "QPS 1"
REPORT_FORMAT = "qps-report/1"


class BadHeader(ValueError):
    """Point set file does not start with the magic and space lines."""


class ParseError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class DuplicatePoint(ValueError):
    def __init__(self, line: int):
        super().__init__(f"line {line}: duplicate point")
        self.line = line


_FORMAT_ERRORS = (BadHeader, ParseError, DuplicatePoint)


def parse_point_set(text: str) -> PointSet:
    rows = [(n + 1, ln.strip()) for n, ln in enumerate(text.splitlines())]
    data = [(n, ln) for n, ln in rows if ln and not ln.startswith("#")]
    if not data or data[0][1] != MAGIC:
        raise BadHeader(f"expected '{MAGIC}' on the first line")
    if len(data) < 2:
        raise BadHeader("expected a 'PG m q' line")
    parts = data[1][1].split()
    if len(parts) != 3 or parts[0] != "PG":
        raise BadHeader("expected a 'PG m q' line")
    try:
        m, q = int(parts[1]), int(parts[2])
    except ValueError:
        raise BadHeader("m and q must be integers") from None
    try:
        space = space_for(m, q)
    except ValueError as exc:
        raise BadHeader(str(exc)) from None
    bits = 0
    for no, ln in data[2:]:
        fields = ln.split()
        if len(fields) != m + 1:
            raise ParseError(f"expected {m + 1} coordinates", no)
        try:
            vec = tuple(int(x) for x in fields)
        except ValueError:
            raise ParseError("coordinates must be integers", no) from None
        if any(not 0 <= c < q for c in vec):
            raise ParseError(f"coordinates must lie in [0, {q})", no)
        if not any(vec):
            raise ParseError("the zero vector is not a point", no)
        idx = normalize_point(space, vec)
        if bits >> idx & 1:
            raise DuplicatePoint(no)
        bits |= 1 << idx
    return PointSet(space, bits)


def format_point_set(s: PointSet) -> str:
    space = s.space
    lines = [MAGIC, f"PG {space.m} {space.q}"]
    for v in s.vectors():
        lines.append(" ".join(str(c) for c in v))
    return "\n".join(lines) + "\n"


def load_point_set(path: str) -> PointSet:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        # the byte's line, with lines split as parse_point_set splits them
        line = len((raw[: exc.start].decode("ascii") + "x").splitlines())
        raise ParseError(f"non-ASCII byte 0x{raw[exc.start]:02x}", line) from None
    return parse_point_set(text)


def save_point_set(path: str, s: PointSet) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_point_set(s))


def _parse_vec(arg: str, space: ProjSpace) -> int:
    """Point or dual-vector index from a comma separated coordinate string."""
    parts = arg.split(",")
    if len(parts) != space.m + 1:
        raise ValueError(f"expected {space.m + 1} comma separated coordinates")
    try:
        vec = tuple(int(x) for x in parts)
    except ValueError:
        raise ValueError("coordinates must be integers") from None
    if any(not 0 <= c < space.q for c in vec):
        raise ValueError(f"coordinates must lie in [0, {space.q})")
    if not any(vec):
        raise ValueError("the zero vector names no point")
    return normalize_point(space, vec)


def _report(command: str, m: int, q: int) -> dict:
    return {"format": REPORT_FORMAT, "command": command, "space": {"m": m, "q": q}}


def _spectrum_entries(hist: dict[int, int]) -> list[dict]:
    return [{"size": k, "count": v} for k, v in sorted(hist.items())]


def _verdict(cls) -> str:
    if not cls.quasi_polar:
        return "not_quasi_polar"
    if cls.exceptional:
        return f"exceptional_{cls.exceptional}"
    if cls.classical_size:
        return "classical_size"
    return "quasi_polar"


def _hyperplane_types(kind: PolarKind, hist: dict[int, int]) -> dict[str, int]:
    out: dict[str, int] = {}
    for size, cnt in sorted(hist.items()):
        lab = section_type(kind, size) or f"size_{size}"
        out[lab] = out.get(lab, 0) + cnt
    return out


def _spectrum_part(rep: dict, hist: dict[int, int], cls=None, kind=None) -> list[str]:
    """Put the spectrum in rep, with the verdict given a classification and the
    hyperplane types given its kind too; return the matching human lines."""
    rep["spectrum"] = _spectrum_entries(hist)
    human = ["spectrum: " + " ".join(f"{k}:{v}" for k, v in sorted(hist.items()))]
    if cls is not None:
        rep["verdict"] = _verdict(cls)
        human.append(f"verdict: {rep['verdict']}")
    if kind is not None:
        rep["hyperplane_types"] = _hyperplane_types(kind, hist)
    return human


def _print(rep: dict, human: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(rep, indent=2))
    else:
        for line in human:
            print(line)


def _cmd_construct(args) -> int:
    kind = PolarKind(args.kind, args.m, args.q)
    space = space_for(args.m, args.q)
    # build the incidence first: a space too large to classify is refused
    # before the form is evaluated at every point, and leaves no file
    space.incidence
    s = point_set(canonical_form(kind, space))
    cls = classify(s, kind)
    save_point_set(args.out, s)
    rep = _report("construct", args.m, args.q)
    rep["size"] = s.size
    human = [f"wrote {s.size} points to {args.out}"]
    human += _spectrum_part(rep, cls.histogram, cls, kind)
    _print(rep, human, args.json)
    return 0


def _cmd_spectrum(args) -> int:
    s = load_point_set(args.infile)
    space = s.space
    rep = _report("spectrum", space.m, space.q)
    rep["size"] = s.size
    human = [f"{s.size} points in PG({space.m},{space.q})"]
    if args.kind:
        kind = PolarKind(args.kind, space.m, space.q)
        cls = classify(s, kind)
        human += _spectrum_part(rep, cls.histogram, cls, kind)
    else:
        cls = None
        human += _spectrum_part(rep, spectrum(s).histogram)
    _print(rep, human, args.json)
    return 1 if cls is not None and not cls.quasi_polar else 0


def _cmd_verify(args) -> int:
    s = load_point_set(args.infile)
    space = s.space
    rpt = nucleus_conditions(s)
    rep = _report("verify", space.m, space.q)
    rep["size"] = s.size
    rep["conditions"] = dict(rpt.flags())
    rep["conditions"]["singular_count"] = rpt.singular_count
    rep["conditions"]["expected_singular"] = rpt.expected_singular
    rep["nucleus"] = {
        "exists": rpt.nucleus_candidate is not None,
        "point": rpt.nucleus_candidate,
    }
    human = [f"{s.size} points in PG({space.m},{space.q})"]
    for k, v in rpt.flags().items():
        human.append(f"condition {k}: {'yes' if v else 'no'}")
    human.append(f"singular hyperplanes: {rpt.singular_count} of {rpt.expected_singular} expected")
    human.append(f"nucleus candidate: {rpt.nucleus_candidate}")
    _print(rep, human, args.json)
    return 0


def _file_in(path: str, space: ProjSpace, what: str) -> PointSet:
    """The point set in the file at path, which must live in space."""
    s = load_point_set(path)
    if s.space is not space:
        raise ValueError(f"{what} file lives in a different space")
    return s


def _pivot(args, s: PointSet):
    space = s.space
    kind = PolarKind(args.kind, space.m, space.q)
    base = _file_in(args.base, space, "base")
    return surgery_lib.pivot(s, kind, _parse_vec(args.hyperplane, space), base)


def _repeated_pivot(args, s: PointSet):
    space = s.space
    kind = PolarKind(args.kind, space.m, space.q)
    p = _parse_vec(args.p, space)
    r = _parse_vec(args.r, space)
    choices: dict[int, PointSet] = {}
    for entry in args.at or []:
        coords, _, path = entry.partition(":")
        if not path:
            raise ValueError("--at expects COORDS:PATH")
        rr = _parse_vec(coords, space)
        choices[rr] = _file_in(path, space, "base")
    return surgery_lib.repeated_pivot(s, kind, p, r, choices)


def _q2_switch(args, s: PointSet):
    pi = _parse_vec(args.hyperplane, s.space)
    return surgery_lib.nonsingular_switch_q2(s, pi, _file_in(args.section, s.space, "section"))


def _q3_switch(args, s: PointSet):
    space = s.space
    first, _, second = args.sub.partition(";")
    if not second:
        raise ValueError("--sub expects two dual vectors joined by ';'")
    xi = _parse_vec(first, space)
    h2 = _parse_vec(second, space)
    if xi == h2:
        raise ValueError("--sub needs two distinct hyperplanes")
    pi_sub = Flat(space, null_space(space.f, [space.points[xi], space.points[h2]]))
    return surgery_lib.internal_switch_q3(s, xi, pi_sub)


# each surgery operation: the flags it requires, the family its result is
# classified as (None: the --kind given), and the handler that parses those
# flags, in order, and returns (result, record)
_SURGERY_OPS = {
    "pivot": (("kind", "hyperplane", "base"), None, _pivot),
    "cone-swap": (
        ("hyperplane",),
        "parabolic",
        lambda args, s: surgery_lib.cone_swap(s, _parse_vec(args.hyperplane, s.space)),
    ),
    "repeated-pivot": (("kind", "p", "r"), None, _repeated_pivot),
    "affine-switch": ((), "elliptic", lambda args, s: surgery_lib.affine_switch(s)),
    "q2-switch": (("hyperplane", "section"), "parabolic", _q2_switch),
    "q3-switch": (("sub",), "parabolic", _q3_switch),
    "oval-swap": (
        ("tangent",),
        "parabolic",
        lambda args, s: surgery_lib.oval_nucleus_swap(s, _parse_vec(args.tangent, s.space)),
    ),
    "shifted-nucleus": (
        ("hyperplane",),
        "parabolic",
        lambda args, s: surgery_lib.shifted_nucleus_pivot(s, _parse_vec(args.hyperplane, s.space)),
    ),
}


def _cmd_surgery(args) -> int:
    s = load_point_set(args.infile)
    space = s.space
    _, family, handler = _SURGERY_OPS[args.op]
    res, rec = handler(args, s)
    kind = PolarKind(family or args.kind, space.m, space.q)
    if args.out:
        save_point_set(args.out, res)
    cls = classify(res, kind)
    rep = _report("surgery", space.m, space.q)
    rep["size"] = res.size
    human = [
        f"{rec.kind}: removed {rec.removed.size}, added {rec.added.size}",
        f"result: {res.size} points",
        *_spectrum_part(rep, cls.histogram, cls),
    ]
    rep["surgery"] = rec.to_dict()
    if args.out:
        human.append(f"wrote result to {args.out}")
    _print(rep, human, args.json)
    return 0 if cls.quasi_polar else 1


def _census_input(args, kind: PolarKind) -> PointSet:
    """The --in point set, which must live in the kind's space, else the canonical set."""
    if args.infile:
        s = load_point_set(args.infile)
        if (s.space.m, s.space.q) != (kind.m, kind.q):
            raise ValueError(f"census needs a point set in PG({kind.m},{kind.q})")
        return s
    return point_set(canonical_form(kind, space_for(kind.m, kind.q)))


def _kind(args) -> PolarKind:
    return PolarKind(args.kind, args.m, args.q)


def _nonsingular_switch(args) -> census_lib.CensusResult:
    kind = _kind(args)
    census_lib._section_kinds(kind)  # the cap, before any space is built
    return census_lib.nonsingular_switch_census(_census_input(args, kind), kind)


_Q42 = PolarKind("parabolic", 4, 2)
# each census by name, run from the parsed arguments; the two Q(4,2)
# censuses read no --kind, --m or --q
_CENSUSES = {
    "nucleus-pivot": lambda args: census_lib.nucleus_pivot_census(_census_input(args, _Q42)),
    "singular-switch": lambda args: census_lib.singular_switch_census(_census_input(args, _Q42)),
    "nonsingular-switch": _nonsingular_switch,
    "quadrics": lambda args: census_lib.quadrics_census(_kind(args)),
    "classical-dist": lambda args: census_lib.classical_dist_census(_kind(args)),
    "two-secants": lambda args: census_lib.two_secant_census(_kind(args)),
}


def _cmd_census(args) -> int:
    result = _CENSUSES[args.name](args)
    rep = _report("census", result.m, result.q)
    rep["census"] = result.to_dict()
    human = [f"census {result.name} over PG({result.m},{result.q})"]
    human.append(f"candidates: {result.total_candidates}")
    for k, v in result.breakdown.items():
        human.append(f"  {k}: {v}")
    if args.csv:
        for k, v in result.breakdown.items():
            print(f"{k},{v}")
        return 0
    _print(rep, human, args.json)
    return 0


def _cmd_roots(args) -> int:
    kind = PolarKind(args.kind, args.m, args.q)
    rr = cardinality_roots(kind)
    rep = _report("roots", args.m, args.q)
    rep["roots"] = {
        "classical": rr.classical_root,
        "other": str(rr.other_root),
        "other_integral": rr.other_integral,
        "tag": rr.tag,
    }
    human = [
        f"classical cardinality: {rr.classical_root}",
        f"other root: {rr.other_root}",
        f"integral: {'yes' if rr.other_integral else 'no'}"
        + (f" ({rr.tag})" if rr.tag else ""),
    ]
    _print(rep, human, args.json)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qps",
        description="quasi-polar point sets in PG(m, q): build, check, switch",
    )
    ap.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a canonical classical point set")
    p.add_argument("what", choices=["canonical"])
    p.add_argument("--kind", required=True, choices=FAMILIES)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--q", required=True, type=int, choices=SUPPORTED_ORDERS)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("spectrum", help="hyperplane intersection spectrum of a file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", choices=FAMILIES)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="nucleus condition flags for a point set")
    p.add_argument("what", choices=["conditions"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("surgery", help="switching operations")
    p.add_argument("op", choices=list(_SURGERY_OPS))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--kind", choices=FAMILIES)
    p.add_argument("--hyperplane", help="dual vector, comma separated coordinates")
    p.add_argument("--base", help="point set file with the replacement base")
    p.add_argument("--section", help="point set file with the replacement section")
    p.add_argument("--sub", help="two dual vectors joined by ';'")
    p.add_argument("--tangent", help="dual vector of the tangent line")
    p.add_argument("--p", help="first line point, comma separated coordinates")
    p.add_argument("--r", help="second line point, comma separated coordinates")
    p.add_argument(
        "--at",
        action="append",
        help="COORDS:PATH replacement base for one line point (repeatable)",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("census", help="exhaustive desk-scale censuses")
    p.add_argument("name", choices=list(_CENSUSES))
    p.add_argument("--in", dest="infile")
    p.add_argument("--kind", choices=FAMILIES, default="parabolic")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--q", type=int, default=2, choices=SUPPORTED_ORDERS)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("roots", help="both roots of the forced cardinality quadratic")
    p.add_argument("--kind", required=True, choices=FAMILIES)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--q", required=True, type=int, choices=SUPPORTED_ORDERS)
    p.add_argument("--json", action="store_true")
    return ap


def run(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "surgery":
        missing = [a for a in _SURGERY_OPS[args.op][0] if getattr(args, a) is None]
        if missing:
            print(
                f"error: {args.op} requires --" + ", --".join(missing),
                file=sys.stderr,
            )
            return 2
    handlers = {
        "construct": _cmd_construct,
        "spectrum": _cmd_spectrum,
        "verify": _cmd_verify,
        "surgery": _cmd_surgery,
        "census": _cmd_census,
        "roots": _cmd_roots,
    }
    try:
        return handlers[args.command](args)
    except _FORMAT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolated as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
