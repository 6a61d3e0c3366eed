"""Byte-for-byte CLI output checks against stored golden files.

Each case runs one `qps` command in-process and compares its stdout, and the
file it writes with `--out`, with `tests/data/golden/<case>.json` and
`<case>.qps`.  The golden files pin the `--json` bodies of the `test_15`
commands, of `construct` and of all eight surgeries on fixed inputs (pivot
also on Q(4,4), H(3,4) and Q+(5,2), repeated pivot also on Q(4,4)), so a
refactor that changes any scan order or tie-break shows up here.

To write the files of new cases, run the module with no arguments; it writes
only the cases whose files are missing, so no existing file is touched:

    PYTHONPATH=src python tests/test_golden.py

Rewrite named cases only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]
"""

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

from qps import pg
from qps.cli import run, save_point_set
from qps.pg import point_set_from_indices, space_for

GOLDEN = Path(__file__).parent / "data" / "golden"

# canonical inputs, written by `qps construct`
CANONICAL = {
    "q42": ("parabolic", 4, 2),
    "q43": ("parabolic", 4, 3),
    "q44": ("parabolic", 4, 4),
    "h32": ("hyperbolic", 3, 2),
    "h52": ("hyperbolic", 5, 2),
    "u34": ("hermitian", 3, 4),
    "c24": ("parabolic", 2, 4),
    "c32": ("parabolic", 2, 32),
}

# replacement pieces for the surgeries that take a point set file
POINT_FILES = {
    "pivot_base": (4, 2, [(0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)]),
    "repeated_base": (4, 2, [(0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0)]),
    # a conic in a plane of the singular solid other than the section's mu
    "pivot_base_q44": (
        4,
        4,
        [(0, 1, 2, 2, 0), (0, 1, 3, 3, 0), (1, 0, 0, 0, 0), (1, 0, 1, 1, 0), (1, 1, 0, 0, 0)],
    ),
    # a Hermitian H(1,4) on a line of the singular plane other than mu
    "pivot_base_u34": (3, 4, [(0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 1, 1)]),
    # a Q+(3,2) in a solid of the singular hyperplane other than mu
    "pivot_base_h52": (
        5,
        2,
        [
            (0, 0, 1, 0, 0, 0), (0, 0, 1, 1, 1, 0), (0, 1, 0, 0, 0, 0),
            (0, 1, 0, 1, 1, 0), (0, 1, 1, 1, 1, 0), (1, 0, 0, 0, 0, 0),
            (1, 0, 0, 1, 1, 0), (1, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0),
        ],
    ),
    "repeated_base_q44": (
        4,
        4,
        [(0, 0, 1, 0, 0), (0, 1, 1, 0, 0), (1, 1, 1, 0, 0), (1, 2, 0, 0, 0), (1, 3, 0, 0, 0)],
    ),
    "q2_section": (
        4,
        2,
        [(0, 0, 1, 1, 1), (0, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 0, 0, 1), (1, 0, 0, 1, 0)],
    ),
}

CASES = {
    # the test_15 commands
    "census_nucleus_pivot": ["census", "nucleus-pivot", "--json"],
    "census_singular_switch": ["census", "singular-switch", "--json"],
    "census_nonsingular_switch_h33": [
        "census", "nonsingular-switch", "--kind", "hyperbolic", "--m", "3", "--q", "3", "--json",
    ],
    # censuses whose switches have survivors other than the identity
    "census_nonsingular_switch_q43": [
        "census", "nonsingular-switch", "--kind", "parabolic", "--m", "4", "--q", "3", "--json",
    ],
    "census_nonsingular_switch_e52": [
        "census", "nonsingular-switch", "--kind", "elliptic", "--m", "5", "--q", "2", "--json",
    ],
    "census_quadrics_e32": ["census", "quadrics", "--kind", "elliptic", "--m", "3", "--q", "2", "--json"],
    "census_classical_dist_h34": [
        "census", "classical-dist", "--kind", "hermitian", "--m", "3", "--q", "4", "--json",
    ],
    "census_classical_dist_e53": [
        "census", "classical-dist", "--kind", "elliptic", "--m", "5", "--q", "3", "--json",
    ],
    "census_two_secants": ["census", "two-secants", "--json"],
    "spectrum_q42": ["spectrum", "--in", "{q42}", "--kind", "parabolic", "--json"],
    "verify_q42": ["verify", "conditions", "--in", "{q42}", "--json"],
    # condition c' both ways: true on the canonical Q(4,4), false after a cone swap
    "verify_q44": ["verify", "conditions", "--in", "{q44}", "--json"],
    "verify_cone_swap_q44": [
        "verify", "conditions", "--in", str(GOLDEN / "surgery_cone_swap_q44.qps"), "--json",
    ],
    # the largest plane: every line and hyperplane of PG(2,32)
    "verify_c32": ["verify", "conditions", "--in", "{c32}", "--json"],
    "roots_h33": ["roots", "--kind", "hyperbolic", "--m", "3", "--q", "3", "--json"],
    # construct
    "construct_q42": [
        "construct", "canonical", "--kind", "parabolic", "--m", "4", "--q", "2", "--out", "{out}", "--json",
    ],
    "construct_h34": [
        "construct", "canonical", "--kind", "hermitian", "--m", "3", "--q", "4", "--out", "{out}", "--json",
    ],
    # the eight surgeries
    "surgery_pivot_q42": [
        "surgery", "pivot", "--in", "{q42}", "--kind", "parabolic", "--hyperplane", "0,0,0,0,1",
        "--base", "{pivot_base}", "--out", "{out}", "--json",
    ],
    "surgery_pivot_q44": [
        "surgery", "pivot", "--in", "{q44}", "--kind", "parabolic", "--hyperplane", "0,0,0,0,1",
        "--base", "{pivot_base_q44}", "--out", "{out}", "--json",
    ],
    "surgery_pivot_u34": [
        "surgery", "pivot", "--in", "{u34}", "--kind", "hermitian", "--hyperplane", "0,0,1,1",
        "--base", "{pivot_base_u34}", "--out", "{out}", "--json",
    ],
    "surgery_pivot_h52": [
        "surgery", "pivot", "--in", "{h52}", "--kind", "hyperbolic", "--hyperplane", "0,0,0,0,0,1",
        "--base", "{pivot_base_h52}", "--out", "{out}", "--json",
    ],
    "surgery_cone_swap_q42": [
        "surgery", "cone-swap", "--in", "{q42}", "--hyperplane", "0,0,0,0,1", "--out", "{out}", "--json",
    ],
    "surgery_cone_swap_q44": [
        "surgery", "cone-swap", "--in", "{q44}", "--hyperplane", "0,0,0,0,1", "--out", "{out}", "--json",
    ],
    "surgery_repeated_pivot_q42": [
        "surgery", "repeated-pivot", "--in", "{q42}", "--kind", "parabolic", "--p", "0,0,0,0,1",
        "--r", "0,0,1,0,0", "--at", "0,0,0,0,1:{repeated_base}", "--out", "{out}", "--json",
    ],
    "surgery_repeated_pivot_q44": [
        "surgery", "repeated-pivot", "--in", "{q44}", "--kind", "parabolic", "--p", "0,0,0,0,1",
        "--r", "0,0,1,0,0", "--at", "0,0,0,0,1:{repeated_base_q44}", "--out", "{out}", "--json",
    ],
    "surgery_affine_switch_h32": ["surgery", "affine-switch", "--in", "{h32}", "--out", "{out}", "--json"],
    "surgery_q2_switch_q42": [
        "surgery", "q2-switch", "--in", "{q42}", "--hyperplane", "1,0,0,1,1",
        "--section", "{q2_section}", "--out", "{out}", "--json",
    ],
    "surgery_q3_switch_q43_elliptic": [
        "surgery", "q3-switch", "--in", "{q43}", "--sub", "0,0,0,1,2;0,0,1,0,0", "--out", "{out}", "--json",
    ],
    "surgery_q3_switch_q43_hyperbolic": [
        "surgery", "q3-switch", "--in", "{q43}", "--sub", "0,0,0,1,1;0,0,1,0,0", "--out", "{out}", "--json",
    ],
    "surgery_oval_swap_c24": ["surgery", "oval-swap", "--in", "{c24}", "--tangent", "0,0,1", "--out", "{out}", "--json"],
    "surgery_shifted_nucleus_q42": [
        "surgery", "shifted-nucleus", "--in", "{q42}", "--hyperplane", "0,0,0,0,1", "--out", "{out}", "--json",
    ],
    "surgery_shifted_nucleus_q44": [
        "surgery", "shifted-nucleus", "--in", "{q44}", "--hyperplane", "0,0,0,0,1", "--out", "{out}", "--json",
    ],
}


def build_inputs(directory: Path) -> dict[str, str]:
    """Write the input files of CASES into directory; returns name -> path."""
    paths = {}
    for name, (fam, m, q) in CANONICAL.items():
        path = str(directory / f"{name}.qps")
        argv = ["construct", "canonical", "--kind", fam, "--m", str(m), "--q", str(q), "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            if run(argv) != 0:
                raise RuntimeError(f"construct {name} failed")
        paths[name] = path
    for name, (m, q, vecs) in POINT_FILES.items():
        space = space_for(m, q)
        path = str(directory / f"{name}.qps")
        save_point_set(path, point_set_from_indices(space, [space.point_index[v] for v in vecs]))
        paths[name] = path
    return paths


def run_case(name: str, inputs: dict[str, str], out: Path) -> tuple[int, str, bytes | None]:
    """Exit code, stdout and the --out file bytes (None without --out)."""
    argv = [a.format(out=out, **inputs) for a in CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    written = out.read_bytes() if "{out}" in CASES[name] else None
    return code, buf.getvalue(), written


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return build_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name, inputs, tmp_path):
    code, stdout, written = run_case(name, inputs, tmp_path / "out.qps")
    assert code == 0
    assert stdout.encode() == (GOLDEN / f"{name}.json").read_bytes()
    if written is not None:
        assert written == (GOLDEN / f"{name}.qps").read_bytes()


def test_surgeries_compute_each_hyperplane_flat_once(inputs, tmp_path, monkeypatch):
    # every hyperplane flat is built again from an empty table, each by one
    # null space of the hyperplane's single dual row
    for space in list(pg._SPACES.values()):
        monkeypatch.setattr(space, "_hyperplane_flats", {})
    null_space = pg.null_space
    calls = Counter()

    def counted(f, rows):
        if len(rows) == 1:
            calls[id(f), tuple(rows[0])] += 1
        return null_space(f, rows)

    monkeypatch.setattr(pg, "null_space", counted)
    surgeries = [name for name in CASES if name.startswith("surgery_")]
    for _ in range(2):
        for name in surgeries:
            code, stdout, written = run_case(name, inputs, tmp_path / "out.qps")
            assert code == 0
            assert stdout.encode() == (GOLDEN / f"{name}.json").read_bytes()
            assert written == (GOLDEN / f"{name}.qps").read_bytes()
    assert calls
    assert max(calls.values()) == 1


def _missing(name: str) -> bool:
    files = [f"{name}.json"] + ([f"{name}.qps"] if "{out}" in CASES[name] else [])
    return not all((GOLDEN / f).exists() for f in files)


def _write_golden(names: list[str]) -> None:
    import tempfile

    unknown = [n for n in names if n not in CASES]
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    if not names:
        names = [n for n in CASES if _missing(n)]
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = build_inputs(Path(tmp))
        for name in names:
            code, stdout, written = run_case(name, paths, Path(tmp) / "out.qps")
            if code != 0:
                raise SystemExit(f"{name} exited {code}")
            (GOLDEN / f"{name}.json").write_bytes(stdout.encode())
            if written is not None:
                (GOLDEN / f"{name}.qps").write_bytes(written)
            print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    _write_golden(sys.argv[1:])
