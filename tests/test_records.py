"""The value records are named tuples: each keeps its field names and order,
is rebuilt from its fields, takes no assignment, and ``flags()`` and
``to_dict()`` give the dicts they gave as hand-written classes."""

import pytest

from qps.census import two_secant_census
from qps.forms import PolarKind, canonical_form, point_set
from qps.pg import hyperplane_flat, point_set_from_indices, space_for, subgeometry
from qps.spectra import (
    cardinality_roots,
    classify,
    nucleus_conditions,
    profile,
    singular_hyperplanes,
    spectrum,
)
from qps.surgery import oval_nucleus_swap

CONIC = PolarKind("parabolic", 2, 4)


def _conic():
    return point_set(canonical_form(CONIC, space_for(2, 4)))


def _oval_swap():
    s = _conic()
    return oval_nucleus_swap(s, singular_hyperplanes(s, CONIC)[0])[1]


# name: (sample through the public function, field names in order)
RECORDS = {
    "Spectrum": (lambda: spectrum(_conic()), "histogram per_hyperplane"),
    "SpectrumProfile": (
        lambda: profile(CONIC),
        "kind sizes singular_size expected_counts cardinality cardinality_forced",
    ),
    "Classification": (
        lambda: classify(_conic(), CONIC),
        "kind size histogram quasi_polar classical_size exceptional",
    ),
    "RootsReport": (
        lambda: cardinality_roots(PolarKind("hermitian", 2, 4)),
        "kind classical_root other_root other_integral tag",
    ),
    # three of the four points of the conic of PG(2, 3): b', c' and no other flag
    "ConditionReport": (
        lambda: nucleus_conditions(point_set_from_indices(space_for(2, 3), [0, 9, 11])),
        "size a b b_prime c c_prime d d_prime singular_count expected_singular"
        " nucleus_candidate c_candidates",
    ),
    "CensusResult": (
        lambda: two_secant_census(CONIC),
        "name m q total_candidates breakdown witnesses extra",
    ),
    "SurgeryRecord": (_oval_swap, "kind hyperplane vertex removed added details"),
    "SubGeometry": (
        lambda: subgeometry(space_for(3, 2), hyperplane_flat(space_for(3, 2), 0)),
        "flat sub to_ambient from_ambient ambient_mask",
    ),
}

# the dict views, as the hand-written classes gave them
VIEWS = {
    "ConditionReport": (
        "flags",
        {
            "a": False,
            "b": False,
            "b_prime": True,
            "c": False,
            "c_prime": True,
            "d": False,
            "d_prime": False,
        },
    ),
    "CensusResult": (
        "to_dict",
        {
            "name": "two-secants",
            "space": {"m": 2, "q": 4},
            "total_candidates": 15,
            "breakdown": {"two_secants=2": 15},
            "witnesses": {},
            "extra": {"expected": 2},
        },
    ),
    "SurgeryRecord": (
        "to_dict",
        {
            "construction": "oval-swap",
            "hyperplane": [0, 0, 1],
            "vertex": None,
            "removed": [[0, 1, 0]],
            "added": [[1, 0, 0]],
            "details": {"nucleus": [1, 0, 0]},
        },
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_are_immutable_named_tuples(name):
    build, fields = RECORDS[name]
    rec = build()
    cls = type(rec)
    assert cls.__name__ == name and isinstance(rec, tuple)
    assert cls._fields == tuple(fields.split())
    assert cls(*(getattr(rec, f) for f in cls._fields)) == rec
    for f in (*cls._fields, "note"):
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
    if name in VIEWS:
        method, view = VIEWS[name]
        assert getattr(rec, method)() == view
