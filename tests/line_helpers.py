"""Helpers for tests about the lines of a whole space: the streamed lines as
bitmasks, and a guard that fails any call of ``ProjSpace.all_lines``."""

from qps.pg import ProjSpace


def line_masks(sp):
    """Every line of sp as a bitmask, in the order ``all_lines()`` streams them."""
    return tuple(sum(1 << i for i in l) for l in sp.all_lines())


def forbid_all_lines(monkeypatch):
    """Make every call of ``ProjSpace.all_lines`` raise, for a test that pins
    a computation as reading no line of the whole space."""

    def streamed(space):
        raise AssertionError(f"all_lines() called on {space!r}")

    monkeypatch.setattr(ProjSpace, "all_lines", streamed)
