import pytest

from ramsey_abc.bounds import (
    REPORTED_DEGREE_RANGES,
    degree_range,
    known_ramsey,
)


def test_exact_lookups():
    assert known_ramsey(3, 5).lower == known_ramsey(3, 5).upper == 14
    assert known_ramsey(3, 3).lower == 6
    assert known_ramsey(4, 5).lower == 25
    assert known_ramsey(7, 2).lower == 7 and known_ramsey(7, 2).exact
    assert known_ramsey(2, 9).lower == 9


def test_range_lookup():
    v = known_ramsey(3, 10)
    assert (v.lower, v.upper) == (40, 42)
    assert not v.exact and v.known


def test_unknown_pair_is_explicit():
    v = known_ramsey(6, 6)
    assert not v.known
    assert v.lower is None and v.upper is None


def test_symmetry():
    for p in range(2, 12):
        for q in range(2, 12):
            a, b = known_ramsey(p, q), known_ramsey(q, p)
            assert (a.lower, a.upper) == (b.lower, b.upper)


def test_argument_validation():
    with pytest.raises(ValueError):
        known_ramsey(1, 5)
    with pytest.raises(ValueError):
        known_ramsey(3, 0)


def test_degree_range_rejects_nonpositive_n():
    for n in (0, -5):
        with pytest.raises(ValueError, match="vertex count"):
            degree_range(3, 10, n)


def test_degree_range_values():
    assert (degree_range(3, 10, 40).lo, degree_range(3, 10, 40).hi) == (4, 9)
    assert (degree_range(5, 5, 43).lo, degree_range(5, 5, 43).hi) == (18, 24)
    assert (degree_range(3, 3, 5).lo, degree_range(3, 3, 5).hi) == (2, 2)


def test_degree_range_matches_lookup_arithmetic():
    for p, q, n in [(3, 10, 40), (5, 5, 43), (4, 6, 36), (3, 3, 5), (3, 9, 35)]:
        rng = degree_range(p, q, n)
        assert rng.lo == n - known_ramsey(p, q - 1).lower
        assert rng.hi == known_ramsey(p - 1, q).lower - 1


def test_degree_range_is_clamped_to_the_vertex_degrees():
    # below R(p, q-1) the lower bound n - R(p, q-1) is negative, and the
    # upper bound R(p-1, q) - 1 can exceed n - 1; both clamp to [0, n - 1]
    assert (degree_range(3, 10, 1).lo, degree_range(3, 10, 1).hi) == (0, 0)
    assert (degree_range(3, 10, 20).lo, degree_range(3, 10, 20).hi) == (0, 9)
    assert (degree_range(3, 4, 3).lo, degree_range(3, 4, 3).hi) == (0, 2)
    # an empty band stays empty
    rng = degree_range(3, 10, 100)
    assert (rng.lo, rng.hi, rng.feasible) == (64, 9, False)
    for n in range(1, 60):
        rng = degree_range(3, 10, n)
        assert 0 <= rng.lo and rng.hi <= n - 1
        assert rng.feasible == (n - 36 <= 9)


def test_degree_range_flags_inconsistent_reported_value():
    rng = degree_range(4, 6, 36)
    assert (rng.lo, rng.hi) == (11, 17)
    assert rng.note is not None
    assert "[11, 24]" in rng.note
    assert REPORTED_DEGREE_RANGES[(4, 6, 36)] == (11, 24)
    # the two consistent rows carry no note
    assert degree_range(3, 10, 40).note is None
    assert degree_range(5, 5, 43).note is None


def test_degree_range_requires_exact_subvalues():
    with pytest.raises(ValueError, match=r"R\(3,10\)"):
        degree_range(3, 11, 46)
    with pytest.raises(ValueError, match=r"R\(5,5\)"):
        degree_range(5, 6, 50)


def test_degree_range_membership(c5):
    rng = degree_range(3, 3, 5)
    assert all(d in rng for d in c5.degrees())
