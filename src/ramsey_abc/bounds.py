"""Known Ramsey values and the witness degree bound.

The degree bound: in an n-vertex graph with no K_p and no q-independent set,
every vertex degree d satisfies n - R(p, q-1) <= d <= R(p-1, q) - 1. A vertex
with d >= R(p-1, q) would have a neighbourhood forcing either a K_{p-1} (and
hence a K_p through the vertex) or a q-independent set; a vertex with
n - 1 - d >= R(p, q-1) forces the same among its non-neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RamseyValue:
    """Best known bounds for R(p, q); lower == upper means exactly known."""

    p: int
    q: int
    lower: int | None
    upper: int | None
    source: str = ""

    @property
    def known(self) -> bool:
        return self.lower is not None

    @property
    def exact(self) -> bool:
        return self.lower is not None and self.lower == self.upper


@dataclass(frozen=True)
class DegreeRange:
    """Admissible vertex degrees [lo, hi] for an (p, q, n) witness graph."""

    lo: int
    hi: int
    note: str | None = None

    @property
    def feasible(self) -> bool:
        return self.lo <= self.hi

    def __contains__(self, d: int) -> bool:
        return self.lo <= d <= self.hi


# Classical two-colour values and bounds, keyed by (min(p,q), max(p,q)).
_TABLE: dict[tuple[int, int], tuple[int, int, str]] = {
    (3, 3): (6, 6, "Greenwood and Gleason 1955"),
    (3, 4): (9, 9, "Greenwood and Gleason 1955"),
    (3, 5): (14, 14, "Greenwood and Gleason 1955"),
    (3, 6): (18, 18, "Graver and Yackel 1968"),
    (3, 7): (23, 23, "Kalbfleisch 1966"),
    (3, 8): (28, 28, "McKay and Min 1992"),
    (3, 9): (36, 36, "Grinstead and Roberts 1982"),
    (3, 10): (40, 42, "Exoo 1989; Goedgebeur and Radziszowski 2012"),
    (3, 11): (46, 50, "Goedgebeur and Radziszowski 2012"),
    (4, 4): (18, 18, "Greenwood and Gleason 1955"),
    (4, 5): (25, 25, "McKay and Radziszowski 1995"),
    (4, 6): (36, 41, "Exoo 2012"),
    (4, 8): (59, 84, "Exoo 2015"),
    (5, 5): (43, 49, "McKay and Radziszowski 1995"),
    (5, 10): (149, 442, "Exoo 2015"),
}

# Degree ranges as previously reported for these witness families; kept for
# cross-checking. The (4, 6, 36) row disagrees with the bound computed from
# exact sub-values and is flagged by degree_range().
REPORTED_DEGREE_RANGES: dict[tuple[int, int, int], tuple[int, int]] = {
    (3, 10, 40): (4, 9),
    (5, 5, 43): (18, 24),
    (4, 6, 36): (11, 24),
}


def known_ramsey(p: int, q: int) -> RamseyValue:
    """Table lookup for R(p, q), symmetric in its arguments.

    Pairs outside the table come back with known=False rather than a guess;
    the only synthesized values are the identities R(m, 2) = m and
    R(2, n) = n.
    """
    if p < 2 or q < 2:
        raise ValueError(f"Ramsey orders must be >= 2, got ({p}, {q})")
    lo, hi = min(p, q), max(p, q)
    if lo == 2:
        return RamseyValue(p, q, hi, hi, "identity R(m,2) = m")
    if (lo, hi) in _TABLE:
        lower, upper, source = _TABLE[(lo, hi)]
        return RamseyValue(p, q, lower, upper, source)
    return RamseyValue(p, q, None, None, "unknown")


def degree_range(p: int, q: int, n: int) -> DegreeRange:
    """Admissible degree interval [n - R(p, q-1), R(p-1, q) - 1].

    Requires both sub-values to be exactly known; a bound would silently
    widen or shrink the interval, so inexact inputs raise instead.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    down = known_ramsey(p, q - 1)
    side = known_ramsey(p - 1, q)
    missing = [f"R({v.p},{v.q})" for v in (down, side) if not v.exact]
    if missing:
        raise ValueError(
            f"degree range for ({p},{q},{n}) needs exact values for {', '.join(missing)}"
        )
    lo = n - down.lower
    hi = side.lower - 1
    note = None
    reported = REPORTED_DEGREE_RANGES.get((p, q, n))
    if reported is not None and reported != (lo, hi):
        note = (
            f"previously reported range {list(reported)} is inconsistent with the "
            f"degree bound; [{lo}, {hi}] follows from R({p},{q - 1}) = {down.lower} "
            f"and R({p - 1},{q}) = {side.lower}"
        )
    return DegreeRange(lo, hi, note)
