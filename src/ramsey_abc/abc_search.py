"""Artificial-bee-colony minimization of the clique + independent-set fitness.

The colony is its food sources: the better half of the initial draws, each
worked by one employed bee, plus a count of onlookers. An employed bee walks
the one-edge-flip (or one-attachment-flip) neighbourhood of its source,
moving only on strict improvement; an onlooker that has picked the source
doubles its sampling. Idle onlookers pick an unfollowed source with
probability proportional to its fitness rank. A source stuck at the same
position for maxlimit rounds turns scout, loses its onlooker, and re-enters
from a fresh random position. Onlookers hold no position, so the colony
keeps their number, not an object for each.

A neighbour is a move: the one edge (or attachment) it flips, with either
its exact fitness, which is the parent's counts changed by the cliques and
independent sets through that edge (counting.flip_fitness,
attachment_flip_fitness) when it is strictly better than its source, or
None when it is not, which the scorer may settle before counting it all.
Only fresh random positions, at start-up and for scouts, are counted from
scratch. A move is applied, building the child position, only when an
employed bee accepts it; most sampled moves are rejected and never built.

Every run is a pure function of its parameters: one seeded generator drives
all sampling, so identical params reproduce identical histories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import cycle
from typing import Any

from . import bounds
from .construct import (
    ExtensionSpace,
    enumerate_triangle_free,
    mutate_extension,
    random_extension,
)
from .counting import (
    FitnessReport,
    attachment_flip_fitness,
    build_indep_cache,
    extension_fitness,
    fitness,
    flip_fitness,
    toggle_with_masks,
)
from .graph import MAX_VERTICES, Graph, toggle_edge

WITNESS_FOUND = "witness-found"
BUDGET_EXHAUSTED = "budget-exhausted"

FULL_MODE = "full"
EXTENSION_MODE = "extension"


@dataclass(frozen=True)
class SearchParams:
    """A run's parameters, checked when built. degree_range is the band
    [LO, HI] each added vertex's total degree stays in, as given (None to
    derive it). band is the one the run searches: None in full mode, which
    reads no band; in extension mode degree_range, or, given None,
    bounds.degree_range(p, q, n), raising ValueError when that needs a Ramsey
    value not exactly known or derives an empty band. band is not an init
    field, so dataclasses.replace derives it again for the copy's p, q, n."""

    p: int
    q: int
    n: int
    colony_size: int = 20
    maxlimit: int = 15
    alpha: float = 1.0
    seed: int = 0
    budget: int = 100_000
    mode: str = FULL_MODE
    degree_range: tuple[int, int] | None = None
    band: tuple[int, int] | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        for name in ("p", "q", "n", "colony_size", "maxlimit", "seed", "budget"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not _is_number(self.alpha):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        rng = self.degree_range
        if rng is not None and not (
            isinstance(rng, (tuple, list)) and len(rng) == 2
            and all(_is_int(v) for v in rng) and rng[0] <= rng[1]
        ):
            raise ValueError(f"degree_range must be two integers LO <= HI, got {rng!r}")
        if self.colony_size < 4 or self.colony_size % 2:
            raise ValueError("colony_size must be even and at least 4")
        if self.maxlimit < 1:
            raise ValueError("maxlimit must be >= 1")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.mode not in (FULL_MODE, EXTENSION_MODE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not (1 <= self.p <= self.n and 1 <= self.q <= self.n):
            raise ValueError("orders p, q must lie in 1..n")
        if self.n > MAX_VERTICES:
            raise ValueError(f"n must be at most {MAX_VERTICES}, got {self.n}")
        if rng is not None:
            rng = tuple(rng)
            object.__setattr__(self, "degree_range", rng)
        if self.mode == EXTENSION_MODE and rng is None:
            hint = "; pass degree_range (--degree-range LO..HI)"
            try:
                derived = bounds.degree_range(self.p, self.q, self.n)
            except ValueError as exc:
                raise ValueError(f"cannot derive degree_range: {exc}{hint}") from None
            if not derived.feasible:
                raise ValueError(
                    f"the derived witness band [{derived.lo}, {derived.hi}] of "
                    f"({self.p},{self.q},{self.n}) is empty{hint}"
                )
            rng = (derived.lo, derived.hi)
        object.__setattr__(self, "band", rng if self.mode == EXTENSION_MODE else None)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class Source:
    """A food source: the position its employed bee works and that
    position's fitness, the rounds it has stayed there, whether an onlooker
    follows it, and whether it has turned scout awaiting a fresh position."""

    position: Any
    fitness: FitnessReport
    staynum: int = 1
    followed: bool = False
    scout: bool = False


@dataclass(frozen=True, slots=True)
class RoundStats:
    round: int
    best_total: int
    evaluations: int
    employed: int
    onlookers: int
    scouts: int


@dataclass(frozen=True)
class SearchResult:
    best_position: Any
    best_fitness: FitnessReport
    rounds: int
    evaluations: int
    history: tuple[RoundStats, ...]
    reason: str
    accepted_moves: int = 0  # employed-phase moves to a strictly better neighbour
    scout_restarts: int = 0  # scouts re-entered from a fresh random position


class Colony:
    """Mutable search state: the food sources, the number of onlookers,
    counters, best-so-far, and the space searched, FullSpace or
    ExtensionSearch. A space has three members: fresh(rng) draws a random
    position and scores it from scratch; neighbor(position, fitness, rng)
    draws one move together with the fitness of the position it leads to,
    derived from the parent's fitness and the one edge the move flips (or
    None when no move is legal); and apply(position, move) builds that
    position. That fitness is exact when the position is strictly better
    than its source, and None otherwise, so the scorer may stop counting a
    move once it cannot improve. Only fresh checks its input; neighbor
    trusts it."""

    def __init__(self, params: SearchParams, space: FullSpace | ExtensionSearch):
        self.params = params
        self.space = space
        self.sources: list[Source] = []
        self.onlookers = 0
        self.round_no = 0
        self.evaluations = 0
        self.accepted_moves = 0
        self.scout_restarts = 0
        self.best_position: Any = None
        self.best_fitness: FitnessReport | None = None
        self.finished: str | None = None

    def spent(self) -> bool:
        """Whether the budget is used up; once it is, the run is over. The
        caller asks before its next evaluation or at the end of a round, never
        as one is charged: the draw that spends the budget still completes
        its source's step."""
        if self.evaluations < self.params.budget:
            return False
        self.finished = self.finished or BUDGET_EXHAUSTED
        return True

    def fresh(self, rng: random.Random) -> tuple[Any, FitnessReport]:
        """Draw and score a fresh position, charge the budget and offer it as best."""
        pos, rep = self.space.fresh(rng)
        self.evaluations += 1
        self.offer(pos, rep)
        return pos, rep

    def offer(self, position: Any, rep: FitnessReport) -> None:
        """Take position as best-so-far if rep is strictly better; a witness ends the run."""
        if self.best_fitness is None or rep.total < self.best_fitness.total:
            self.best_fitness = rep
            self.best_position = position
        if rep.total == 0:
            self.finished = WITNESS_FOUND

    def stats(self) -> RoundStats:
        """This round's history.csv row; its bee counts are an employed bee
        per source not awaiting its scout draw, the onlookers, and the scouts."""
        scouts = sum(src.scout for src in self.sources)
        return RoundStats(
            self.round_no, self.best_fitness.total, self.evaluations,
            len(self.sources) - scouts, self.onlookers, scouts,
        )


def default_init_density(p: int, q: int, n: int) -> float:
    """Edge probability biasing random starts toward the feasible degree band:
    midpoint of the admissible degree range over n-1, else 0.5. Needs
    n >= 2, as SearchParams checks."""
    try:
        rng = bounds.degree_range(p, q, n)
    except ValueError:
        return 0.5
    if not rng.feasible:
        return 0.5
    return min(1.0, max(0.0, (rng.lo + rng.hi) / 2 / (n - 1)))


def _random_graph(n: int, density: float, rng: random.Random) -> Graph:
    """G(n, density): pair {u, v}, u < v, is an edge iff its rng.random()
    draw, taken in (u, v) order, is below density. Each row is built
    locally, and the complement rows, which fitness reads, come with it."""
    draw = rng.random
    adj = [0] * n
    for u in range(n):
        row, bu = adj[u], 1 << u
        for v in range(u + 1, n):
            if draw() < density:
                row |= 1 << v
                adj[v] |= bu
        adj[u] = row
    return Graph._derived(n, tuple(adj))  # symmetric by construction


def _random_pair(n: int, rng: random.Random) -> tuple[int, int]:
    """Distinct u, v drawn as rng.randrange(n) and rng.randrange(n - 1),
    with v moved past u, by the draws randrange makes: getrandbits of the
    range's bit length, redrawn until it falls inside the range. n >= 2."""
    bits = rng.getrandbits
    k = n.bit_length()
    u = bits(k)
    while u >= n:
        u = bits(k)
    m = n - 1
    k = m.bit_length()
    v = bits(k)
    while v >= m:
        v = bits(k)
    if v >= u:
        v += 1
    return u, v


class FullSpace:
    """Full mode: a position is a Graph on n vertices, drawn as
    G(n, density); a move flips one vertex pair."""

    def __init__(self, p: int, q: int, n: int, density: float):
        self.p, self.q, self.n, self.density = p, q, n, density

    def fresh(self, rng: random.Random) -> tuple[Graph, FitnessReport]:
        pos = _random_graph(self.n, self.density, rng)
        return pos, fitness(pos, self.p, self.q)

    def neighbor(self, pos: Graph, rep: FitnessReport, rng: random.Random):
        u, v = _random_pair(self.n, rng)
        return (u, v), flip_fitness(pos, rep, u, v, self.p, self.q)

    def apply(self, pos: Graph, move: tuple[int, int]) -> Graph:
        return toggle_edge(pos, *move)


class ExtensionSearch:
    """Extension mode over a checked construct.ExtensionSpace, scored
    through the base's independent-set cache: fresh positions cycle
    through the inner-graph catalog, and a move flips one attachment. It
    lives here, not on ExtensionSpace, because counting imports construct."""

    def __init__(self, space: ExtensionSpace, cache, p: int, q: int):
        self.space, self.cache, self.p, self.q = space, cache, p, q
        self.cycle = cycle(range(len(space.inners)))

    def fresh(self, rng: random.Random):
        pos = random_extension(self.space, next(self.cycle), rng)
        return pos, extension_fitness(self.cache, pos, self.p, self.q)

    def neighbor(self, pos, rep: FitnessReport, rng: random.Random):
        move = mutate_extension(self.space, pos, rng)
        if move is None:
            return None
        return move, attachment_flip_fitness(self.cache, pos, rep, *move, self.p, self.q)

    def apply(self, pos, move: tuple[int, int]):
        return toggle_with_masks(pos, *move)


def extension_cache(params: SearchParams, base: Graph):
    """The base's independent-set cache for an extension search of params:
    one size for every q - |T| in 1..base.n that an added-vertex set T can
    ask of the base. It depends only on base, q and n, so runs that share
    them (a batch of seeds) can share one cache."""
    added = params.n - base.n
    return build_indep_cache(base, range(max(1, params.q - added), min(params.q, base.n) + 1))


def make_colony(
    params: SearchParams,
    base: Graph | None = None,
    cache=None,
) -> Colony:
    """A colony of params over its mode's space, no positions drawn yet.
    Full mode draws its random graphs at default_init_density. Extension
    mode checks one construct.ExtensionSpace over the inner-graph catalog,
    and, given no cache, builds extension_cache(params, base); the count
    names any size a given cache lacks."""
    p, q, n = params.p, params.q, params.n
    if params.mode == FULL_MODE:
        return Colony(params, FullSpace(p, q, n, default_init_density(p, q, n)))
    if base is None:
        raise ValueError("extension mode needs a base graph")
    added = n - base.n
    if not 1 <= added <= 7:
        raise ValueError(
            f"extension mode supports 1..7 added vertices, got n={n} over base {base.n}"
        )
    space = ExtensionSpace(base, enumerate_triangle_free(added), params.band)
    if cache is None:
        cache = extension_cache(params, base)
    return Colony(params, ExtensionSearch(space, cache, p, q))


def init_colony(
    params: SearchParams,
    rng: random.Random,
    base: Graph | None = None,
    cache=None,
) -> Colony:
    """Generate and evaluate colony_size random positions; the better half,
    earlier draws first among equals, become the food sources and the rest
    of the colony_size bees are onlookers."""
    colony = make_colony(params, base=base, cache=cache)
    scored: list[tuple[Any, FitnessReport]] = []
    for _ in range(params.colony_size):
        scored.append(colony.fresh(rng))
        if colony.finished or colony.spent():
            break
    scored.sort(key=lambda item: item[1].total)
    colony.sources = [Source(pos, rep) for pos, rep in scored[: params.colony_size // 2]]
    colony.onlookers = params.colony_size - len(colony.sources)
    return colony


def employed_phase(colony: Colony, rng: random.Random) -> None:
    """At each source that is not a scout, the employed bee (and the
    onlooker that picked it, if any) samples one move; the best sample is
    applied, replacing the source's graph, only when strictly better. A
    source at staynum >= maxlimit turns scout, and its onlooker goes idle.

    Each sample is charged to the budget unbuilt; only the applied one is
    built and offered as the colony best. No other sample could have been
    it: the colony best is never above a source's fitness, so a sample
    below it also strictly improves the source. The running best draw is
    replaced only by a total strictly below both the source's and its own,
    so the first of equal samples is kept, as offer keeps the first strict
    best. A sample scored None is at least as bad as the source, so it is
    charged but never becomes the best draw: it could be neither the applied
    move nor a witness, and the applied move and every rng draw are the same
    as if it were counted. A total of 0 ends the source's draws.
    """
    params = colony.params
    budget = params.budget
    neighbor = colony.space.neighbor
    for src in colony.sources:
        if colony.finished:
            return
        if src.scout:
            continue
        best_total = src.fitness.total
        best = None
        for _ in range(2 if src.followed else 1):
            if colony.evaluations >= budget and colony.spent():
                break
            drawn = neighbor(src.position, src.fitness, rng)
            if drawn is None:
                continue
            colony.evaluations += 1
            rep = drawn[1]
            if rep is not None and rep.total < best_total:
                best_total = rep.total
                best = drawn
                if not best_total:
                    break
        if best is not None:
            move, rep = best
            src.position = colony.space.apply(src.position, move)
            src.fitness = rep
            src.staynum = 1
            colony.accepted_moves += 1
            colony.offer(src.position, rep)
        elif not colony.finished:
            src.staynum += 1
            if src.staynum >= params.maxlimit:
                src.scout = True
                src.followed = False


def onlooker_phase(colony: Colony, rng: random.Random) -> None:
    """Each idle onlooker picks an unfollowed source with probability
    alpha * w / sum(w), where ranks over the sources that are not scouts
    give the best weight E and the worst weight 1 (earlier sources first
    among equals), and the sum runs over the sources still unfollowed. With
    alpha < 1 an onlooker may pick nobody. Idle onlookers are
    interchangeable, so each makes the same draw; none is made once every
    source is followed.

    The sources are ranked only when an onlooker is idle, which most rounds
    none is. The idle onlookers then draw from one open list of unfollowed
    sources and its integer weight total, built once: a pick deletes its
    source and subtracts its weight, leaving the list and total a rebuild
    would give, so every generator call and float is the same."""
    if colony.finished:
        return
    sources = colony.sources
    idle = colony.onlookers - sum(src.followed for src in sources)
    if idle <= 0:
        return
    ranked = sorted((src for src in sources if not src.scout),
                    key=lambda src: src.fitness.total)
    count = len(ranked)
    open_sources = [(src, count - rank) for rank, src in enumerate(ranked)
                    if not src.followed]
    total_w = sum(w for _, w in open_sources)
    alpha = colony.params.alpha
    for _ in range(idle):
        if not open_sources:
            return
        r = rng.random()
        acc = 0.0
        for i, (src, w) in enumerate(open_sources):
            acc += alpha * w / total_w
            if r < acc:
                src.followed = True
                del open_sources[i]
                total_w -= w
                break


def scout_phase(colony: Colony, rng: random.Random) -> None:
    """Each scout source abandons its graph, draws a fresh random position
    with the same generator as initialization, and is worked again by its
    employed bee."""
    for src in colony.sources:
        if colony.finished:
            return
        if not src.scout:
            continue
        if colony.spent():
            return
        src.position, src.fitness = colony.fresh(rng)
        src.scout = False
        src.staynum = 1
        colony.scout_restarts += 1


def run(
    params: SearchParams,
    base: Graph | None = None,
    cache=None,
) -> SearchResult:
    """Loop employed -> onlooker -> scout until a witness appears or the
    evaluation budget runs out. Identical params give identical results."""
    rng = random.Random(params.seed)
    colony = init_colony(params, rng, base=base, cache=cache)
    history = [colony.stats()]
    while not (colony.finished or colony.spent()):
        colony.round_no += 1
        employed_phase(colony, rng)
        if colony.finished is None:
            onlooker_phase(colony, rng)
        if colony.finished is None:
            scout_phase(colony, rng)
        assert colony.best_fitness.total <= history[-1].best_total
        history.append(colony.stats())
    return SearchResult(
        best_position=colony.best_position,
        best_fitness=colony.best_fitness,
        rounds=colony.round_no,
        evaluations=colony.evaluations,
        history=tuple(history),
        reason=colony.finished,
        accepted_moves=colony.accepted_moves,
        scout_restarts=colony.scout_restarts,
    )
