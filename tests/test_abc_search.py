import copy
import dataclasses
import random

import pytest

from helpers import count_graph_builds, reference_onlooker_phase

from ramsey_abc import abc_search, dataset
from ramsey_abc.abc_search import (
    BUDGET_EXHAUSTED,
    EXTENSION_MODE,
    FULL_MODE,
    WITNESS_FOUND,
    Colony,
    ExtensionSearch,
    FullSpace,
    RoundStats,
    SearchParams,
    Source,
    _random_pair,
    default_init_density,
    employed_phase,
    extension_cache,
    init_colony,
    make_colony,
    onlooker_phase,
    run,
    scout_phase,
)
from ramsey_abc.construct import (
    DEFAULT_DEGREE_RANGE,
    ExtensionSpace,
    enumerate_triangle_free,
    extension_to_graph,
)
from ramsey_abc.counting import (
    FitnessReport,
    build_indep_cache,
    extension_fitness,
    fitness,
    flip_fitness,
)
from ramsey_abc.graph import Graph, toggle_edge


def small_params(**overrides) -> SearchParams:
    defaults = dict(p=3, q=3, n=5, colony_size=4, maxlimit=3, seed=0, budget=1000)
    defaults.update(overrides)
    return SearchParams(**defaults)


def test_params_validation():
    with pytest.raises(ValueError):
        small_params(colony_size=3)
    with pytest.raises(ValueError):
        small_params(colony_size=5)
    with pytest.raises(ValueError):
        small_params(maxlimit=0)
    with pytest.raises(ValueError):
        small_params(alpha=0.0)
    with pytest.raises(ValueError):
        small_params(alpha=1.5)
    with pytest.raises(ValueError):
        small_params(budget=0)
    with pytest.raises(ValueError):
        small_params(mode="annealing")
    with pytest.raises(ValueError):
        small_params(p=6)
    with pytest.raises(ValueError, match="at most 64"):  # no Graph holds 65 vertices
        small_params(n=65)
    with pytest.raises(ValueError, match="n must be at least 2"):  # a move needs two vertices
        small_params(p=1, q=1, n=1)
    # field types, as a config file may give them
    for bad in ({"seed": True}, {"budget": 10.0}, {"alpha": "1"},
                {"degree_range": (9, 4)}, {"degree_range": (1, 2, 3)}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            small_params(**bad)
    # a copy is built, so it is checked too
    with pytest.raises(ValueError, match="budget"):
        dataclasses.replace(small_params(), budget=0)


def test_resolved_degree_range():
    # only extension mode reads a range, and None there derives the witness bound
    assert small_params(degree_range=(1, 2)).band is None
    # full mode searches no band, though bench/ passes the default one
    assert small_params(degree_range=DEFAULT_DEGREE_RANGE).band is None
    ext = dict(q=10, mode=EXTENSION_MODE)
    assert small_params(n=39, **ext).band == (3, 9)
    assert small_params(n=40, **ext).band == (4, 9)
    assert small_params(n=39, degree_range=(5, 7), **ext).band == (5, 7)
    assert small_params(n=39, degree_range=[5, 7], **ext).band == (5, 7)
    with pytest.raises(ValueError, match="degree_range"):  # R(3,10) is not exactly known
        small_params(q=11, n=46, mode=EXTENSION_MODE)
    # bounds.degree_range(3, 5, 40) is [31, 4]: the band is empty, not the user's range
    with pytest.raises(ValueError, match=r"witness band \[31, 4\] of \(3,5,40\) is empty"):
        small_params(q=5, n=40, mode=EXTENSION_MODE)


def test_replace_derives_the_band_again():
    # a derived band belongs to its target: a copy for another n derives its own
    derived = SearchParams(3, 10, 39, mode=EXTENSION_MODE)
    assert (derived.degree_range, derived.band) == (None, (3, 9))
    moved = dataclasses.replace(derived, n=40)
    assert (moved.degree_range, moved.band) == (None, (4, 9))
    assert moved == SearchParams(3, 10, 40, mode=EXTENSION_MODE)
    # a given band is the user's and survives the copy, as it does in full mode
    given = SearchParams(3, 10, 39, mode=EXTENSION_MODE, degree_range=[5, 7])
    assert (given.degree_range, given.band) == ((5, 7), (5, 7))
    assert dataclasses.replace(given, n=40).band == (5, 7)
    full = dataclasses.replace(given, mode=FULL_MODE)
    assert (full.degree_range, full.band) == ((5, 7), None)


def test_make_colony_rejects_infeasible_inner_before_any_draw():
    # the star K1,3 (catalog index 5) has a degree-3 centre, above the ceiling 2;
    # every catalog graph is checked up front, not when a scout first draws it
    params = small_params(q=10, n=39, mode=EXTENSION_MODE, degree_range=(1, 2), budget=100000)
    with pytest.raises(ValueError, match=r"inner degrees \(3, 1, 1, 1\) exceed the ceiling"):
        make_colony(params, base=dataset.extract_base())


def test_extension_run_builds_one_space(monkeypatch):
    # the space is checked once when built; scouts draw from it unchecked
    built = []
    check = ExtensionSpace.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ExtensionSpace, "__post_init__", counted)
    params = small_params(q=4, n=12, mode=EXTENSION_MODE, degree_range=(1, 3), maxlimit=1)
    result = run(params, base=Graph.cycle(10))
    assert result.scout_restarts > 10
    assert len(built) == 1


def test_default_init_density():
    # (3,3,5): degree range [2,2] over 4 possible neighbours
    assert default_init_density(3, 3, 5) == pytest.approx(0.5)
    # unknown sub-values fall back to 0.5
    assert default_init_density(6, 6, 50) == 0.5


def test_init_split_and_order():
    rng = random.Random(0)
    colony = init_colony(small_params(q=4, n=8, budget=10_000), rng)
    assert len(colony.sources) == colony.onlookers == 2
    assert all(not src.scout and not src.followed for src in colony.sources)
    assert all(src.staynum == 1 for src in colony.sources)
    assert colony.evaluations == 4
    # the best initial draw stays with the employed half
    assert min(src.fitness.total for src in colony.sources) == colony.best_fitness.total


def test_init_deterministic():
    a = init_colony(small_params(q=4, n=8), random.Random(42))
    b = init_colony(small_params(q=4, n=8), random.Random(42))
    assert [src.fitness.total for src in a.sources] == [
        src.fitness.total for src in b.sources
    ]
    assert a.best_position == b.best_position


def test_huge_colony_stores_only_its_sources():
    # the budget stops the initial draws at 10: only those become sources,
    # and the onlookers are a count, so memory does not grow with colony_size
    params = SearchParams(p=3, q=3, n=5, colony_size=10**6, budget=10)
    colony = init_colony(params, random.Random(0))
    assert len(colony.sources) == 10
    assert colony.onlookers == 999_990
    row = run(params).history[0]
    assert (row.employed, row.onlookers, row.scouts) == (10, 999_990, 0)


def test_budget_equal_to_colony_size_returns_initial_best():
    params = small_params(q=4, n=8, colony_size=4, budget=4)
    result = run(params)
    assert result.reason == BUDGET_EXHAUSTED
    assert result.evaluations == 4
    assert result.rounds == 0
    assert result.best_fitness.total == min(
        row.best_total for row in result.history
    )


class _ScriptedSpace:
    """A controllable landscape over integer positions: a fresh position is
    100 + rng.randrange(10), the move is a step of +1, and apply records
    every step it applies."""

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.applied = []

    def fresh(self, rng):
        pos = 100 + rng.randrange(10)
        return pos, self.evaluate(pos)

    def neighbor(self, pos, rep, rng):
        return 1, self.evaluate(pos + 1)

    def apply(self, pos, step):
        self.applied.append(step)
        return pos + step


def _scripted_colony(evaluate, maxlimit=3, alpha=1.0):
    """Two sources at position 0 of a _ScriptedSpace over evaluate. Returns
    the colony and the list of moves applied to it."""
    params = SearchParams(
        p=3, q=3, n=5, colony_size=4, maxlimit=maxlimit, alpha=alpha, seed=0, budget=1000
    )
    space = _ScriptedSpace(evaluate)
    colony = Colony(params, space)
    colony.sources = [Source(0, evaluate(0)), Source(0, evaluate(0))]
    colony.onlookers = 2
    colony.best_fitness = evaluate(0)
    colony.best_position = 0
    return colony, space.applied


def _bee_counts(colony) -> tuple[int, int, int]:
    stats = colony.stats()
    return stats.employed, stats.onlookers, stats.scouts


def test_equal_fitness_neighbour_is_rejected():
    # flat landscape: neighbours tie, so the strict-improvement rule holds
    # every bee in place and staynum climbs until scout conversion
    colony, applied = _scripted_colony(lambda pos: FitnessReport(1, 0), maxlimit=3)
    rng = random.Random(0)
    employed_phase(colony, rng)
    assert [src.staynum for src in colony.sources] == [2, 2]
    assert all(src.position == 0 for src in colony.sources)
    employed_phase(colony, rng)
    assert all(src.scout for src in colony.sources)
    assert colony.accepted_moves == 0
    # a rejected move is never applied
    assert len(applied) == colony.accepted_moves


def test_improving_neighbour_is_accepted():
    # strictly decreasing landscape: every sampled neighbour wins
    colony, applied = _scripted_colony(lambda pos: FitnessReport(10 - pos, 0), maxlimit=5)
    rng = random.Random(0)
    employed_phase(colony, rng)
    for src in colony.sources:
        assert src.position == 1
        assert src.staynum == 1
        assert src.fitness.total == 9
    assert colony.accepted_moves == 2
    assert len(applied) == colony.accepted_moves
    # the first accepted move set the colony best, so its child is the best position
    assert colony.best_fitness.total == 9
    assert colony.best_position == 1


def test_stagnant_bee_turns_scout_with_maxlimit_one():
    # maxlimit=1: one failed attempt converts the source; a fresh scout draw
    # restores the employed count
    colony, applied = _scripted_colony(lambda pos: FitnessReport(1, 0), maxlimit=1)
    rng = random.Random(1)
    onlooker_phase(colony, rng)
    assert all(src.followed for src in colony.sources)
    employed_phase(colony, rng)
    assert all(src.scout for src in colony.sources)
    # scout conversion left their onlookers idle
    assert not any(src.followed for src in colony.sources)
    assert _bee_counts(colony) == (0, 2, 2)
    scout_phase(colony, rng)
    assert _bee_counts(colony) == (2, 2, 0)
    assert all(src.staynum == 1 for src in colony.sources)
    assert all(src.position >= 100 for src in colony.sources)
    assert colony.scout_restarts == 2
    assert len(applied) == colony.accepted_moves == 0


def _two_bee_colony(alpha: float, onlookers: int) -> "Colony":
    params = SearchParams(
        p=3, q=3, n=5, colony_size=4, maxlimit=5, alpha=alpha, seed=0, budget=100
    )
    colony = Colony(params, space=object())  # onlookers never touch the space
    colony.sources = [Source("a", FitnessReport(3, 0)), Source("b", FitnessReport(7, 0))]
    colony.onlookers = onlookers
    colony.best_fitness = FitnessReport(3, 0)
    return colony


def test_onlooker_selection_weights():
    # two sources (fitness 3 and 7), alpha=1: rank weights (2,1) make one
    # onlooker pick the better source with probability 2/3
    trials = 3000
    picked_best = 0
    for seed in range(trials):
        colony = _two_bee_colony(alpha=1.0, onlookers=1)
        onlooker_phase(colony, random.Random(seed))
        followed = [src.followed for src in colony.sources]
        assert sum(followed) == 1  # alpha=1 always selects
        picked_best += followed[0]
    assert 0.63 < picked_best / trials < 0.70
    # sequential selection without replacement pairs everyone up
    for seed in range(20):
        colony = _two_bee_colony(alpha=1.0, onlookers=2)
        onlooker_phase(colony, random.Random(seed))
        assert all(src.followed for src in colony.sources)


def test_onlooker_alpha_idle():
    # with alpha = 0.5 an onlooker selects nobody half the time
    trials = 3000
    idle = 0
    for seed in range(trials):
        colony = _two_bee_colony(alpha=0.5, onlookers=1)
        onlooker_phase(colony, random.Random(seed))
        idle += not any(src.followed for src in colony.sources)
    assert 0.45 < idle / trials < 0.55


def test_all_employed_followed_is_noop():
    params = small_params(q=4, n=8)
    rng = random.Random(3)
    colony = init_colony(params, rng)
    onlooker_phase(colony, rng)
    # alpha = 1 and as many onlookers as sources: everyone pairs up
    assert colony.onlookers == len(colony.sources)
    assert all(src.followed for src in colony.sources)
    rng_state = rng.getstate()
    onlooker_phase(colony, rng)
    assert all(src.followed for src in colony.sources)
    # no onlooker is idle, so no draw is made
    assert rng.getstate() == rng_state


class _UnreadFitness:
    """A fitness whose total must not be read."""

    @property
    def total(self):
        raise AssertionError("a source was ranked")


def test_no_idle_onlooker_ranks_nothing():
    # every onlooker follows a source: the phase returns before it ranks
    colony = _two_bee_colony(alpha=1.0, onlookers=2)
    for src in colony.sources:
        src.followed = True
        src.fitness = _UnreadFitness()
    rng = random.Random(5)
    rng_state = rng.getstate()
    onlooker_phase(colony, rng)
    assert all(src.followed for src in colony.sources)
    assert rng.getstate() == rng_state


def _random_onlooker_colony(rng: random.Random) -> Colony:
    alpha = rng.choice([1.0, rng.uniform(0.05, 1.0)])
    params = SearchParams(p=3, q=3, n=5, colony_size=4, alpha=alpha, budget=100)
    colony = Colony(params, space=object())  # onlookers never touch the space
    for k in range(rng.randint(1, 12)):
        src = Source(k, FitnessReport(rng.randint(0, 6), rng.randint(0, 6)))
        src.scout = rng.random() < 0.2
        src.followed = not src.scout and rng.random() < 0.4
        colony.sources.append(src)
    colony.onlookers = rng.randint(sum(src.followed for src in colony.sources), 14)
    return colony


def test_onlooker_phase_matches_the_rebuild_per_onlooker():
    # the open list built once and shrunk per pick follows the rebuild per
    # onlooker draw for draw: the same sources followed, the same rng state
    for seed in range(400):
        colony = _random_onlooker_colony(random.Random(seed))
        reference = copy.deepcopy(colony)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        onlooker_phase(colony, rng)
        reference_onlooker_phase(reference, ref_rng)
        assert [src.followed for src in colony.sources] == \
            [src.followed for src in reference.sources]
        assert rng.getstate() == ref_rng.getstate()


def test_round_stats_rows_are_slotted_tuples():
    row = RoundStats(3, 7, 120, 8, 2, 1)
    assert not hasattr(row, "__dict__")
    assert dataclasses.astuple(row) == (3, 7, 120, 8, 2, 1)
    assert [f.name for f in dataclasses.fields(row)] == [
        "round", "best_total", "evaluations", "employed", "onlookers", "scouts",
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.round = 4
    first = run(small_params(seed=2)).history[0]
    assert dataclasses.astuple(first) == (
        first.round, first.best_total, first.evaluations,
        first.employed, first.onlookers, first.scouts,
    )


def test_role_conservation_through_rounds():
    params = SearchParams(p=3, q=4, n=8, colony_size=8, maxlimit=2, seed=5, budget=2000)
    rng = random.Random(params.seed)
    colony = init_colony(params, rng)
    size = params.colony_size
    for _ in range(30):
        if colony.finished:
            break
        colony.round_no += 1
        employed_phase(colony, rng)
        assert sum(_bee_counts(colony)) == size
        if not colony.finished:
            onlooker_phase(colony, rng)
            assert sum(_bee_counts(colony)) == size
        if not colony.finished:
            scout_phase(colony, rng)
            assert sum(_bee_counts(colony)) == size
            # scouts are always re-employed immediately
            assert _bee_counts(colony)[2] == 0
        assert not any(src.followed and src.scout for src in colony.sources)


def test_run_finds_triangle_square_witness():
    result = run(SearchParams(p=3, q=3, n=5, seed=1, budget=10_000))
    assert result.reason == WITNESS_FOUND
    assert result.best_fitness.total == 0
    assert fitness(result.best_position, 3, 3).total == 0
    assert isinstance(result.best_position, Graph)


def test_run_history_monotone_and_deterministic():
    params = SearchParams(p=3, q=4, n=8, colony_size=10, maxlimit=5, seed=9, budget=50_000)
    a = run(params)
    b = run(params)
    assert a.history == b.history
    assert a.best_position == b.best_position
    totals = [row.best_total for row in a.history]
    assert all(y <= x for x, y in zip(totals, totals[1:]))
    assert a.evaluations <= params.budget


def test_accepted_moves_differ_by_one_edge():
    # trace positions of one source across rounds in full-graph mode
    params = SearchParams(p=3, q=4, n=8, colony_size=4, maxlimit=50, seed=2, budget=3000)
    rng = random.Random(params.seed)
    colony = init_colony(params, rng)
    src = colony.sources[0]
    prev = src.position
    prev_stay = src.staynum
    for _ in range(40):
        if colony.finished:
            break
        employed_phase(colony, rng)
        if src.scout:
            break
        if src.position != prev:
            diff = set(prev.edges()) ^ set(src.position.edges())
            assert len(diff) == 1
            assert src.staynum == 1
        else:
            assert src.staynum == prev_stay + 1
        prev = src.position
        prev_stay = src.staynum
        onlooker_phase(colony, rng)
        scout_phase(colony, rng)


def test_run_counts_accepted_moves_and_scout_restarts(monkeypatch):
    # a neighbour carries its fitness, so evaluate() runs only for fresh
    # random positions: the initial colony and one per scout restart; and a
    # neighbour is a move, so a child graph is built only for an accepted one
    calls = []
    toggles = []

    def counted_fitness(g, p, q):
        calls.append(g)
        return fitness(g, p, q)

    def counted_toggle(g, u, v):
        toggles.append((u, v))
        return toggle_edge(g, u, v)

    monkeypatch.setattr(abc_search, "fitness", counted_fitness)
    monkeypatch.setattr(abc_search, "toggle_edge", counted_toggle)
    params = SearchParams(p=3, q=5, n=12, colony_size=6, maxlimit=4, seed=3, budget=3000)
    rng = random.Random(params.seed)
    colony = init_colony(params, rng)
    moves = 0
    while colony.finished is None:
        before = [None if src.scout else src.position for src in colony.sources]
        employed_phase(colony, rng)
        moves += sum(pos is not None and src.position is not pos
                     for src, pos in zip(colony.sources, before))
        onlooker_phase(colony, rng)
        scout_phase(colony, rng)
        colony.spent()
    assert colony.accepted_moves == moves == len(toggles) > 0
    assert colony.scout_restarts > 0
    assert len(calls) == params.colony_size + colony.scout_restarts

    result = run(params)
    assert (result.accepted_moves, result.scout_restarts) == (
        colony.accepted_moves, colony.scout_restarts)


def test_settled_draw_is_charged_but_never_a_candidate():
    # a followed source draws twice: the first draw is settled as no better
    # (None), the second improves; only the second is applied, both are charged
    colony, applied = _scripted_colony(lambda pos: FitnessReport(10 - pos, 0), maxlimit=5)
    scores = iter([None, FitnessReport(8, 0), None])
    colony.space.neighbor = lambda pos, rep, rng: (2, next(scores))
    colony.sources[0].followed = True
    employed_phase(colony, random.Random(0))
    assert colony.evaluations == 3
    assert applied == [2] and colony.accepted_moves == 1
    first, second = colony.sources
    assert (first.position, first.fitness.total, first.staynum) == (2, 8, 1)
    assert (second.position, second.fitness.total, second.staynum) == (0, 10, 2)


@pytest.mark.parametrize(
    "second, applied_step", [(FitnessReport(7, 0), 1), (FitnessReport(6, 0), 2)],
    ids=["tie-keeps-the-first", "strictly-better-second"],
)
def test_followed_source_applies_its_best_draw(second, applied_step):
    # a followed source draws twice below its total of 10: on a tie the
    # first draw is applied, and the second only when strictly better
    colony, applied = _scripted_colony(lambda pos: FitnessReport(10 - pos, 0), maxlimit=5)
    scores = iter([(1, FitnessReport(7, 0)), (2, second), (3, None)])
    colony.space.neighbor = lambda pos, rep, rng: next(scores)
    colony.sources[0].followed = True
    employed_phase(colony, random.Random(0))
    assert colony.evaluations == 3
    assert applied == [applied_step]
    first = colony.sources[0]
    assert (first.position, first.fitness, first.staynum) == (applied_step, second, 1)


def test_run_charges_moves_settled_by_their_bound(monkeypatch):
    # every scored move costs one evaluation, whether it is strictly better
    # than its source or settled as no better (None)
    scored, settled, fresh = [], [], []

    def counted_flip(g, rep, u, v, p, q):
        out = flip_fitness(g, rep, u, v, p, q)
        assert out is None or out.total < rep.total
        scored.append(out)
        if out is None:
            settled.append((u, v))
        return out

    def counted_fitness(g, p, q):
        fresh.append(g)
        return fitness(g, p, q)

    monkeypatch.setattr(abc_search, "flip_fitness", counted_flip)
    monkeypatch.setattr(abc_search, "fitness", counted_fitness)
    params = SearchParams(p=3, q=5, n=12, colony_size=6, maxlimit=4, seed=3, budget=3000)
    result = run(params)
    assert settled
    assert result.evaluations == len(scored) + len(fresh) == params.budget

def test_run_with_no_legal_move_charges_only_fresh_positions():
    # at degree band (8, 8) no added vertex of a (3,10,36) extension has a
    # legal move: every draw is None and uncharged, so only the random starts
    # and the scouts spend the budget, and no move is ever accepted
    params = SearchParams(3, 10, 36, mode=EXTENSION_MODE, seed=0, budget=200,
                          degree_range=(8, 8))
    result = run(params, base=dataset.extract_base())
    assert result.reason == BUDGET_EXHAUSTED
    assert result.evaluations == params.colony_size + result.scout_restarts
    assert result.accepted_moves == 0


def test_best_position_has_best_fitness():
    # the colony best is reported from a move's fitness and its position is
    # built only when the move is accepted: the two must still agree exactly
    for seed in range(20):
        result = run(SearchParams(p=4, q=4, n=12, seed=seed, budget=1000))
        assert fitness(result.best_position, 4, 4) == result.best_fitness
    base = dataset.extract_base()
    cache = build_indep_cache(base, range(6, 11))
    for seed in range(3):
        params = SearchParams(p=3, q=10, n=39, mode=EXTENSION_MODE, seed=seed, budget=200,
                              degree_range=(3, 9))
        result = run(params, base=base, cache=cache)
        assert extension_fitness(cache, result.best_position, 3, 10) == result.best_fitness


def _contract_spaces():
    full = FullSpace(3, 4, 8, default_init_density(3, 4, 8))
    yield pytest.param(full, lambda pos: fitness(pos, 3, 4), id="full")
    base = Graph.cycle(10)
    params = small_params(q=4, n=13, mode=EXTENSION_MODE, degree_range=(1, 3))
    space = ExtensionSpace(base, enumerate_triangle_free(3), params.band)
    ext = ExtensionSearch(space, extension_cache(params, base), 3, 4)
    yield pytest.param(ext, lambda pos: fitness(extension_to_graph(pos), 3, 4), id="extension")


@pytest.mark.parametrize("space, scratch", _contract_spaces())
def test_space_contract(space, scratch):
    # fresh scores its position from scratch; a move's report is the exact
    # count of the position apply builds when strictly better than its
    # source, and None only when that position is no better
    rng = random.Random(11)
    drawn_inners = []
    improved = settled = 0
    for _ in range(7):
        pos, rep = space.fresh(rng)
        assert rep == scratch(pos)
        if isinstance(space, ExtensionSearch):
            drawn_inners.append(space.space.inners.index(pos.inner))
        for _ in range(30):
            drawn = space.neighbor(pos, rep, rng)
            if drawn is None:
                continue
            move, child_rep = drawn
            child = space.apply(pos, move)
            exact = scratch(child)
            if child_rep is None:
                settled += 1
                assert exact.total >= rep.total
            else:
                improved += 1
                assert child_rep == exact and child_rep.total < rep.total
                pos, rep = child, child_rep
    assert improved and settled
    if isinstance(space, ExtensionSearch):
        # consecutive fresh draws walk the catalog in order, then wrap around
        assert drawn_inners == [0, 1, 2, 0, 1, 2, 0]


def test_random_pair_is_a_vertex_pair():
    # flip_fitness trusts its pairs; this draw is the only place they come
    # from. It replays randrange(n), randrange(n - 1) on the same stream, so
    # it covers randrange over every range size 1..64
    rng, twin = random.Random(0), random.Random(0)
    for n in range(2, 65):
        for _ in range(200):
            u, v = _random_pair(n, rng)
            assert u != v and 0 <= u < n and 0 <= v < n
            a = twin.randrange(n)
            b = twin.randrange(n - 1)
            assert (u, v) == (a, b + (b >= a))
        assert rng.getstate() == twin.getstate()


def test_random_graph_hands_over_its_complement_rows():
    # the rows fitness reads come with the graph, equal to those Graph builds
    for n in (2, 12, 39):
        g = abc_search._random_graph(n, 0.3, random.Random(n))
        assert g.complement_rows == Graph(n, g.adj).complement_rows


def test_extension_run_rejects_cache_of_another_base():
    # attachment_flip_fitness trusts the cache; the first evaluation checks it
    base = Graph.cycle(10)
    cache = build_indep_cache(toggle_edge(base, 0, 5), range(1, 5))
    params = small_params(q=4, n=12, mode=EXTENSION_MODE, degree_range=(1, 3))
    with pytest.raises(ValueError, match="extension base does not match cache base"):
        run(params, base=base, cache=cache)


def test_extension_run_rejects_cache_missing_a_size():
    # a (3,4,12) count over a 10-vertex base reads base-side sizes 2..4
    base = Graph.cycle(10)
    cache = build_indep_cache(base, [3, 4])
    params = small_params(q=4, n=12, mode=EXTENSION_MODE, degree_range=(1, 3))
    with pytest.raises(ValueError, match="sizes"):
        run(params, base=base, cache=cache)


def test_full_mode_run_validates_no_graph(monkeypatch):
    # every position of a full-mode run is a random start or an accepted flip,
    # both built unchecked: the colony never pays Graph's O(n + edges) check
    checked, derived = count_graph_builds(monkeypatch)
    result = run(SearchParams(4, 4, 17, seed=0, budget=2000))
    assert result.reason == BUDGET_EXHAUSTED and result.evaluations == 2000
    assert result.accepted_moves > 0 and result.scout_restarts > 0
    assert not checked and derived
