import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_graphs,
    brute_count_cliques,
    brute_isomorphic,
    brute_mutate_extension,
    graph_from_mask,
    random_graph,
    relabel,
)
from ramsey_abc.construct import (
    ExtensionSpace,
    ExtensionState,
    check_extension_invariants,
    decompose_extension,
    enumerate_triangle_free,
    extension_to_graph,
    mutate_extension,
    random_extension,
    serialize_extension,
    toggle_attachment,
)
from ramsey_abc.counting import count_cliques
from ramsey_abc.graph import Graph, decode_graph6


class StubRng:
    """Scripted degree draws and a fixed permutation."""

    def __init__(self, degrees, perm):
        self._degrees = list(degrees)
        self._perm = list(perm)

    def randint(self, lo, hi):
        return self._degrees.pop(0)

    def shuffle(self, items):
        items[:] = self._perm


def test_enumeration_counts():
    # labeled triangle-free classes on 1..6 vertices
    expected = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38}
    for k, count in expected.items():
        assert len(enumerate_triangle_free(k)) == count
    with pytest.raises(ValueError):
        enumerate_triangle_free(0)
    with pytest.raises(ValueError):
        enumerate_triangle_free(8)


def test_enumeration_members_triangle_free_and_distinct():
    catalog = enumerate_triangle_free(5)
    for g in catalog:
        assert count_cliques(g, 3) == 0
    for a, b in combinations(catalog, 2):
        assert not brute_isomorphic(a, b)


def test_enumeration_matches_brute_force_k4():
    # dedup all 64 labeled graphs by brute-force isomorphism
    reps = []
    for g in all_graphs(4):
        if brute_count_cliques(g, 3):
            continue
        if not any(brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    assert len(reps) == len(enumerate_triangle_free(4)) == 7


def test_enumeration_deterministic():
    first = enumerate_triangle_free(5)
    assert isinstance(first, tuple)
    assert enumerate_triangle_free(5) is first
    assert enumerate_triangle_free.__wrapped__(5) == first  # a fresh enumeration


def test_worked_permutation_chunk_example():
    # degree vector (5,8,7,6,6) over an empty inner graph: the added vertices
    # take consecutive chunks of the permutation
    perm = [0, 1, 2, 4, 3, 5, 6, 8, 7, 9, 10, 12, 13, 14, 11, 15, 16, 17, 19, 18]
    perm += [v for v in range(35) if v not in perm]
    inner = Graph.empty(5)
    ext = random_extension(
        ExtensionSpace(Graph.empty(35), (inner,), (4, 9)), 0, StubRng([5, 8, 7, 6, 6], perm)
    )
    assert ext.attachments[0] == sum(1 << (v - 1) for v in [1, 2, 3, 4, 5])
    assert ext.attachments[1] == sum(1 << (v - 1) for v in [6, 7, 8, 9, 10, 11, 13, 14])
    assert [a.bit_count() for a in ext.attachments] == [5, 8, 7, 6, 6]


def test_zero_attachment_boundary():
    inner = Graph.cycle(4)  # all inner degrees 2
    ext = random_extension(ExtensionSpace(Graph.empty(6), (inner,), (2, 2)), 0, random.Random(0))
    assert all(not att for att in ext.attachments)


def test_random_extension_invariants_hold():
    rng = random.Random(5)
    base = random_graph(20, rng, density=0.3)
    space = ExtensionSpace(base, enumerate_triangle_free(5), (2, 4))
    for trial in range(1000):
        ext = random_extension(space, trial % len(space.inners), rng)
        check_extension_invariants(ext, (2, 4))
        seen = 0
        for i, att in enumerate(ext.attachments):
            assert not (att & seen)
            seen |= att
            assert 2 <= ext.added_degree(i) <= 4


def test_extension_space_rejects_infeasible_band():
    # building the space is the one feasibility check, over every inner graph
    inner = Graph.cycle(5)  # degrees all 2
    with pytest.raises(ValueError, match=r"infeasible: inner degrees \(2, 2, 2, 2, 2\) exceed"):
        ExtensionSpace(Graph.empty(35), (inner,), (0, 1))
    # minimum attachment total larger than the base
    star = Graph.empty(5)
    with pytest.raises(ValueError, match="infeasible: minimum attachment total exceeds 3"):
        ExtensionSpace(Graph.empty(3), (star,), (4, 9))
    # one infeasible graph anywhere in the catalog refuses the whole space
    with pytest.raises(ValueError, match="infeasible"):
        ExtensionSpace(Graph.empty(35), (Graph.empty(5), inner), (0, 1))
    ExtensionSpace(Graph.empty(35), (Graph.empty(5), inner), (0, 2))


def test_extension_to_graph_shapes():
    base = Graph.cycle(6)
    inner = Graph.empty(2)
    empty_ext = ExtensionState(base, inner, (0, 0))
    g = extension_to_graph(empty_ext)
    assert g.n == 8 and g.edge_count() == base.edge_count()
    ext = ExtensionState(base, inner, (0b101, 0b10))
    h = extension_to_graph(ext)
    assert h.degree(6) == 2 and h.degree(7) == 1
    for i in range(2):
        assert h.degree(6 + i) == ext.attachments[i].bit_count() + inner.degree(i)


def test_check_extension_invariants_rejects_each_violation():
    base = Graph.empty(6)
    inner = Graph.empty(2)
    check_extension_invariants(ExtensionState(base, inner, (0b11, 0b1100)), (2, 2))
    with pytest.raises(ValueError, match="overlap at base vertices \\[1\\]"):
        check_extension_invariants(ExtensionState(base, inner, (0b11, 0b110)), (2, 2))
    with pytest.raises(ValueError, match="added vertex 1 outside the base"):
        check_extension_invariants(ExtensionState(base, inner, (0b11, 0b1000100)), (2, 2))
    with pytest.raises(ValueError, match="added vertex 1 has degree 3 outside"):
        check_extension_invariants(ExtensionState(base, inner, (0b11, 0b11100)), (2, 2))


def test_decompose_roundtrip():
    rng = random.Random(9)
    base = random_graph(12, rng, density=0.4)
    catalog = enumerate_triangle_free(4)
    inner = catalog[5]
    lo = max(inner.degrees())
    ext = random_extension(ExtensionSpace(base, (inner,), (lo, lo + 2)), 0, rng)
    g = extension_to_graph(ext)
    back = decompose_extension(g, base.n)
    assert back.base == ext.base
    assert back.inner == ext.inner
    assert back.attachments == ext.attachments
    assert extension_to_graph(back) == g
    with pytest.raises(ValueError):
        decompose_extension(g, g.n)


def test_mutate_single_edge_difference():
    rng = random.Random(1)
    base = random_graph(15, rng, density=0.3)
    inner = enumerate_triangle_free(5)[3]
    lo = max(1, max(inner.degrees()))
    space = ExtensionSpace(base, (inner,), (lo, lo + 3))
    ext = random_extension(space, 0, rng)
    for _ in range(200):
        move = mutate_extension(space, ext, rng)
        if move is None:
            break
        nxt = toggle_attachment(ext, *move)
        before = set(extension_to_graph(ext).edges())
        after = set(extension_to_graph(nxt).edges())
        assert len(before ^ after) == 1
        check_extension_invariants(nxt, (lo, lo + 3))
        ext = nxt


def test_mutate_respects_floor():
    # all added vertices pinned at the degree floor: only additions possible
    base = Graph.empty(10)
    inner = Graph.empty(2)
    ext = ExtensionState(base, inner, (0b1, 0b10))
    space = ExtensionSpace(base, (inner,), (1, 2))
    rng = random.Random(2)
    for _ in range(50):
        move = mutate_extension(space, ext, rng)
        assert move is not None
        nxt = toggle_attachment(ext, *move)
        grew = [a.bit_count() for a in nxt.attachments]
        assert sorted(grew) == [1, 2]  # one vertex gained an edge; none lost


def test_mutate_no_move():
    # saturated: every base vertex attached and every vertex at the ceiling
    base = Graph.empty(2)
    inner = Graph.empty(2)
    ext = ExtensionState(base, inner, (0b1, 0b10))
    assert mutate_extension(ExtensionSpace(base, (inner,), (1, 1)), ext, random.Random(3)) is None


def test_mutation_invariant_fuzz():
    rng = random.Random(7)
    base = random_graph(18, rng, density=0.25)
    inner = enumerate_triangle_free(5)[7]
    lo = max(1, max(inner.degrees()))
    hi = lo + 2
    space = ExtensionSpace(base, (inner,), (lo, hi))
    ext = random_extension(space, 0, rng)
    for _ in range(10_000):
        move = mutate_extension(space, ext, rng)
        assert move is not None
        nxt = toggle_attachment(ext, *move)
        check_extension_invariants(nxt, (lo, hi))
        ext = nxt


@given(
    st.integers(1, 12), st.integers(1, 5), st.integers(0, (1 << 66) - 1), st.integers(0, 1023),
    st.lists(st.integers(-1, 4), min_size=12, max_size=12), st.booleans(),
    st.sampled_from(["floor", "ceiling", "between"]), st.integers(0, 3), st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_mutate_extension_matches_listed_oracle(
    m, a, base_mask, inner_mask, owners, saturate, pin, slack, seed
):
    # disjoint attachments: base vertex v goes to added vertex owners[v], or
    # to none when it is -1 (never, when saturate); with the floor at the
    # highest degree and every base vertex attached, no move is legal
    base = graph_from_mask(m, base_mask % (1 << m * (m - 1) // 2))
    inner = graph_from_mask(a, inner_mask % (1 << a * (a - 1) // 2))
    owner = [o % a if saturate else o for o in owners[:m]]
    ext = ExtensionState(
        base, inner, tuple(sum(1 << v for v in range(m) if owner[v] == i) for i in range(a))
    )
    degs = [ext.added_degree(i) for i in range(a)]
    if pin == "floor":  # every added vertex at or below the floor: additions only
        degree_range = (max(degs), max(degs) + slack)
    elif pin == "ceiling":  # every added vertex at or above the ceiling: removals only
        degree_range = (max(0, min(degs) - slack), min(degs))
    else:
        degree_range = (max(0, min(degs) - slack), max(degs) + slack)
    # mutate_extension reads only the space's band; these states may lie
    # outside any feasible space, so the space lists no inner graph to check
    space = ExtensionSpace(base, (), degree_range)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for _ in range(8):
        move = mutate_extension(space, ext, rng)
        assert move == brute_mutate_extension(ext, oracle_rng, degree_range)
        assert rng.getstate() == oracle_rng.getstate()
        if move is None:
            break
        ext = toggle_attachment(ext, *move)


def test_mutate_extension_draws_as_randrange():
    # it draws through getrandbits; a twin stream replays the two randrange
    # calls it stands for. size unattached added vertices over a base of
    # size vertices give size legal vertices and size moves each, so both
    # draws cover range sizes 1..64
    rng, twin = random.Random(0), random.Random(0)
    for size in range(1, 65):
        base = Graph.empty(size)
        ext = ExtensionState(base, Graph.empty(size), (0,) * size)
        space = ExtensionSpace(base, (), (0, 1))
        for _ in range(200):
            move = mutate_extension(space, ext, rng)
            assert move == (twin.randrange(size), twin.randrange(size))
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", range(5))
def test_move_table_is_kept_per_band(seed):
    # added degrees 2, 3, 4 give vertex 1 removals under (2, 4) but none under
    # (3, 6), so a table memoised for one band would misdraw under the other
    base = Graph.empty(12)
    ext = ExtensionState(base, Graph.empty(3), (0b11, 0b11100, 0b111100000))
    spaces = [ExtensionSpace(base, (), (2, 4)), ExtensionSpace(base, (), (3, 6))]
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for step in range(40):
        space = spaces[step % 2]
        move = mutate_extension(space, ext, rng)
        assert move == brute_mutate_extension(ext, oracle_rng, space.degree_range)
        assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("seed", range(3))
def test_memos_take_no_part_in_equality(seed):
    # two positions with equal fields are equal, hash equal and print and
    # serialize the same, whatever their move-table and mask memos hold
    from ramsey_abc.counting import _free_rows, build_indep_cache

    rng = random.Random(seed)
    base = random_graph(10, rng, density=0.4)
    inner = enumerate_triangle_free(4)[seed]
    lo = max(inner.degrees())
    space = ExtensionSpace(base, (inner,), (lo, lo + 2))
    read = random_extension(space, 0, rng)
    mutate_extension(space, read, rng)
    _free_rows(build_indep_cache(base, range(1, 4)), read, 2)
    bare = ExtensionState(read.base, read.inner, read.attachments)
    assert read._move_tables and read.free_masks
    assert bare._move_tables == {} and bare.free_masks == {}
    assert read == bare and hash(read) == hash(bare) and repr(read) == repr(bare)
    assert serialize_extension(read) == serialize_extension(bare)


def test_serialize_roundtrip():
    rng = random.Random(13)
    base = random_graph(10, rng, density=0.4)
    inner = enumerate_triangle_free(5)[2]
    lo = max(inner.degrees())
    ext = random_extension(ExtensionSpace(base, (inner,), (lo, lo + 2)), 0, rng)
    payload = serialize_extension(ext)
    assert payload["inner_index"] == 2
    for idx, item in enumerate(enumerate_triangle_free(5)):  # the cached catalog's order
        assert serialize_extension(ExtensionState(base, item, (0,) * 5))["inner_index"] == idx
        shuffled = relabel(item, (4, 2, 0, 3, 1))
        assert serialize_extension(ExtensionState(base, shuffled, (0,) * 5))["inner_index"] == idx
    assert all(all(1 <= v <= 10 for v in att) for att in payload["attachments"])
    back = ExtensionState(
        decode_graph6(payload["base_graph6"]),
        decode_graph6(payload["inner_graph6"]),
        tuple(sum(1 << (v - 1) for v in att) for att in payload["attachments"]),
    )
    assert extension_to_graph(back) == extension_to_graph(ext)


def test_serialize_computes_no_catalog_key_twice(monkeypatch):
    from ramsey_abc import construct

    inner = enumerate_triangle_free(5)[3]
    ext = ExtensionState(Graph.empty(3), inner, (0,) * 5)
    assert serialize_extension(ext)["inner_index"] == 3
    keyed = []
    key = construct._canonical_bits
    monkeypatch.setattr(construct, "_canonical_bits", lambda g: keyed.append(g) or key(g))
    assert serialize_extension(ext)["inner_index"] == 3
    assert keyed == [inner]  # the inner graph's own key, none of the catalog's
