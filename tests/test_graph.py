import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graphs, relabel
from ramsey_abc.abc_search import _random_graph
from ramsey_abc.construct import decompose_extension, extension_to_graph
from ramsey_abc.graph import (
    Graph,
    ParseError,
    complement,
    decode_graph6,
    delete_vertex,
    emit_adjacency_list,
    encode_graph6,
    induced_subgraph,
    parse_adjacency_list,
    toggle_edge,
)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(65, (0,) * 65)
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # self-loop on vertex 0
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (4, 0))  # neighbour out of range
    with pytest.raises(ValueError):
        Graph(2, [0, 0])  # rows in a list: unhashable
    with pytest.raises(ValueError):
        Graph(2, (1.0, 0))  # a row that is not an int
    with pytest.raises(ValueError):
        Graph(True, (0,))  # a bool vertex count


def test_basic_accessors(g1):
    assert g1.degrees() == (1, 3, 2, 3, 1)
    assert g1.neighbors(1) == (0, 2, 3)
    assert g1.edge_count() == 5
    assert g1.has_edge(1, 3) and not g1.has_edge(0, 4)
    assert sorted(g1.edges()) == [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]


def test_toggle_reproduces_one_edge_neighbour(g1):
    # removing edge {2,4} (1-indexed) leaves the path 1-2-3-4-5
    g3 = toggle_edge(g1, 1, 3)
    assert sorted(g3.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    diff = set(g1.edges()) ^ set(g3.edges())
    assert diff == {(1, 3)}
    assert sorted(g1.edges()) != sorted(g3.edges())  # g1 unchanged


def test_toggle_involution_and_errors():
    g = Graph.empty(3)
    assert toggle_edge(toggle_edge(g, 0, 1), 0, 1) == g
    with pytest.raises(ValueError):
        toggle_edge(g, 1, 1)
    with pytest.raises(ValueError):
        toggle_edge(g, 0, 3)


def test_derived_graph_entries_reject_non_int_vertices():
    import numpy as np

    g = Graph.cycle(5)
    with pytest.raises(ValueError):
        toggle_edge(g, np.int64(0), np.int64(2))
    with pytest.raises(ValueError):
        toggle_edge(g, 0, True)
    # int labels build the same graph as before
    assert toggle_edge(g, 0, 2) == Graph(5, (0b10110, 0b00101, 0b01011, 0b10100, 0b01001))


def test_toggle_complete_graph():
    g = toggle_edge(Graph.complete(4), 0, 1)
    assert g.edge_count() == 5
    assert sorted(g.degrees()) == [2, 2, 3, 3]


def test_induced_subgraph_examples(g1, c5):
    tri = induced_subgraph(g1, {1, 2, 3})  # vertices 2,3,4 1-indexed
    assert tri == Graph.complete(3)
    single = induced_subgraph(g1, {2})
    assert single.n == 1 and single.edge_count() == 0
    p4 = induced_subgraph(c5, [0, 1, 2, 3])
    assert sorted(p4.edges()) == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        induced_subgraph(g1, set())
    with pytest.raises(ValueError):
        induced_subgraph(g1, {0, 7})


def test_delete_vertex():
    k3 = Graph.complete(3)
    smaller, labels = delete_vertex(k3, 1)
    assert smaller == Graph.complete(2)
    assert labels == (0, 2)
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    hub_gone, _ = delete_vertex(star, 0)
    assert hub_gone == Graph.empty(4)
    with pytest.raises(ValueError):
        delete_vertex(Graph.empty(1), 0)
    with pytest.raises(ValueError):
        delete_vertex(k3, 5)


def test_complement():
    assert complement(Graph.complete(4)) == Graph.empty(4)
    full = complement(Graph.empty(6))
    assert full.edge_count() == 15


def test_complement_of_c5_is_a_five_cycle(c5):
    comp = complement(c5)
    assert comp.degrees() == (2, 2, 2, 2, 2)
    assert sorted(comp.edges()) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


@given(graphs(max_n=12))
def test_complement_involution(g):
    assert complement(complement(g)) == g
    for v in range(g.n):
        assert complement(g).degree(v) == g.n - 1 - g.degree(v)


@given(graphs(min_n=2, max_n=12), st.data())
def test_complement_rows_are_the_complement_of_their_own_graph(g, data):
    assert g.complement_rows == complement(g).adj
    assert g.complement_rows is g.complement_rows  # computed once per graph
    # a child of a graph whose rows were already read gets its own rows
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 2))
    child = toggle_edge(g, u, v + (v >= u))
    assert child.complement_rows == complement(child).adj != g.complement_rows


def _pairwise_complement(g):
    """Complement rows read pair by pair off g.adj."""
    return tuple(
        sum(1 << u for u in range(g.n) if u != v and not g.adj[v] >> u & 1) for v in range(g.n)
    )


@given(graphs(min_n=2, max_n=12), st.data())
def test_every_graph_holds_its_complement_rows(g, data):
    # however a graph is built, it holds rows equal to a pairwise
    # complement of its adj; along a toggle_edge chain they are handed on
    # with the flip's two bits changed, never rebuilt. The rows take no part
    # in equality or repr
    keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    split = data.draw(st.integers(1, g.n - 1))
    built = {
        "Graph": Graph(g.n, g.adj),
        "_derived": Graph._derived(g.n, g.adj),
        "_derived with rows": Graph._derived(g.n, g.adj, _pairwise_complement(g)),
        "induced_subgraph": induced_subgraph(g, keep),
        "complement": complement(g),
        "extension_to_graph": extension_to_graph(decompose_extension(g, split)),
    }
    chain = g
    for step in range(data.draw(st.integers(1, 6))):
        u, v = data.draw(st.permutations(range(g.n)))[:2]
        chain = toggle_edge(chain, u, v)
        built[f"toggle_edge {step}"] = chain
    for name, h in built.items():
        assert h.complement_rows == _pairwise_complement(h), name
        assert repr(h) == f"Graph(n={h.n}, adj={h.adj!r})", name
    assert complement(g).complement_rows is g.adj
    assert Graph._derived(g.n, g.adj, g.adj) == g  # wrong rows on purpose: not compared


@given(graphs(min_n=2, max_n=12), st.data())
def test_delete_vertex_edge_count(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    smaller, labels = delete_vertex(g, v)
    assert smaller.edge_count() == g.edge_count() - g.degree(v)
    assert v not in labels


def test_parse_simple():
    rep = parse_adjacency_list("1:2\n2:1\n")
    assert rep.graph == Graph.complete(2)
    assert rep.warnings == ()


def test_parse_one_sided_entry():
    rep = parse_adjacency_list("1:2\n2:\n")
    assert rep.graph == Graph.complete(2)
    assert rep.warnings == ((1, 2, "listed in row 1 but not in row 2"),)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_adjacency_list("")
    with pytest.raises(ParseError, match="line 2"):
        parse_adjacency_list("1:2\nnot a row\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_adjacency_list("1:2\n1:2\n")
    with pytest.raises(ParseError, match="outside"):
        parse_adjacency_list("1:3\n2:1\n")
    with pytest.raises(ParseError, match="contiguously"):
        parse_adjacency_list("1:\n3:\n")


def test_parse_self_loop_warning():
    rep = parse_adjacency_list("1:1 2\n2:1\n")
    assert rep.graph == Graph.complete(2)
    assert any("self-loop" in w[2] for w in rep.warnings)


def test_emit_worked_example(g1):
    assert emit_adjacency_list(g1) == "1:2\n2:1 3 4\n3:2 4\n4:2 3 5\n5:4\n"


@given(graphs(max_n=20))
@settings(max_examples=200)
def test_parse_emit_roundtrip(g):
    rep = parse_adjacency_list(emit_adjacency_list(g))
    assert rep.graph == g
    assert rep.warnings == ()


def test_graph6_known_values():
    assert encode_graph6(Graph.complete(2)) == "A_"
    assert encode_graph6(Graph.empty(1)) == "@"
    assert decode_graph6("A_") == Graph.complete(2)
    assert decode_graph6("@") == Graph.empty(1)


def test_graph6_long_form():
    g = Graph.cycle(63)
    assert decode_graph6(encode_graph6(g)) == g


def test_graph6_errors():
    with pytest.raises(ParseError):
        decode_graph6("")
    with pytest.raises(ParseError):
        decode_graph6("A\x1f")  # character below the graph6 alphabet
    with pytest.raises(ParseError):
        decode_graph6("A")  # n=2 needs one body character
    with pytest.raises(ParseError):
        decode_graph6("A__")  # body too long
    with pytest.raises(ParseError):
        decode_graph6("A@")  # nonzero padding bits


@given(graphs(max_n=20))
@settings(max_examples=200)
def test_graph6_roundtrip(g):
    assert decode_graph6(encode_graph6(g)) == g


@given(graphs(max_n=10), st.randoms(use_true_random=False))
def test_relabel_preserves_structure(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    assert h.edge_count() == g.edge_count()
    assert sorted(h.degrees()) == sorted(g.degrees())


@given(graphs(min_n=2, max_n=12), st.data())
def test_derived_graphs_pass_the_checked_constructor(g, data):
    # every function that builds its result with Graph._derived returns rows
    # that Graph(n, adj) accepts unchanged
    u, v = data.draw(st.permutations(range(g.n)))[:2]
    keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    split = data.draw(st.integers(1, g.n - 1))
    density = data.draw(st.floats(0, 1))
    seed = data.draw(st.integers(0, 2**32))
    ext = decompose_extension(g, split)
    derived = {
        "toggle_edge": toggle_edge(g, u, v),
        "induced_subgraph": induced_subgraph(g, keep),
        "delete_vertex": delete_vertex(g, u)[0],
        "complement": complement(g),
        "extension_to_graph": extension_to_graph(ext),
        "_random_graph": _random_graph(g.n, density, random.Random(seed)),
    }
    assert derived["extension_to_graph"] == g
    for name, h in derived.items():
        checked = Graph(h.n, h.adj)
        assert checked == h, name
        assert checked.complement_rows == h.complement_rows, name


def test_extension_to_graph_rejects_attachments_outside_the_base():
    ext = decompose_extension(Graph.cycle(6), 4)
    with pytest.raises(ValueError):
        extension_to_graph(dataclasses.replace(ext, attachments=(1 << 4, 0)))
    with pytest.raises(ValueError):
        extension_to_graph(dataclasses.replace(ext, attachments=(1,)))
