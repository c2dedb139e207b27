"""Access to the bundled 40-vertex dataset and the 35-vertex base graph.

Graphs A-D are the best candidates found for the (3, 10, 40) target: each is
claimed triangle-light (fitness 2 or 3) with no 10-independent set, and all
four share the same induced subgraph on vertices 1-35, which is the unique
35-vertex triangle-free graph with independence number 8. That shared base is
what the extension construction starts from, so extract_base() recovers it
from graph A and validates it rather than trusting the file blindly.
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from .counting import count_cliques, independence_polynomial
from .graph import Graph, ParseReport, parse_adjacency_list

GRAPH_NAMES = ("A", "B", "C", "D")

BASE_SIZE = 35

# Census of k-independent sets in the 35-vertex base, used to validate any
# claimed copy of it.
BASE_INDEP_CENSUS = {5: 20265, 6: 22995, 7: 13760, 8: 3360}

BASE_DEGREE = 8
BASE_INDEPENDENCE_NUMBER = 8


def dataset_text(name: str) -> str:
    """Raw adjacency-list text of bundled graph A, B, C or D."""
    if name not in GRAPH_NAMES:
        raise ValueError(f"unknown dataset graph {name!r}; have {GRAPH_NAMES}")
    ref = resources.files("ramsey_abc.data") / f"graph_{name.lower()}.adj"
    return ref.read_text()


@cache
def load_graph(name: str) -> ParseReport:
    """Parsed bundled graph A, B, C or D. Parsed once per process: the
    report, its Graph and its warnings tuple are immutable, so every caller
    shares them."""
    return parse_adjacency_list(dataset_text(name))


def load_all() -> dict[str, ParseReport]:
    return {name: load_graph(name) for name in GRAPH_NAMES}


def extract_base(report: ParseReport | None = None) -> Graph:
    """Induced subgraph on vertices 1-35 of graph A (0-indexed 0..34), or
    of report's graph. The vertices are a prefix, so each base row is the
    low BASE_SIZE bits of one of the first BASE_SIZE rows, symmetric as
    the graph's rows are."""
    g = load_graph("A").graph if report is None else report.graph
    if g.n < BASE_SIZE:
        raise ValueError(f"vertex set not within 0..{g.n - 1}")
    keep = (1 << BASE_SIZE) - 1
    return Graph._derived(BASE_SIZE, tuple(row & keep for row in g.adj[:BASE_SIZE]))


def validate_base(base: Graph) -> list[tuple[str, bool, str]]:
    """Checks that a graph really is the expected 35-vertex base.

    Returns (check, passed, detail) rows: regularity, triangle-freeness,
    independence number, and the independent-set census. The independence
    number and the census are read from one independence_polynomial call:
    alpha is its length minus one, and a size above alpha counts 0 sets.
    """
    rows: list[tuple[str, bool, str]] = []
    degs = set(base.degrees())
    rows.append(
        (
            f"{BASE_DEGREE}-regular",
            base.n == BASE_SIZE and degs == {BASE_DEGREE},
            f"n={base.n}, degrees={sorted(degs)}",
        )
    )
    triangles = count_cliques(base, 3)
    rows.append(("triangle-free", triangles == 0, f"triangle count {triangles}"))
    poly = independence_polynomial(base)
    alpha = len(poly) - 1
    rows.append(
        (
            f"independence number {BASE_INDEPENDENCE_NUMBER}",
            alpha == BASE_INDEPENDENCE_NUMBER,
            f"computed {alpha}",
        )
    )
    for k, expected in sorted(BASE_INDEP_CENSUS.items()):
        count = poly[k] if k <= alpha else 0
        rows.append(
            (
                f"{k}-independent sets = {expected}",
                count == expected,
                f"computed {count}",
            )
        )
    return rows


def bases_identical() -> bool:
    """Whether all four bundled graphs induce the same base on vertices 1-35."""
    first = extract_base()
    return all(extract_base(load_graph(name)).adj == first.adj for name in GRAPH_NAMES[1:])
