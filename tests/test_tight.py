import random
from collections import deque

import pytest

from tightcycle.errors import InvalidArgumentError
from tightcycle.generators import random_3graph
from tightcycle.hypergraph import Edge3, Hypergraph3, complete_3graph
from tightcycle.matching import connected_components, largest_component
from tightcycle.tight import component_star, tight_components

from test_tight_equivalence import naive_tight_components, pair_groups


def tight_walk(H: Hypergraph3, start: Edge3, goal: Edge3) -> list[Edge3] | None:
    """A shortest tight walk from start to goal as a list of edges, or None.

    Consecutive edges of the returned walk share exactly two vertices.  A
    breadth-first witness check of tight_components: two edges are in the
    same component iff a walk exists.
    """
    start = tuple(sorted(start))  # type: ignore[assignment]
    goal = tuple(sorted(goal))  # type: ignore[assignment]
    if start not in H.edge_set or goal not in H.edge_set:
        raise InvalidArgumentError("walk endpoints must be edges of H")
    if start == goal:
        return [start]
    pidx = pair_groups(H)
    parent: dict[Edge3, Edge3] = {start: start}
    queue = deque([start])
    while queue:
        e = queue.popleft()
        a, b, c = e
        for pair in ((a, b), (a, c), (b, c)):
            for nxt in pidx[pair]:
                if nxt not in parent:
                    parent[nxt] = e
                    if nxt == goal:
                        walk = [nxt]
                        while walk[-1] != start:
                            walk.append(parent[walk[-1]])
                        walk.reverse()
                        return walk
                    queue.append(nxt)
    return None


def test_two_edges_sharing_pair():
    H = Hypergraph3(4, [(1, 2, 3), (2, 3, 4)])
    lab = tight_components(H)
    assert lab.component_count == 1
    assert lab.component_sizes == (2,)


def test_disjoint_edges():
    H = Hypergraph3(6, [(1, 2, 3), (4, 5, 6)])
    lab = tight_components(H)
    assert lab.component_count == 2
    assert lab.component_sizes == (1, 1)


def test_complete_is_one_component():
    assert tight_components(complete_3graph(5)).component_count == 1


def test_labels_are_contiguous_and_total():
    H = random_3graph(10, 0.2, 7)
    lab = tight_components(H)
    assert set(lab.labels) == set(H.edges)
    assert sorted(set(lab.labels.values())) == list(range(lab.component_count))
    assert sum(lab.component_sizes) == len(H.edges)


def test_edges_sharing_two_vertices_share_label():
    H = random_3graph(9, 0.4, 13)
    lab = tight_components(H)
    for e in H.edges:
        for f in H.edges:
            if len(set(e) & set(f)) == 2:
                assert lab.labels[e] == lab.labels[f]


def test_oracle_equivalence():
    # union-find labeling agrees with the quadratic BFS labeling
    for i in range(60):
        rng = random.Random(i)
        n = rng.randint(4, 11)
        H = random_3graph(n, rng.uniform(0.05, 0.6), i)
        assert len(H.edges) <= 200
        fast = tight_components(H)
        slow = naive_tight_components(H)
        assert fast.component_count == slow.component_count
        # same partition, possibly different id order
        for e in H.edges:
            for f in H.edges:
                assert (fast.labels[e] == fast.labels[f]) == (
                    slow.labels[e] == slow.labels[f]
                )


def test_monotone_merge():
    # adding one edge never splits components and adds at most one
    rng = random.Random(5)
    for trial in range(30):
        n = rng.randint(5, 9)
        H = random_3graph(n, 0.25, trial)
        count = tight_components(H).component_count
        missing = [
            e
            for e in complete_3graph(n).edges
            if e not in H.edge_set
        ]
        if not missing:
            continue
        e = rng.choice(missing)
        H2 = Hypergraph3(n, list(H.edges) + [e])
        lab2 = tight_components(H2)
        assert lab2.component_count <= count + 1
        # old edges in one class stay together
        lab1 = tight_components(H)
        for f in H.edges:
            for g in H.edges:
                if lab1.labels[f] == lab1.labels[g]:
                    assert lab2.labels[f] == lab2.labels[g]


def test_component_star_k4():
    K4 = complete_3graph(4)
    triangle = largest_component(K4.link_graph(1))
    star = component_star(K4, 1, triangle)
    assert star == {(1, 2, 3), (1, 2, 4), (1, 3, 4)}


def test_component_star_single_edge():
    H = Hypergraph3(6, [(1, 2, 3), (4, 5, 6)])
    comp = largest_component(H.link_graph(1))
    assert component_star(H, 1, comp) == {(1, 2, 3)}


def test_component_star_rejects_non_component():
    K4 = complete_3graph(4)
    with pytest.raises(InvalidArgumentError):
        component_star(K4, 1, (frozenset({2, 3}), frozenset({(2, 3)})))


@pytest.mark.parametrize("u", [0, 5])
def test_component_star_rejects_vertex_out_of_range(u):
    K4 = complete_3graph(4)
    triangle = largest_component(K4.link_graph(1))
    with pytest.raises(InvalidArgumentError, match=f"vertex {u} not inside"):
        component_star(K4, u, triangle)


def test_component_star_lands_in_one_tight_component():
    for i in range(25):
        rng = random.Random(1000 + i)
        n = rng.randint(5, 10)
        H = random_3graph(n, rng.uniform(0.3, 0.8), i)
        lab = tight_components(H)
        for u in range(1, n + 1):
            link = H.link_graph(u)
            if not link.edges:
                continue
            for comp in connected_components(link):
                if not comp[1]:
                    continue
                star = component_star(H, u, comp)
                labels = {lab.labels[e] for e in star}
                assert len(labels) == 1


def test_tight_walk_witness():
    H = Hypergraph3(5, [(1, 2, 3), (2, 3, 4), (3, 4, 5)])
    walk = tight_walk(H, (1, 2, 3), (3, 4, 5))
    assert walk is not None
    assert walk[0] == (1, 2, 3) and walk[-1] == (3, 4, 5)
    for e, f in zip(walk, walk[1:]):
        assert len(set(e) & set(f)) == 2
    assert tight_walk(Hypergraph3(6, [(1, 2, 3), (4, 5, 6)]), (1, 2, 3), (4, 5, 6)) is None


def test_tight_walk_agrees_with_labels():
    H = random_3graph(8, 0.3, 21)
    lab = tight_components(H)
    for e in H.edges[:5]:
        for f in H.edges[:5]:
            walk = tight_walk(H, e, f)
            assert (walk is not None) == (lab.labels[e] == lab.labels[f])


def test_labeling_is_kept_on_the_hypergraph():
    H = random_3graph(10, 0.3, 4)
    lab = tight_components(H)
    assert tight_components(H) is lab
    assert tight_components(Hypergraph3(H.n, H.edges)) == lab
