"""The one graph query per topology, over every alive mask.

Every :class:`~repro.comm.topology.CommTopology` answers ``neighbors`` /
``closed_neighborhood`` / ``degree`` / ``max_degree`` / ``mean_degree``
under the world's alive mask.  This grid runs every registered topology ×
P ∈ {1, 2, 3, 5, 8} × {all alive, each single death (rank 0 — a star's hub
— among them), all but one dead} and checks the contract the gossip
exchange relies on: the all-alive answer is the static graph, no dead rank
appears in any neighbourhood, neighbourhoods are ascending, a re-routed
ring is one cycle over the survivors, and a star's hub is the lowest
survivor.
"""

import pytest

from repro.comm.topology import TOPOLOGIES, get_topology

SIZES = (1, 2, 3, 5, 8)

#: The all-alive graphs, rank by rank (hierarchical with its default two
#: edge groups).
STATIC = {
    ("ring", 1): [()],
    ("ring", 2): [(1,), (0,)],
    ("ring", 3): [(1, 2), (0, 2), (0, 1)],
    ("ring", 5): [(1, 4), (0, 2), (1, 3), (2, 4), (0, 3)],
    ("star", 1): [()],
    ("star", 2): [(1,), (0,)],
    ("star", 3): [(1, 2), (0,), (0,)],
    ("star", 5): [(1, 2, 3, 4), (0,), (0,), (0,), (0,)],
    ("fully_connected", 1): [()],
    ("fully_connected", 2): [(1,), (0,)],
    ("fully_connected", 3): [(1, 2), (0, 2), (0, 1)],
    ("fully_connected", 5): [(1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 3, 4),
                             (0, 1, 2, 4), (0, 1, 2, 3)],
    ("hierarchical", 1): [()],
    ("hierarchical", 2): [(), ()],
    ("hierarchical", 3): [(), (2,), (1,)],
    ("hierarchical", 5): [(1,), (0,), (3, 4), (2, 4), (2, 3)],
    ("hierarchical", 8): [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2),
                          (5, 6, 7), (4, 6, 7), (4, 5, 7), (4, 5, 6)],
}


def masks(p):
    """``(label, alive)`` pairs: all alive, each single death, all but one
    dead."""
    yield "all alive", (True,) * p
    for dead in range(p):
        yield f"rank {dead} dead", tuple(r != dead for r in range(p))
    for survivor in range(p):
        yield f"only rank {survivor} alive", tuple(r == survivor for r in range(p))


GRID = [pytest.param(name, p, alive, id=f"{name}-P{p}-{label}")
        for name in TOPOLOGIES.list() for p in SIZES for label, alive in masks(p)]


@pytest.mark.parametrize("name, p", sorted(STATIC))
def test_all_alive_answers_are_the_static_graph(name, p):
    topology = get_topology(name)
    alive = (True,) * p
    expected = STATIC[name, p]
    for rank in range(p):
        assert topology.neighbors(rank, p, alive) == expected[rank]
        assert topology.closed_neighborhood(rank, p, alive) \
            == tuple(sorted({rank, *expected[rank]}))
        assert topology.degree(rank, p, alive) == len(expected[rank])
    assert topology.max_degree(p, alive) == max(map(len, expected))
    assert topology.mean_degree(p, alive) == sum(map(len, expected)) / p


def test_the_static_table_covers_every_topology():
    assert {name for name, _ in STATIC} == set(TOPOLOGIES.list())


@pytest.mark.parametrize("name, p, alive", GRID)
def test_no_dead_rank_appears_in_any_neighbourhood(name, p, alive):
    topology = get_topology(name)
    survivors = [r for r in range(p) if alive[r]]
    for rank in range(p):
        hood = topology.closed_neighborhood(rank, p, alive)
        assert hood == tuple(sorted(set(hood))), "not ascending"
        assert rank in hood
        if alive[rank]:
            assert all(alive[q] for q in hood), hood
        else:
            # A dead rank has no neighbours and is no one's neighbour.
            assert topology.neighbors(rank, p, alive) == ()
            assert topology.degree(rank, p, alive) == 0
    degrees = [topology.degree(r, p, alive) for r in survivors]
    assert topology.max_degree(p, alive) == max(degrees, default=0)
    assert topology.mean_degree(p, alive) == \
        (sum(degrees) / len(degrees) if degrees else 0.0)
    if len(survivors) == 1:
        assert topology.closed_neighborhood(survivors[0], p, alive) == (survivors[0],)


@pytest.mark.parametrize("p, alive", [(p, alive) for p in SIZES
                                      for _, alive in masks(p)])
def test_a_rerouted_ring_is_one_cycle_over_the_survivors(p, alive):
    ring = get_topology("ring")
    survivors = [r for r in range(p) if alive[r]]
    k = len(survivors)
    for i, rank in enumerate(survivors):
        # Each survivor links to the next survivor either way round.
        expected = {survivors[i - 1], survivors[(i + 1) % k]} - {rank}
        assert ring.neighbors(rank, p, alive) == tuple(sorted(expected))


@pytest.mark.parametrize("p, alive", [(p, alive) for p in SIZES
                                      for _, alive in masks(p)])
def test_a_stars_hub_is_the_lowest_survivor(p, alive):
    star = get_topology("star")
    survivors = [r for r in range(p) if alive[r]]
    if len(survivors) < 2:
        assert all(star.neighbors(r, p, alive) == () for r in range(p))
        return
    hub, *leaves = survivors
    assert star.neighbors(hub, p, alive) == tuple(leaves)
    for leaf in leaves:
        assert star.neighbors(leaf, p, alive) == (hub,)


def test_ring_walks_past_dead_ranks_at_p4():
    ring = get_topology("ring")
    alive = [True, False, True, True]
    # Rank 0's dead clockwise neighbour 1 is skipped; the ring stays
    # closed through rank 2.
    assert ring.neighbors(0, 4, alive) == (2, 3)
    assert ring.neighbors(2, 4, alive) == (0, 3)
    assert ring.closed_neighborhood(0, 4, alive) == (0, 2, 3)
    assert ring.max_degree(4, alive) == 2


def test_ring_degree_is_independent_of_world_size():
    ring = get_topology("ring")
    for p in (3, 8, 64):
        assert ring.max_degree(p, (True,) * p) == 2
