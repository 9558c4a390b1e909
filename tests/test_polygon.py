from outerpath.polygon import cycle_edges


def test_cycle_edge_i_joins_i_and_its_successor():
    # search._path_cubes reads bit i of a cycle-edge subset as the edge
    # from i to i+1 (mod n), and the orbit listing sorts (low, high) pairs
    for n in range(3, 17):
        assert cycle_edges(n) == [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
