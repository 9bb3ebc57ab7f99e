"""Road-network workload: distance indexing and partitioned training.

The route-planning motivation of the tutorial's introduction, on a planar
grid "road network":

* hub labeling answers shortest-path-distance queries orders of magnitude
  faster than per-query BFS after a one-time indexing pass (§3.2.2),
* graph partitioning splits the network across partition-parallel workers
  (run in one process by the ``"simulated"`` backend), and the
  partitioner's edge cut directly sets the communication bill (§3.1.2).

Run:  python examples/road_network_distributed.py
"""

import numpy as np

from repro.analytics import HubLabeling
from repro.bench import Table, format_bytes, format_seconds
from repro.datasets import random_split
from repro.distributed import get_backend
from repro.editing import ldg_partition, random_partition
from repro.graph import grid_graph, shortest_path_distance
from repro.utils import Timer, as_rng


GRID = 30


def main() -> None:
    road = grid_graph(GRID, GRID)
    print(f"road network: {road}\n")

    # --- Distance queries: BFS vs hub labels --------------------------- #
    rng = as_rng(0)
    pairs = rng.integers(0, road.n_nodes, size=(200, 2))

    build_timer = Timer()
    with build_timer:
        index = HubLabeling().build(road)

    bfs_timer = Timer()
    with bfs_timer:
        bfs_answers = [
            shortest_path_distance(road, int(a), int(b)) for a, b in pairs
        ]
    hl_timer = Timer()
    with hl_timer:
        hl_answers = index.query_batch(pairs)
    assert np.array_equal(np.asarray(bfs_answers), hl_answers)

    table = Table(
        "200 shortest-path-distance queries",
        ["method", "one-time build", "query time", "per query"],
    )
    table.add_row("bidirectional BFS", "-", format_seconds(bfs_timer.elapsed),
                  format_seconds(bfs_timer.elapsed / 200))
    table.add_row(
        f"hub labels (avg {index.average_label_size:.1f}/node)",
        format_seconds(build_timer.elapsed),
        format_seconds(hl_timer.elapsed),
        format_seconds(hl_timer.elapsed / 200),
    )
    print(table.render())

    # --- Partitioned (in-process distributed) training ----------------- #
    # Region labels: quadrant of the grid; features are noisy coordinates
    # (a sensor-region prediction task: GPS jitter in, region out).
    rows, cols = np.divmod(np.arange(road.n_nodes), GRID)
    half = GRID // 2
    labels = (rows >= half).astype(int) * 2 + (cols >= half).astype(int)
    coords = np.column_stack([rows, cols]) / GRID
    features = np.concatenate(
        [coords + rng.normal(scale=0.3, size=coords.shape),
         rng.normal(size=(road.n_nodes, 6))],
        axis=1,
    )
    graph = road.with_data(x=features, y=labels)
    split = random_split(graph.n_nodes, seed=0)

    table2 = Table(
        "4-worker in-process distributed training (80 epochs)",
        ["partitioner", "edge cut", "halo bytes/epoch (modelled)", "test acc"],
    )
    for name, part in [
        ("random", random_partition(graph, 4, seed=0)),
        ("LDG streaming", ldg_partition(graph, 4, seed=0)),
    ]:
        res = get_backend("simulated").run(
            graph, split, part.assignment, 4, epochs=80, seed=0
        )
        table2.add_row(
            name, part.edge_cut,
            format_bytes(8 * res.halo_floats_per_epoch), f"{res.test_accuracy:.3f}",
        )
    print("\n" + table2.render())
    print(
        "\nA better partitioner cuts the modelled halo volume of a system "
        "that exchanges boundary rows every epoch. These backends ship "
        "none: features never change, so each worker gathers its ghost "
        "rows once."
    )


if __name__ == "__main__":
    main()
