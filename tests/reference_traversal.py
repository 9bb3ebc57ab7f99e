"""Per-node reference implementations of the graph traversal loops.

Test-only oracles: the FIFO-queue loops ``repro.graph.traversal`` ran
before :func:`~repro.graph.traversal.bfs_tree` became a level-by-level
gather and :func:`~repro.graph.traversal.connected_components` a call to
``scipy.sparse.csgraph``, kept verbatim so the vectorised code stays
pinned to them (equal output arrays). Never imported from ``src/``.

One case differs: this :func:`connected_components` symmetrises a
directed graph through ``Graph.to_undirected()``, which keeps
``max(w(u, v), w(v, u))`` and drops arcs that come out at zero, so a
zero-weight arc, or a negative one without a positive reverse, joins
nothing here while the library's structural connectivity joins its ends.
The oracle comparison uses unit weights; the weighted case is pinned in
``test_traversal.py`` on its own.
"""

from collections import deque

import numpy as np

UNREACHED = -1


def bfs_tree(graph, source: int) -> np.ndarray:
    """BFS parent array (parent of the source is itself; -1 unreachable)."""
    parent = np.full(graph.n_nodes, UNREACHED, dtype=np.int64)
    parent[source] = source
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            v = int(v)
            if parent[v] == UNREACHED:
                parent[v] = u
                queue.append(v)
    return parent


def connected_components(graph) -> np.ndarray:
    """Component id per node (directed graphs use weak connectivity)."""
    g = graph.to_undirected() if graph.directed else graph
    comp = np.full(g.n_nodes, UNREACHED, dtype=np.int64)
    cid = 0
    for start in range(g.n_nodes):
        if comp[start] != UNREACHED:
            continue
        comp[start] = cid
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                v = int(v)
                if comp[v] == UNREACHED:
                    comp[v] = cid
                    queue.append(v)
        cid += 1
    return comp
