"""Machine-readable Figure 1: the tutorial's taxonomy, mapped to code.

The paper's single figure organises graph-data-management techniques for
scalable GNNs into a tree. :data:`TAXONOMY` reproduces that tree; every
leaf names the module (and optionally attribute) in this library that
implements it, so :func:`coverage_report` can *prove* the reproduction is
complete by importing each implementation. :func:`render` prints the
figure as indented text (benchmark E1).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class TaxonomyNode:
    """One box of Figure 1.

    Attributes
    ----------
    name:
        The label as printed in the paper.
    section:
        Paper section covering this node ("" for structural nodes).
    implementation:
        Dotted path ``module`` or ``module:attribute`` implementing the
        leaf; empty for structural nodes and future directions.
    children:
        Child boxes.
    """

    name: str
    section: str = ""
    implementation: str = ""
    children: tuple["TaxonomyNode", ...] = ()


def _leaf(name: str, section: str, implementation: str) -> TaxonomyNode:
    return TaxonomyNode(name, section, implementation)


TAXONOMY = TaxonomyNode(
    "Data Management for Scalable GNN",
    children=(
        TaxonomyNode(
            "Classic Method",
            section="3.1",
            children=(
                _leaf("Graph Partition", "3.1.2", "repro.editing.partition"),
                _leaf("Graph Sampling", "3.1.2", "repro.editing.sampling"),
                _leaf(
                    "Decoupled Propagation", "3.1.2", "repro.models.sgc:SGC"
                ),
                _leaf(
                    "Training System",
                    "3.1.2",
                    "repro.distributed.backend:SimulatedBackend",
                ),
            ),
        ),
        TaxonomyNode(
            "Graph Analytics",
            section="3.2",
            children=(
                TaxonomyNode(
                    "Spectral Embeddings",
                    section="3.2.1",
                    children=(
                        _leaf(
                            "Combined Embeddings", "3.2.1", "repro.models.ld2:LD2"
                        ),
                        _leaf(
                            "Adaptive Basis",
                            "3.2.1",
                            "repro.analytics.spectral:krylov_filter_signal",
                        ),
                    ),
                ),
                TaxonomyNode(
                    "Node-pair Similarity",
                    section="3.2.2",
                    children=(
                        _leaf(
                            "Topology Similarity",
                            "3.2.2",
                            "repro.models.simga:SIMGA",
                        ),
                        _leaf(
                            "Hub Labeling",
                            "3.2.2",
                            "repro.analytics.hub_labeling:HubLabeling",
                        ),
                    ),
                ),
                TaxonomyNode(
                    "Graph Algebras",
                    section="3.2.3",
                    children=(
                        _leaf(
                            "Matrix Decomposition",
                            "3.2.3",
                            "repro.models.implicit:ImplicitGNN",
                        ),
                        _leaf(
                            "Approximate Iteration",
                            "3.2.3",
                            "repro.models.implicit:MultiscaleImplicitGNN",
                        ),
                        _leaf(
                            "Graph Simplification",
                            "3.2.3",
                            "repro.editing.coarsen:coarse_node_batches",
                        ),
                    ),
                ),
            ),
        ),
        TaxonomyNode(
            "Graph Editing",
            section="3.3",
            children=(
                TaxonomyNode(
                    "Graph Sparsification",
                    section="3.3.1",
                    children=(
                        _leaf(
                            "Node-level", "3.3.1", "repro.models.scara:SCARA"
                        ),
                        _leaf(
                            "Layer-level",
                            "3.3.1",
                            "repro.models.atp:NIGCN",
                        ),
                        _leaf(
                            "Subgraph-level", "3.3.1", "repro.models.gamlp:GAMLP"
                        ),
                    ),
                ),
                TaxonomyNode(
                    "Graph Sampling",
                    section="3.3.2",
                    children=(
                        _leaf(
                            "Graph Expressiveness",
                            "3.3.2",
                            "repro.models.pyramid:PyramidGNN",
                        ),
                        _leaf(
                            "Graph Variance",
                            "3.3.2",
                            "repro.editing.sampling:LaborSampler",
                        ),
                        _leaf(
                            "Device Acceleration",
                            "3.3.2",
                            "repro.training.pipeline:plan_execution",
                        ),
                    ),
                ),
                TaxonomyNode(
                    "Subgraph Extraction",
                    section="3.3.3",
                    children=(
                        _leaf(
                            "Subgraph Generation",
                            "3.3.3",
                            "repro.editing.subgraph:ego_subgraph",
                        ),
                        _leaf(
                            "Subgraph Storage",
                            "3.3.3",
                            "repro.editing.subgraph:WalkSetStorage",
                        ),
                    ),
                ),
                TaxonomyNode(
                    "Graph Coarsening",
                    section="3.3.4",
                    children=(
                        _leaf(
                            "Structure-based",
                            "3.3.4",
                            "repro.editing.coarsen:multilevel_coarsen",
                        ),
                        _leaf(
                            "Spectral-based",
                            "3.3.4",
                            "repro.editing.coarsen:eigenbasis_matching_condense",
                        ),
                    ),
                ),
            ),
        ),
        TaxonomyNode(
            "Future Direction",
            section="3.4",
            children=(
                # The paper lists these as open directions; this library
                # ships working prototypes for each (see DESIGN.md E18-E22).
                _leaf("Large Model", "3.4.1", "repro.retrieval:CommunityIndex"),
                _leaf(
                    "Data Efficiency",
                    "3.4.2",
                    "repro.models.contrastive:train_contrastive",
                ),
                _leaf(
                    "Training System",
                    "3.4.3",
                    "repro.training.pipeline:pipelined_makespan",
                ),
            ),
        ),
    ),
)

CHALLENGES = (
    "Neighborhood Explosion",
    "Limited Memory",
    "Multi-scale",
    "Fine-grained",
)


def render(node: TaxonomyNode = TAXONOMY, indent: int = 0) -> str:
    """The taxonomy as indented text (our rendering of Figure 1)."""
    marker = "  " * indent + ("- " if indent else "")
    section = f"  [{node.section}]" if node.section else ""
    impl = f"  -> {node.implementation}" if node.implementation else ""
    lines = [f"{marker}{node.name}{section}{impl}"]
    for child in node.children:
        lines.append(render(child, indent + 1))
    return "\n".join(lines)


def iter_leaves(node: TaxonomyNode = TAXONOMY):
    """Yield all leaf nodes in figure order."""
    if not node.children:
        yield node
        return
    for child in node.children:
        yield from iter_leaves(child)


def resolve_implementation(leaf: TaxonomyNode):
    """Import and return the object implementing ``leaf``.

    Raises ``ImportError``/``AttributeError`` on a broken mapping; returns
    ``None`` for future-direction leaves with no implementation.
    """
    if not leaf.implementation:
        return None
    module_name, _, attr = leaf.implementation.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


def coverage_report() -> dict[tuple[str, str], bool]:
    """Map each (leaf name, section) to whether its implementation imports.

    Keyed by the pair because Figure 1 reuses the label "Training System"
    in both the classic-method and future-direction branches.
    """
    report: dict[tuple[str, str], bool] = {}
    for leaf in iter_leaves():
        key = (leaf.name, leaf.section)
        if not leaf.implementation:
            report[key] = False
            continue
        try:
            resolve_implementation(leaf)
            report[key] = True
        except (ImportError, AttributeError):
            report[key] = False
    return report
