"""Spectral-basis GNN: learnable polynomial filter + MLP (UniFilter-style).

A decoupled spectral GNN: basis-propagated signals
:math:`B_k = p_k(\\tilde L)\\, X` are precomputed once for a chosen
polynomial basis (monomial / Chebyshev / Bernstein), and the model learns
the filter coefficients :math:`\\theta_k` jointly with an MLP head:

.. math:: z = f_\\theta\\Big(\\sum_k \\theta_k B_k\\Big).

Because the coefficients can realise low-, high-, or band-pass responses,
one architecture spans homophilous and heterophilous graphs — the
"universal polynomial basis" argument of UniFilter [15]; the basis choice
is the ablation axis of benchmark E6.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError, ShapeError
from repro.graph.core import Graph
from repro.perf import cached_laplacian, get_default_engine, spmm
from repro.tensor.autograd import Tensor
from repro.tensor.nn import MLP, Module, Parameter
from repro.utils.validation import check_int_range
from scipy.special import comb

_BASES = ("monomial", "chebyshev", "bernstein")


def basis_signals(graph: Graph, degree: int, basis: str = "chebyshev") -> list[np.ndarray]:
    """Precompute :math:`p_k(\\tilde L) X` for ``k = 0..degree``."""
    check_int_range("degree", degree, 0)
    if basis not in _BASES:
        raise ConfigError(f"basis must be one of {_BASES}, got {basis!r}")
    if graph.x is None:
        raise ConfigError("basis_signals requires node features on the graph")
    x = graph.x
    if basis == "monomial":
        # Monomial powers are a plain hop stack — served (and memoized)
        # by the shared propagation engine.
        return get_default_engine().propagate(graph, x, degree, kind="lap")
    lap = cached_laplacian(graph, kind="sym")
    if basis == "chebyshev":
        shifted = (lap - sp.identity(graph.n_nodes, format="csr")).tocsr()
        out = [x]
        if degree >= 1:
            out.append(spmm(shifted, x))
        for _ in range(2, degree + 1):
            out.append(2 * spmm(shifted, out[-1]) - out[-2])
        return out
    # Bernstein: B_{k,K}(L/2) X.
    half = (0.5 * lap).tocsr()
    compl_powers = [x]
    for _ in range(degree):
        compl_powers.append(compl_powers[-1] - spmm(half, compl_powers[-1]))
    out = []
    for k in range(degree + 1):
        term = compl_powers[degree - k]
        for _ in range(k):
            term = spmm(half, term)
        out.append(comb(degree, k) * term)
    return out


class SpectralBasisGNN(Module):
    """Decoupled spectral GNN with learnable filter coefficients.

    ``precompute`` returns the list of basis signals; ``forward`` takes
    aligned per-basis row batches. Coefficients are initialised to the
    identity filter (all weight on :math:`B_0`).
    """

    def __init__(
        self,
        in_features: int,
        hidden: int,
        n_classes: int,
        degree: int = 4,
        basis: str = "chebyshev",
        dropout: float = 0.0,
        seed=None,
    ) -> None:
        super().__init__()
        check_int_range("degree", degree, 0)
        if basis not in _BASES:
            raise ConfigError(f"basis must be one of {_BASES}, got {basis!r}")
        self.degree = degree
        self.basis = basis
        theta0 = np.zeros((1, degree + 1))
        theta0[0, 0] = 1.0
        self.theta = Parameter(theta0)
        self.head = MLP(in_features, hidden, n_classes, n_layers=2,
                        dropout=dropout, seed=seed)
        self._selectors = [
            Tensor(np.eye(degree + 1)[:, k : k + 1]) for k in range(degree + 1)
        ]

    def precompute(self, graph: Graph) -> list[np.ndarray]:
        return basis_signals(graph, self.degree, self.basis)

    def forward(self, basis_rows: list[np.ndarray]) -> Tensor:
        if len(basis_rows) != self.degree + 1:
            raise ShapeError(
                f"expected {self.degree + 1} basis matrices, got {len(basis_rows)}"
            )
        combined = None
        for k, rows in enumerate(basis_rows):
            b_k = rows if isinstance(rows, Tensor) else Tensor(rows)
            coeff = self.theta @ self._selectors[k]  # (1, 1)
            term = coeff * b_k
            combined = term if combined is None else combined + term
        return self.head(combined)

    def filter_coefficients(self) -> np.ndarray:
        """The learned coefficients (for response inspection)."""
        return self.theta.data.ravel().copy()
