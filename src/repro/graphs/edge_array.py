"""Flat edge-array graph container for the large-n construction fast path.

An :class:`EdgeArrayGraph` holds a simple undirected graph on nodes
``0 .. n-1`` as two parallel numpy arrays of endpoints -- nothing is stored
per node or per edge as a Python object.  It is what the vectorized
generators in :mod:`repro.graphs.fast_generators` produce and what every
array network of :mod:`repro.sim.array_kernel` is built from (an nx input
is converted to one first): the cached CSR adjacency built here *is* the
kernel topology, so at n = 10k+ a network materializes without ever
touching :mod:`networkx`.

Every consumer that genuinely needs an object graph keeps working: the
container materializes (and caches) an equivalent :class:`networkx.Graph`
on first request through :meth:`to_networkx`, inserting nodes and edges in
canonical order, so the object backend run on it creates its channels in
the order the array network does and the two stay byte-identical.

Canonical form
--------------
The constructor normalizes any edge soup into the canonical layout the
rest of the pipeline relies on: endpoints ordered ``u < v`` within each
edge, edges sorted lexicographically by ``(u, v)``, self-loops dropped and
duplicates collapsed.  Connectivity queries and repair run over the same
arrays via a vectorized union-find (:func:`union_find_labels`), never
through ``nx.connected_components``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import networkx as nx
import numpy as np

from ..exceptions import GraphError

__all__ = [
    "EdgeArrayGraph",
    "canonical_edge_arrays",
    "union_find_labels",
    "connect_components",
]

_I64 = np.int64


def canonical_edge_arrays(n: int, u: np.ndarray, v: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize endpoint arrays to the canonical simple-graph layout.

    Orders each pair ``u < v``, drops self-loops, deduplicates, and sorts
    edges lexicographically.  Raises on endpoints outside ``[0, n)``.
    """
    u = np.asarray(u, dtype=_I64).ravel()
    v = np.asarray(v, dtype=_I64).ravel()
    if u.shape != v.shape:
        raise GraphError("edge endpoint arrays must have equal length")
    if u.size:
        if int(min(u.min(), v.min())) < 0 or int(max(u.max(), v.max())) >= n:
            raise GraphError(f"edge endpoint outside [0, {n})")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    # Lexicographic sort + dedup via the linearized pair key (n <= 2**31
    # keeps the product comfortably inside int64).  Not ``np.unique``: on
    # numpy 2.x its first call imports ``numpy.ma``, which would land in
    # the timed region of an array run built from an nx graph.
    key = np.sort(lo * _I64(n) + hi)
    key = key[np.diff(key, prepend=_I64(-1)) != 0]
    return (key // n).astype(_I64), (key % n).astype(_I64)


def union_find_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected-component labels via a vectorized union-find.

    Shiloach--Vishkin style: alternate full pointer-jumping passes with a
    minimum-root hooking step over all edges until no edge spans two
    components.  Converges in O(log n) vectorized rounds; the returned
    label of each node is the smallest node id in its component.
    """
    parent = np.arange(n, dtype=_I64)
    if u.size == 0:
        return parent
    while True:
        # Full path compression: parent becomes the component root.
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        ru = parent[u]
        rv = parent[v]
        lo = np.minimum(ru, rv)
        hi = np.maximum(ru, rv)
        cross = lo != hi
        if not cross.any():
            return parent
        # Hook the larger root onto the smaller; minimum.at resolves
        # conflicting hooks of one round deterministically (min wins).
        np.minimum.at(parent, hi[cross], lo[cross])


def connect_components(n: int, u: np.ndarray, v: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Repair connectivity by chaining component representatives.

    Components are identified with :func:`union_find_labels`; the smallest
    node of each component (its label) represents it, and consecutive
    representatives in increasing order are linked.  Purely structural and
    deterministic: the repair depends only on the input edge set.
    """
    labels = union_find_labels(n, u, v)
    reps = np.unique(labels)
    if reps.size <= 1:
        return u, v
    extra_u, extra_v = reps[:-1], reps[1:]
    return np.concatenate([u, extra_u]), np.concatenate([v, extra_v])


class EdgeArrayGraph:
    """A simple undirected graph on ``0..n-1`` as flat endpoint arrays.

    Parameters
    ----------
    n:
        Number of nodes (all of ``0..n-1`` are nodes, even if isolated --
        though validated graphs are connected, so none are).
    edges_u, edges_v:
        Parallel endpoint arrays; normalized to canonical form (``u < v``,
        lexicographically sorted, simple) by the constructor.
    family:
        Family tag recorded in :attr:`graph` metadata (mirrors the
        ``graph.graph["family"]`` convention of the nx generators).
    validate:
        When true (the default), verify connectivity immediately;
        otherwise :meth:`validate` may be called later (the array
        network build does, exactly once).
    """

    __slots__ = ("n", "edges_u", "edges_v", "graph", "validated",
                 "_csr", "_nx")

    def __init__(self, n: int, edges_u: np.ndarray, edges_v: np.ndarray, *,
                 family: str = "unknown", validate: bool = True,
                 metadata: Optional[Dict[str, object]] = None):
        if n < 1:
            raise GraphError("EdgeArrayGraph requires n >= 1")
        self.n = int(n)
        self.edges_u, self.edges_v = canonical_edge_arrays(n, edges_u, edges_v)
        #: Graph-level metadata, mirroring ``nx.Graph.graph``.
        self.graph: Dict[str, object] = {"family": family}
        if metadata:
            self.graph.update(metadata)
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._nx: Optional[nx.Graph] = None
        self.validated = False
        if validate:
            self.validate()

    # -- sizes and basic accessors ---------------------------------------------

    def number_of_nodes(self) -> int:
        return self.n

    def number_of_edges(self) -> int:
        return int(self.edges_u.size)

    @property
    def nodes(self) -> range:
        """Node ids (always the contiguous integers ``0..n-1``)."""
        return range(self.n)

    @property
    def edges(self) -> Iterator[Tuple[int, int]]:
        """Edges as ``(u, v)`` int tuples in canonical (sorted) order."""
        return zip(self.edges_u.tolist(), self.edges_v.tolist())

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbour ids of ``v`` (a CSR row slice)."""
        indptr, nbr = self.csr()
        if not 0 <= v < self.n:
            raise GraphError(f"node {v} not in graph")
        return tuple(nbr[int(indptr[v]):int(indptr[v + 1])].tolist())

    def degree_array(self) -> np.ndarray:
        """Degree of every node as one int64 array."""
        indptr, _ = self.csr()
        return np.diff(indptr)

    # -- derived structures ----------------------------------------------------

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached CSR adjacency ``(indptr, neighbours)`` over node ids.

        Built entirely with array primitives: both edge directions are
        concatenated, lexsorted by (row, column), and the row counts
        prefix-summed into ``indptr``.  Each row's neighbour slice comes
        out sorted by id, matching the object backend's per-node views.
        """
        cache = self._csr
        if cache is None:
            rows = np.concatenate([self.edges_u, self.edges_v])
            cols = np.concatenate([self.edges_v, self.edges_u])
            order = np.lexsort((cols, rows))
            nbr = cols[order]
            indptr = np.zeros(self.n + 1, dtype=_I64)
            np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
            cache = (indptr, nbr)
            self._csr = cache
        return cache

    def to_networkx(self) -> nx.Graph:
        """The equivalent :class:`networkx.Graph`, built lazily and cached.

        Nodes are inserted as ``0..n-1`` and edges in canonical sorted
        order, so ``graph.edges`` iterates the canonical order and
        everything keyed on it (channel creation, adjacency dicts) is the
        same on the object backend as on the array network built from
        this container.
        """
        g = self._nx
        if g is None:
            g = nx.Graph()
            g.add_nodes_from(range(self.n))
            g.add_edges_from(zip(self.edges_u.tolist(), self.edges_v.tolist()))
            g.graph.update(self.graph)
            self._nx = g
        return g

    # -- validation ------------------------------------------------------------

    def is_connected(self) -> bool:
        """Connectivity via the vectorized union-find over the edge arrays."""
        labels = union_find_labels(self.n, self.edges_u, self.edges_v)
        return bool((labels == 0).all())

    def validate(self) -> "EdgeArrayGraph":
        """Verify the container is a usable workload instance.

        Canonical form already guarantees simplicity and no self-loops;
        what remains is connectivity (every generator repairs it, but
        hand-built containers may not).  Idempotent and cached.
        """
        if not self.validated:
            if self.n > 1 and self.edges_u.size == 0:
                raise GraphError("edge-array graph has no edges")
            if not self.is_connected():
                raise GraphError("edge-array graph is not connected")
            self.validated = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EdgeArrayGraph(n={self.n}, m={self.number_of_edges()}, "
                f"family={self.graph.get('family', 'unknown')!r})")
