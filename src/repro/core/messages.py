"""Protocol messages of the self-stabilizing MDST algorithm (§3.1 "Messages").

Seven message types are defined by the paper; this module implements them as
frozen dataclasses on top of the simulator's :class:`~repro.sim.messages.Message`.

* :class:`MInfo` -- the ``InfoMsg`` gossip carrying a node's variables.
* :class:`Search` -- the DFS token discovering a fundamental cycle.
* :class:`Remove` -- drives an improvement: locate and delete the target tree
  edge, then (re-used with ``reversing=True``) re-orient the part of the
  cycle that changed sides, ending with the new edge being adopted.
* :class:`Back` -- re-orients the already-traversed part of the cycle when the
  deleted edge's child side faces the search initiator (Figure 5, case (b)).
* :class:`Deblock` -- asks the subtree of a blocking node to look for a cycle
  through that node so its degree can be reduced.
* :class:`Reverse` -- point-to-point orientation fix used when a reversal
  meets an edge modified by a concurrent improvement.
* :class:`UpdateDist` -- distance refresh after a re-orientation.

Two notes on fidelity:

* ``Search`` carries a ``visited`` tuple in addition to the paper's ``path``:
  a distributed DFS needs to know which nodes were already explored in order
  to backtrack, and the paper explicitly forbids storing per-search state at
  nodes ("the path information is never stored at a node"), so the visited
  set must travel with the token.  The message stays O(n log n) bits, the
  bound claimed in §5.
* ``UpdateDist``/``Reverse`` are retained for fidelity but the implementation
  does not *depend* on them: the spanning-tree layer's distance-repair rule
  (R3) heals distances from gossip alone, which is simpler and strictly more
  robust under concurrent improvements (see "Engineering substitutions" in
  docs/architecture.md).

Every payload leaf is an ``int``, a ``bool`` or ``None``, so a message's
size in bits depends on ``n`` and on its *size shape* alone: which optional
field is ``None`` and how long its tuples are.  Each type declares that
shape (:func:`~repro.sim.messages.size_shape`), and the simulator sizes
one message per shape.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..sim.messages import Message, message_dataclass, size_shape

__all__ = ["MInfo", "Search", "Remove", "Back", "Deblock", "Reverse", "UpdateDist"]


def _constant(message) -> None:
    """Size shape of a type whose payload is a fixed set of ints and bools."""
    return None


@size_shape(_constant)
@message_dataclass
class MInfo(Message):
    """``InfoMsg``: periodic gossip of all protocol variables of the sender."""

    root: int
    parent: int
    distance: int
    degree: int          # deg_v: the sender's degree in the current tree
    sub_max: int         # feedback value of the PIF max-degree computation
    dmax: int            # the sender's estimate of deg(T)
    color: bool          # color_tree_v: local dmax-consistency flag


@size_shape(lambda m: (m.idblock is None, len(m.path), len(m.visited)))
@message_dataclass
class Search(Message):
    """DFS token looking for the fundamental cycle of ``init_edge``.

    ``init_edge`` is ``(target, initiator)``: the initiator is the smaller-id
    endpoint of the non-tree edge, the target the other endpoint; the token
    walks tree edges until it reaches the target.  ``path`` is the DFS stack
    of ``(node, degree)`` pairs from the initiator to the sender of the
    current hop; ``visited`` lists every node the token has entered.
    ``idblock`` is ``None`` for a spontaneous search and the identifier of a
    blocking node when the search was triggered by a ``Deblock`` wave.
    """

    init_edge: Tuple[int, int]
    idblock: Optional[int]
    path: Tuple[Tuple[int, int], ...]
    visited: Tuple[int, ...]


@size_shape(lambda m: len(m.path))
@message_dataclass
class Remove(Message):
    """Improvement driver circulating along a fundamental cycle.

    ``init_edge`` is ``(action_node, initiator)`` -- the non-tree edge to be
    added.  ``target_edge`` is the tree edge to delete, ``deg_max`` the degree
    its to-be-reduced endpoint must still have for the swap to be valid.
    ``path`` is the full cycle node sequence ``(initiator, ..., action_node)``.
    ``reversing`` is ``False`` while the message is still looking for the
    target edge and ``True`` once it is re-orienting parents toward the
    action node.
    """

    init_edge: Tuple[int, int]
    deg_max: int
    target_edge: Tuple[int, int]
    path: Tuple[int, ...]
    reversing: bool = False


@size_shape(lambda m: len(m.path))
@message_dataclass
class Back(Message):
    """Re-orientation wave travelling back toward the initiator (Fig. 5(b))."""

    init_edge: Tuple[int, int]
    path: Tuple[int, ...]
    position: int        # index in ``path`` of the node this hop is addressed to


@size_shape(_constant)
@message_dataclass
class Deblock(Message):
    """Request to reduce the degree of blocking node ``idblock``."""

    idblock: int


@size_shape(_constant)
@message_dataclass
class Reverse(Message):
    """Point-to-point parent re-orientation up to ``target`` (Reverse_Aux)."""

    target: int


@size_shape(_constant)
@message_dataclass
class UpdateDist(Message):
    """Distance refresh propagated down a re-oriented path."""

    target_edge: Tuple[int, int]
    dist: int
