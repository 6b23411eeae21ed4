#!/usr/bin/env python3
"""Peer-to-peer scenario: fairness of relay load and recovery under real churn.

The paper's second motivation (§1) is peer-to-peer overlays: a node relaying
traffic for many others sacrifices its own bandwidth, so overlays whose trees
have low maximum degree are "fairer" and give peers less incentive to cheat.

This example builds a scale-free peer graph (Barabási–Albert, i.e. with a few
natural super-peers), constructs the MDST overlay, and then subjects it to
*real* churn: peers actually leave the network (taking their links and any
in-flight traffic with them), new peers join and link up, and connections
appear and die -- all through the live topology APIs, not by resetting state
on a frozen graph.  The self-stabilizing protocol re-converges without any
global restart to a minimum-degree tree *of the mutated network*, and the
relay load stays balanced.

Run with::

    python examples/p2p_churn_recovery.py
"""

from __future__ import annotations

from repro.analysis import format_table, gini
from repro.baselines import evaluate_simple_trees
from repro.graphs import make_graph, tree_degrees
from repro.protocols import ProtocolRunConfig, run_protocol
from repro.sim import ChurnPlan


def main() -> None:
    graph = make_graph("barabasi_albert", 20, seed=11)
    print(f"peer graph: {graph.number_of_nodes()} peers, "
          f"{graph.number_of_edges()} connections")

    # Overlay candidates: the trees generic P2P systems use vs the MDST overlay.
    rows = []
    for name, baseline in evaluate_simple_trees(graph, seed=11).items():
        degrees = list(tree_degrees(graph.nodes, baseline.tree_edges).values())
        rows.append({"overlay": name, "max relay degree": max(degrees),
                     "relay-load gini": round(gini(degrees), 3)})

    result = run_protocol(graph, ProtocolRunConfig(seed=11, initial="isolated",
                                                   max_rounds=5000))
    mdst_degrees = list(tree_degrees(graph.nodes, result.tree_edges).values())
    rows.append({"overlay": "self-stabilizing MDST",
                 "max relay degree": max(mdst_degrees),
                 "relay-load gini": round(gini(mdst_degrees), 3)})
    print()
    print(format_table(rows, title="relay load fairness by overlay"))
    print(f"\nMDST overlay converged: {result.converged} "
          f"(round {result.run.extra['convergence_round']}, "
          f"{result.run.messages} messages)")

    # Real churn: two peers leave (links and in-flight messages die with
    # them), two fresh peers join and link to survivors, and one direct
    # connection appears while another drops.  The overlay must re-converge
    # to a minimum-degree tree of the *mutated* peer graph.
    leavers = sorted(graph.nodes, key=graph.degree)[:2]        # two leaf-ish peers
    survivors = [v for v in sorted(graph.nodes) if v not in leavers]
    new_a, new_b = max(graph.nodes) + 1, max(graph.nodes) + 2
    plan = (ChurnPlan()
            .remove_node(400, leavers[0])
            .add_node(600, new_a, survivors[:2])
            .remove_node(800, leavers[1])
            .add_node(1000, new_b, [new_a, survivors[2]])
            .add_edge(1200, new_b, survivors[3])
            .remove_edge(1400, survivors[0], survivors[1]))
    churn = run_protocol(
        graph,
        ProtocolRunConfig(seed=11, initial="bfs_tree", max_rounds=8000,
                          n_upper=graph.number_of_nodes() + 3),
        churn_plan=plan)

    extra = churn.run.extra
    print(f"\nunder churn (2 leaves, 2 joins, 1 link up, 1 link down):")
    print(f"  events applied={extra['churn_applied']}, "
          f"skipped={extra['churn_skipped']}, "
          f"in-flight messages dropped={extra['dropped_messages']}")
    print(f"  peers {graph.number_of_nodes()} -> {extra['final_n']}, "
          f"connections {graph.number_of_edges()} -> {extra['final_m']}")
    final_degrees = list(tree_degrees(churn.final_graph.nodes,
                                      churn.tree_edges).values())
    print(f"  re-converged={churn.converged} at round "
          f"{extra['convergence_round']} (last event at round "
          f"{max(extra['churn_rounds'])})")
    print(f"  final overlay: max relay degree={max(final_degrees)}, "
          f"relay-load gini={round(gini(final_degrees), 3)}")


if __name__ == "__main__":
    main()
