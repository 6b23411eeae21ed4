#!/usr/bin/env python3
"""Play-by-play of one degree improvement (Figures 4 and 5 of the paper).

The script runs the protocol on a small hub-and-ring network with full event
tracing and prints, round by round, the message types in flight -- making the
Cycle_Search -> Action_on_Cycle -> Improve -> Remove/Back pipeline of
Figure 4 visible, together with the evolution of the tree degree.

Run with::

    python examples/degree_reduction_trace.py
"""

from __future__ import annotations

from collections import Counter

from repro.core import MDSTConfig, build_mdst_network, initialize_from_tree
from repro.core.legitimacy import current_tree_degree, mdst_legitimacy
from repro.graphs import bfs_spanning_tree, hard_hub_graph, tree_degree
from repro.sim import Simulator, SynchronousScheduler, TraceRecorder


def main() -> None:
    graph = hard_hub_graph(8)  # hub 0 of degree 8, its neighbours form a ring
    tree = bfs_spanning_tree(graph)
    print(f"network: hub-and-ring, n={graph.number_of_nodes()}, "
          f"m={graph.number_of_edges()}")
    print(f"initial tree degree (BFS star at the hub): "
          f"{tree_degree(graph.nodes, tree)}\n")

    config = MDSTConfig(seed=3, search_period=2)
    network = build_mdst_network(graph, config)
    initialize_from_tree(network, tree)
    trace = TraceRecorder()
    simulator = Simulator(network, scheduler=SynchronousScheduler(),
                          legitimacy=mdst_legitimacy, stability_window=4,
                          trace=trace)

    previous_degree = current_tree_degree(network)
    print(f"{'round':>5} | {'deg(T)':>6} | protocol messages delivered this round")
    print("-" * 72)
    for _ in range(200):
        simulator.step_round()
        events = [e for e in trace.events if e.round_index == simulator.rounds_executed - 1
                  and e.kind == "deliver" and e.message_type != "MInfo"]
        counts = Counter(e.message_type for e in events)
        degree = current_tree_degree(network)
        marker = "  <-- degree reduced" if degree < previous_degree else ""
        if counts or marker:
            summary = ", ".join(f"{name} x{count}" for name, count in sorted(counts.items()))
            print(f"{simulator.rounds_executed:>5} | {degree:>6} | {summary}{marker}")
        previous_degree = degree
        if simulator.monitor is not None and simulator.monitor.converged:
            break

    print("-" * 72)
    print(f"converged after {simulator.rounds_executed} rounds; "
          f"final tree degree = {current_tree_degree(network)} "
          f"(optimal is 2, the ring through all hub neighbours)")
    print("\nper-node reduction statistics:")
    for v in network.node_ids:
        stats = network.processes[v].stats
        if stats["removals_performed"] or stats["attachments"]:
            print(f"  node {v}: removals={stats['removals_performed']}, "
                  f"attachments={stats['attachments']}, "
                  f"searches={stats['searches_initiated']}")


if __name__ == "__main__":
    main()
