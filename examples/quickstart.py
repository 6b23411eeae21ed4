#!/usr/bin/env python3
"""Quickstart: build a network, run the self-stabilizing MDST protocol, and
compare the resulting tree against the trees you would get for free.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis import evaluate_tree, format_table
from repro.baselines import evaluate_simple_trees, exact_mdst_degree
from repro.graphs import make_graph, summarize
from repro.protocols import ProtocolRunConfig, run_protocol


def main() -> None:
    # A wheel network: one hub connected to a ring of 11 nodes.  The "free"
    # BFS tree is the star around the hub (degree 11); the optimum is 2.
    graph = make_graph("wheel", 12)
    print("network:", summarize(graph).as_dict())

    # Run the full message-passing protocol: every node starts isolated
    # (own root, empty channels) and the system self-organises.
    result = run_protocol(graph, ProtocolRunConfig(seed=1, initial="isolated",
                                                   max_rounds=3000))
    print(f"\nconverged      : {result.converged}")
    print(f"rounds         : {result.run.extra['convergence_round']}")
    print(f"messages       : {result.run.messages}")
    print(f"tree degree    : {result.tree_degree}")

    # Compare against the exact optimum (small instance) and naive trees.
    optimal = exact_mdst_degree(graph)
    quality = evaluate_tree(graph, result.tree_edges, optimal_degree=optimal)
    print(f"optimal degree : {optimal}  (algorithm guarantees <= {optimal + 1})")
    print(f"within one?    : {quality.within_one_of_optimal}")

    rows = []
    for name, baseline in evaluate_simple_trees(graph, seed=1).items():
        rows.append({"tree": name, "max degree": baseline.degree,
                     "leaves": baseline.leaves})
    rows.append({"tree": "self-stabilizing MDST", "max degree": quality.degree,
                 "leaves": quality.leaves})
    print()
    print(format_table(rows, title="maximum degree by construction"))


if __name__ == "__main__":
    main()
