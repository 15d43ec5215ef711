"""Dynamic social network: incremental analytics over an edge stream.

Simulates a growing social network (FFT-DG edges arriving in batches,
the WGB-style workload) and maintains connectivity and PageRank with
PEval/IncEval streaming sessions, comparing the warm supersteps against
a cold recompute of each window.

Run with:  python examples/dynamic_social_network.py
"""

import numpy as np

from repro.bench.reporting import render_table
from repro.datagen.dynamic import generate_stream
from repro.platforms.vertex_centric.streaming import StreamingSession


def main() -> None:
    stream = generate_stream(3000, num_batches=12, alpha=25.0, seed=8)
    print(f"Edge stream: {stream.total_edges} edges over "
          f"{len(stream)} batches on {stream.num_vertices} users\n")

    wcc = StreamingSession(stream.num_vertices, "wcc")
    pr = StreamingSession(stream.num_vertices, "pr")
    rows = []
    for t, batch in enumerate(stream):
        wcc.process_window(batch)
        warm = pr.process_window(batch)
        cold, _ = pr.recompute_window(stream.snapshot(t))
        rows.append([t, warm.new_edges, np.unique(wcc.values()).size,
                     warm.supersteps, cold.supersteps])
    print(render_table(
        "Per-window incremental maintenance",
        ["Window", "Edges", "Components", "PR steps (warm)",
         "PR steps (cold)"],
        rows,
    ))

    ranks = pr.values()
    top = ranks.argsort()[-3:][::-1]
    print("Most influential users at the end of the stream:",
          ", ".join(f"#{v} ({ranks[v]:.2e})" for v in top))


if __name__ == "__main__":
    main()
