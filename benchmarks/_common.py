"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper.  Run
under pytest (scaled-down, asserts the qualitative shape)::

    pytest benchmarks/ --benchmark-only

or standalone for the full-scale sweep and the formatted table::

    python benchmarks/bench_table1_stale.py

Results are also written to ``benchmarks/out/*.txt`` so EXPERIMENTS.md can
reference a stable artifact.
"""

import json
import os

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def format_table(title, headers, rows):
    """Render an aligned text table."""
    widths = [len(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def emit(name, text):
    """Print the table and persist it under benchmarks/out/."""
    print()
    print(text)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name + ".txt"), "w") as handle:
        handle.write(text + "\n")


def pct(value):
    return "{:.2f}%".format(value)


def write_bench_json(name, results, note):
    """Write ``BENCH_<name>.json`` at the repo root.

    A plain output file the docs quote (``bench/`` is the performance
    gate).  The shape is ``results`` plus a ``benchmark`` tag and a
    free-text ``note`` describing the measurement conditions.
    """
    path = os.path.join(ROOT_DIR, "BENCH_{}.json".format(name))
    payload = dict(results)
    payload["benchmark"] = "bench_{}".format(name)
    payload["note"] = note
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path
