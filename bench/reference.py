"""Fixed reference job: how fast this host runs gcfit-like work right now.

    python bench/reference.py

The job never changes and uses no gcfit code: interpreter start-up and
``import numpy``, a strict parse of a fixed 20000 x 12 CSV text with the
``csv`` module and ``int`` (the kind of loop that dominates ``gcf synth``
and ``gcf score``), and a few passes over an 8 MB array (the dense-table
work of exact scoring).  ``bench/run.py`` runs it between the steps of a
workload and scales each step's wall time by REFERENCE_S / (the job's wall
time around that step), which takes out most of the slow-down that other
tenants of a shared host cause for tens of seconds at a time.
"""

import csv
import io

import numpy as np

ROWS, COLS = 20_000, 12

text = "\n".join(",".join(str((7 * i + j) % 2) for j in range(COLS)) for i in range(ROWS))
rows = [[int(cell) for cell in row] for row in csv.reader(io.StringIO(text))]
codes = np.array(rows) @ (1 << np.arange(COLS))
counts = np.bincount(codes, minlength=1 << COLS)
table = np.linspace(0.0, 1.0, 1 << 20)
for _ in range(4):
    table = table * 0.5 + 0.25
assert counts.sum() == ROWS and table.size == 1 << 20
