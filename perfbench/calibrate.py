"""Fixed work that uses no code of the program: the benchmark's yardstick of machine speed.

    python3 perfbench/calibrate.py

Interpreter start, ``import numpy``, a pure-Python loop and a numpy sort,
in one child process.  ``run.py`` times it between the CLI calls of a run
and scales every reported time by ``REFERENCE_CALIBRATION_S`` over its
median wall time, so that a host that is slower for minutes at a time
moves the yardstick and the program alike.
"""

import numpy as np

total = 0
for i in range(400_000):
    total += i % 7
values = np.random.default_rng(0).random(2_000_000)
for _ in range(3):
    np.sort(values)
