"""Fixed reference work, run as a child between timed CLI calls.

Its wall time measures how fast the host runs this kind of code right now:
interpreter start, the numpy import, a Python loop and small numpy array
operations. It does not touch pipeuq, so no change to the program moves it.
run.py divides each timed call by the calibration runs on either side of it.
"""

import numpy as np

rng = np.random.default_rng(0)
total = 0
for i in range(400_000):
    total += i * i % 7
for _ in range(200):
    flags = rng.random(100_000) < 0.5
    total += int(flags.sum()) + len(np.flatnonzero(flags))
print(total)
