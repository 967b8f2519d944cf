"""Fixed reference task timed between a workload's commands.

It does what a berrybox command does, without berrybox: start the
interpreter, import numpy and scipy.linalg, then evaluate trigonometric
samples on quadrature-sized arrays and run pure-Python arithmetic, on one
thread.  Program changes never move its time; changes in host speed move it
as they move the commands'.
"""

import numpy as np
import scipy.linalg  # noqa: F401  (imported for its cost, like berrybox does)

x = np.linspace(-0.5, 0.5, 1024)
total = 0.0
for i in range(1500):
    v = np.sin((1.0 + 1e-3 * i) * x) + np.exp(1j * 0.3) * np.cos((1.0 + 1e-3 * i) * x)
    total += float(np.sum(np.abs(v) ** 2))
acc = 0
for i in range(150_000):
    acc += i * i % 7
print(total, acc)
