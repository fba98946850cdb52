"""Fixed reference program, timed between the benchmark's operations.

It does the kinds of work a wedgecap call does: interpreter start-up, the
numpy and scipy.sparse imports, a pure-Python loop, vectorised numpy passes
and a sparse direct solve.  It imports nothing from wedgecap, so no change to
the program moves its time; only the machine's speed does.  ``run.py``
divides the operations' wall times by its median wall time in the same run.
"""

import numpy
import scipy.sparse
import scipy.sparse.linalg

N = 40_000

total = 0
for i in range(20 * N):
    total += i * i % 7
grid = numpy.linspace(0.0, 1.0, N)
for _ in range(40):
    grid = numpy.sort(numpy.cos(3.0 * grid) + grid)
off = numpy.full(N - 1, -1.0)
lap = scipy.sparse.diags([off, numpy.full(N, 4.0), off], [-1, 0, 1], format="csc")
x = scipy.sparse.linalg.spsolve(lap, numpy.ones(N))
assert abs(lap @ x - 1.0).max() < 1e-8
