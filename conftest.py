"""Root pytest configuration: pin BLAS to one thread for the test run.

The suite's matrices are small; BLAS worker threads only spin (about 2x
the CPU seconds for the same wall time on a 2-vCPU box).  The variables
are read when NumPy first loads its BLAS, so they are set here, before any
test module imports it.  ``setdefault`` lets an explicit user setting win.
``bench/run.py`` pins the same three variables.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
