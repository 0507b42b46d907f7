"""Run the suite with single-threaded BLAS, as the benchmark does.

Busy-waiting BLAS worker threads make the wall-clock budgets of the
acceptance gate depend on how loaded the host is.  The variables only take
effect before numpy is first imported, which is why they are set here, when
pytest loads this file, and not in a fixture.  A value already set in the
environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
