"""Fixed calibration kernel that measures the current speed of the machine.

On small shared machines the speed of the host drifts by 30-50 % over
minutes.  On a 2-core VM, ten consecutive 42-second runs of the L-shape
workload gave medians from 2.67 s to 4.17 s, while the repetitions within
one run mostly stayed within 10 %.  A median within a run cannot remove
such a drift, so ``run.py`` times this fixed kernel in its own process right
after every repetition and reports times scaled to the kernel's reference
time: ``reported = measured * REFERENCE_S / kernel time``.  Over ten such
runs per workload this cut the spread (interquartile range over median) of
the wall-time medians from 0.12 to 0.06 for the uniform workload, from 0.11
to 0.08 for the threshold workload and from 0.15 to 0.12 for the L-shape one.

The kernel uses only NumPy, SciPy and Python, in roughly the proportions of
the workloads' hot paths: a sparse LU factorization, dict-and-list
bookkeeping and batched einsums.  It never calls the package and runs in
the process of ``run.py``, not in the workers, so no change to the package
can change its time.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# kernel time on that VM (Python 3.11.7, NumPy 2.4.6, SciPy 1.17.1, one BLAS
# thread) in a state where the L-shape workload took about 3.5 s
REFERENCE_S = 0.85


def _laplacian(n: int) -> sp.csc_matrix:
    eye = sp.identity(n, format="csr")
    tri = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    return (sp.kron(eye, tri) + sp.kron(tri, eye)).tocsc()


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    rng = np.random.default_rng(0)
    mat = _laplacian(200)
    geo = rng.random((15_000, 12, 6, 2))
    binv = rng.random((15_000, 2, 2))
    start = time.perf_counter()
    lu = splu(mat)
    lu.solve(np.ones(mat.shape[0]))
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(120_000):
        buckets.setdefault((i * 7919 % 100_003, i % 3), []).append(i)
    phys = np.einsum("tqbk,tkl->tqbl", geo, binv)
    np.einsum("tq,tqbl,tqcl->tbc", geo[:, :, 0, 0], phys, phys)
    return time.perf_counter() - start
