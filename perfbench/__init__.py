"""End-to-end and per-layer benchmark of the repro serve and search stacks.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` describes
the workloads and metrics.  This module imports nothing heavy, so the
entry point can pin BLAS threads before numpy loads.
"""

#: Environment variables that cap BLAS/OpenMP threads.  The entry point
#: sets each to ``"1"`` before numpy is first imported, so forked replicas
#: and search workers inherit one BLAS thread per process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
