"""trapscope: numerical certification of higher-order trap behaviour of the
zero control for strongly degenerate ladder quantum control systems."""

import os

# One OpenBLAS thread unless the caller sets OPENBLAS_NUM_THREADS.  OpenBLAS
# reads the variable once, when the submodule imports below load numpy, so it
# is set only around them and the caller's child processes inherit the
# environment they had; if numpy was loaded earlier it changes nothing.  No
# BLAS call here is large enough to use a second thread, and an idle worker
# spins at start-up: on a 2-vCPU host `import numpy` takes 0.31 s of CPU for
# 0.21 s of wall time with OpenBLAS's default of one thread per CPU, against
# 0.21 s of each with one.  Outputs do not depend on the thread count.
_one_blas_thread = "OPENBLAS_NUM_THREADS" not in os.environ
if _one_blas_thread:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .controls import PiecewiseControl, random_direction, read_control_file
from .dynamics import (
    DysonForms,
    dyson_forms,
    kernel_form_A1N,
    objective,
    propagate,
    unitarity_defect,
)
from .errors import TrapscopeError
from .landscape import (
    CertificateConfig,
    LieAlgebraResult,
    TaylorFit,
    TrapReport,
    differential,
    lie_rank,
    probe_direction,
    taylor_fit,
    trap_certificate,
    witness_search,
)
from .model import (
    Observable,
    ProblemInstance,
    SystemSpec,
    build_instance,
    build_observable,
    build_system,
)

if _one_blas_thread:
    del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

# What the certify, differential, scan and controllability commands and the
# benchmark harness call, and the types those calls return.
__all__ = [
    "CertificateConfig",
    "DysonForms",
    "LieAlgebraResult",
    "Observable",
    "PiecewiseControl",
    "ProblemInstance",
    "SystemSpec",
    "TaylorFit",
    "TrapReport",
    "TrapscopeError",
    "build_instance",
    "build_observable",
    "build_system",
    "differential",
    "dyson_forms",
    "kernel_form_A1N",
    "lie_rank",
    "objective",
    "probe_direction",
    "propagate",
    "random_direction",
    "read_control_file",
    "taylor_fit",
    "trap_certificate",
    "unitarity_defect",
    "witness_search",
]
