"""Structured low-rank matrix learning on the unit-Frobenius-norm manifold.

Learns d x T matrices W = U U^T (Z + A*(s)) by minimizing a fixed-rank dual
objective g(U) with Riemannian conjugate-gradient or trust-region solvers,
for matrix completion (square, absolute, epsilon-insensitive losses),
nonnegative completion, Hankel matrix learning, and multi-task feature
learning, with a computable optimality gap certificate.
"""

from .adapters import (
    CompletionAdapter,
    HankelAdapter,
    HankelProblem,
    MTFLAdapter,
    MTFLTaskSet,
    NonnegCompletionAdapter,
    RobustCompletionAdapter,
    hankel_recover_signal,
    make_completion_adapter,
    metrics,
    predict_completion,
    predict_mtfl,
    rank_sweep,
)
from .data import (
    ColumnSparseMatrix,
    GroundTruth,
    LTISystemSpec,
    SplitSpec,
    SynthCompletion,
    load_triplets,
    save_triplets,
    split,
    synth_completion,
    synth_hankel,
)
from .inner import (
    DualCertificate,
    GapReport,
    PrimalFactor,
    RegularizationParams,
    duality_gap,
    nuclear_norm_sq,
    primal_objective,
    reconstruct_primal,
    variational_theta_residual,
)
from .solvers import (
    NUMERICAL_ERROR,
    IterationRecord,
    SolveResult,
    SolverConfig,
    initialize_point,
    solve_cg,
    solve_tr,
)
from .spectrahedron import (
    ManifoldPoint,
    TangentVector,
    inner_product,
    manifold_point,
    normalized_point,
    project_horizontal,
    project_tangent,
    random_point,
    retract,
    riemannian_gradient,
    riemannian_hess_vec,
)

__version__ = "0.1.0"
