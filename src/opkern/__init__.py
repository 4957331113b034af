"""opkern: kernels from feature maps, frame-based reconstruction from
functional samples, and regularized learning from operator-valued data."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    Grid,
    GridFunction,
    dft,
    hermitian_eig,
    inner_product,
    norm,
    pseudoinverse,
    pseudoinverse_apply,
    quadrature,
    restrict,
    solve_hermitian,
)
from .exceptions import (  # noqa: F401
    AdmissibilityError,
    AlignmentError,
    ConditioningError,
    DegenerateFrameError,
    DomainError,
    IndependenceError,
    KernelConsistencyError,
    OpkernError,
    RieszConditionError,
    ShapeMismatchError,
    ValidationError,
)
from .families import (  # noqa: F401
    AverageFunctional,
    AverageSamplingFamily,
    FourierCoefficientFamily,
    PointEvaluationFamily,
    PointInnerFamily,
    SampleSet,
    average_sample,
    family_from_descriptor,
)
from .kernels import (  # noqa: F401
    FeatureMap,
    GramMatrix,
    feature_gram,
    finite_dim_kernel,
    gram,
    integral_kernel_psd_test,
    kernel_from_features,
    psd_check,
    translation_invariant_kernel,
    translation_invariant_section,
)
from .frames import (  # noqa: F401
    DualFrame,
    TruncatedFrame,
    dual_frame,
    dual_inner_product,
    frame_bounds_estimate,
    frame_operator_apply,
    interior_relative_error,
    reconstruct,
    stacked_frame,
)
from .learning import (  # noqa: F401
    LearningProblem,
    RepresenterSolution,
    interpolation_limit,
    learning_problem,
    objective_value,
    regnet_solve,
    sampling_operator,
    stability_reports,
    tikhonov_operator_apply,
)
from . import paley_wiener, shift_invariant  # noqa: F401
