"""gradedlab: a numerical laboratory for Z/2-graded matrix calculus.

Core layers:

* graded      -- graded spaces, matrices, commutators, Koszul tensor products
* funcalc     -- spectral functional calculus, bounded transforms
* pairs       -- asymptotic pairs, decay profiles, the composition calculus
* bott        -- Hermite-truncated Bott-Dirac model and perturbation checks
* estimates   -- exponential and transform bound measurements
* experiments -- seeded verification suites behind the `lab` command
* reporting   -- bound certificates and byte-deterministic report files
"""

from .graded import (
    GradedMatrix,
    GradedSpace,
    OddSelfAdjoint,
    conjugate_by_grading,
    direct_sum,
    graded_commutator,
    graded_tensor,
    identity,
    operator_norm,
    zeros,
)
from .funcalc import (
    CAYLEY,
    GAUSS0,
    GAUSS1,
    MULTIPLIER_G,
    NAMED_FUNCTIONS,
    RESOLVENT_MINUS,
    RESOLVENT_PLUS,
    ScalarFunction,
    Spectrum,
    bounded_transform_function,
)
from .pairs import (
    AsymptoticPair,
    DecayProfile,
    compose_pairs,
    default_t_grid,
    factorization_defect_profiles,
    identity_pushforward,
    validate_pair,
)
from .bott import (
    BottOperators,
    LadderSpectrum,
    bott_dirac,
    dc_commutator_check,
    hermite_model,
    ladder_spectrum,
    multiplication_generators,
    perturbation_check,
    spectrum_and_kernel,
)
from .estimates import (
    exp_product_bound_check,
    exp_product_path_profiles,
    exp_product_series_bound,
    exp_shift_bound_check,
    matrix_exp,
    transform_commutator_check,
    transform_sum_sweep,
)
from .experiments import ExperimentConfig, load_config, run_experiment
from .reporting import BoundCertificate, emit_report

__version__ = "0.1.0"
