"""orthostab: a numerical laboratory for orthogonal stability.

Implements and verifies, at desk scale, the quantitative stability of
the pexiderized quadratic functional equation

    f(x+y) + g(x-y) = h(x) + k(y)

restricted to orthogonal pairs: any quadruple violating the equation by
at most eps on orthogonal pairs lies within explicit multiples of eps
of an exact solution assembled from an additive and a quadratic map.
The package provides computable orthogonality relations (trivial,
inner-product, Birkhoff-James), a function-space layer with parity
projections, the contractive rescaling operators whose fixed points are
the additive and quadratic components, perturbation generators, the
measurement pipeline, and a command-line interface.
"""

from .orthogonality import (DEFAULT_TOL, AxiomReport, DimensionMismatchError,
                            NormSpec, OrthoRelation, PairGenerationError,
                            ThalesianNotFoundError, birkhoff_james_relation,
                            bj_margin, check_axioms, inner_product_relation,
                            is_orthogonal, norm_eval,
                            sample_orthogonal_pairs, symmetrize_relation,
                            thalesian_solve, trivial_relation, unit_perp)
from .funcspace import (INFINITE, EvaluationError, MapHandle, SampleGrid,
                        even_part, make_grid, map_scale, map_sum, odd_part,
                        shift_to_zero, sup_distance, sup_norm, zero_map)
from .fixedpoint import (IterationResult, ScalingOperator, apriori_bound,
                         iterate)
from .perturb import (GroundTruth, compose_cauchy_instance,
                      compose_pexider_instance, compose_quadratic_instance,
                      make_additive, make_bounded_noise, make_cubic_growth,
                      make_quadratic, random_ground_truth)
from .stability import (ADDITIVE_CASE_COEFFS, MAIN_BOUND_COEFFS, BoundCheck,
                        DefectReport, DivergenceError, DoublingIdentityError,
                        PipelineConfig, RatzDecomposition, StabilityReport,
                        closure_pairs, derive_normalized_parts,
                        doubling_defect, extract_even, extract_odd,
                        mixed_parity_defect, necessity_check, pexider_defect,
                        ratz_decompose, run_cauchy_corollary,
                        run_inner_product_corollary, run_main_theorem,
                        run_quadratic_corollary)

__version__ = "0.1.0"
