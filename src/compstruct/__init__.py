"""Exact tables, samplers and consistency checks for composition structures."""

from .composition import (EMPTY, MAX_ENUM_N, Composition, Partition,
                          enumerate_compositions, enumerate_partitions,
                          uniform_reduction_kernel)
from .laws import (Cpf, DecrementMatrix, DecrementMatrixPair, LevySpec,
                   MeanderLaw, beta_meander, ewens_cpf, fragment_cpf,
                   levy_binomial, levy_exponent, markov_cpf,
                   meander_moments, partition_law, polya_q,
                   potential_from_levy, pure_drift_meander, renewal_cpf,
                   sibi_cpf, stationary_pair, two_param_levy, two_param_q,
                   two_param_stationary_pair, upchain_transition)
from .stochastic import (RngStream, arrange_partition, batch_arrangements,
                         batch_ewens_strings, batch_markov_compositions,
                         batch_poisson_construction, batch_renewal_strings,
                         batch_uniform_construction, codes_to_counts,
                         fragment_sample, poisson_sampling_composition,
                         sample_bernoulli_string, sample_gem,
                         sample_markov_composition, sample_partition_batch,
                         sample_renewal_string, ScaleInvariantSet,
                         uniform_sampling_composition)
from .structural import (ReconstructionError, StructuralMoments,
                         block_count_row, deletion_law, expected_num_parts,
                         last_part_law, potential_from_cpf, reconstruct_markov,
                         size_biased_part_law, structural_density_check,
                         structural_moments)
from .verify import (CheckReport, check_decrement_recursions,
                     check_left_consistency, check_right_consistency,
                     check_theorem_SL, check_uniform_consistency,
                     chi_square_gof, ks_against_cdf, ks_two_sample)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the sampling backend: every kernel is vectorised numpy."""
    return "numpy"
