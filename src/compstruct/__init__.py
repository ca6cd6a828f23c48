"""Exact tables, samplers and consistency checks for composition structures.

The exact layers (composition, laws, structural, verify, tables) import no
numpy.  The sampling names below load ``compstruct.stochastic``, and numpy
with it, on first access, so a process that never samples never pays for it.
"""

from .composition import (MAX_ENUM_N, Composition, Partition,
                          enumerate_compositions, enumerate_partitions)
from .laws import (Cpf, DecrementMatrix, DecrementMatrixPair, LevySpec,
                   MeanderLaw, beta_meander, ewens_cpf, fragment_cpf,
                   levy_exponent, markov_cpf, meander_moments, partition_law,
                   polya_q, potential_from_levy, renewal_cpf, sibi_cpf,
                   two_param_levy, two_param_q, two_param_stationary_pair,
                   upchain_transition)
from .structural import (ReconstructionError, StructuralMoments,
                         block_count_row, deletion_law, expected_num_parts,
                         last_part_law, potential_from_cpf, reconstruct_markov,
                         size_biased_part_law, structural_moments)
from .verify import (CheckReport, check_decrement_recursions,
                     check_right_consistency, check_theorem_SL,
                     check_uniform_consistency, chi_square_gof)

__version__ = "0.1.0"

_STOCHASTIC_NAMES = frozenset({
    "RngStream", "batch_arrangements", "batch_ewens_strings",
    "batch_markov_compositions", "batch_poisson_construction", "batch_renewal_strings",
    "batch_uniform_construction", "codes_to_counts", "poisson_sampling_composition",
    "sample_partition_batch", "ScaleInvariantSet", "uniform_sampling_composition"})


def __getattr__(name):
    # not cached here, so a name rebound in compstruct.stochastic reads through
    if name in _STOCHASTIC_NAMES:
        from . import stochastic

        return getattr(stochastic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def backend_name() -> str:
    """Name of the sampling backend: every kernel is vectorised numpy."""
    return "numpy"
