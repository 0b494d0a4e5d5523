"""Derived algorithms built on the transformation engine.

Every operation returns the constructed operator together with a report
comparing the measured behavior against the claimed bound.
"""

from .amplify import (amplify_singular_values, fixed_point_amplify,
                      oblivious_amplify)
from .bounds import query_lower_bound
from .estimate import singular_value_estimate
from .hamsim import (fractional_query, gibbs_prep, hamiltonian_simulate,
                     unitary_log)
from .markov import MarkovChain, markov_detect, markov_find, markov_hitting
from .project import (discriminate, fast_or, singular_vector_transform,
                      threshold_projector, threshold_projectors_exact)
from .solve import pcr_solve, pseudoinverse

__all__ = [
    "fixed_point_amplify", "oblivious_amplify", "amplify_singular_values",
    "threshold_projector", "threshold_projectors_exact",
    "singular_vector_transform", "discriminate", "fast_or",
    "pseudoinverse", "pcr_solve",
    "hamiltonian_simulate", "unitary_log", "fractional_query", "gibbs_prep",
    "MarkovChain", "markov_hitting", "markov_detect", "markov_find",
    "singular_value_estimate", "query_lower_bound",
]
