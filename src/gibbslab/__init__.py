"""gibbslab: random periodic potentials and their spectral statistics.

A numerical laboratory that draws random periodic fields from truncated
Gibbs ensembles of the periodic NLS and KdV Hamiltonians, computes the
spectral data of the associated Dirac and Hill operators, certifies
uniform convexity of perturbed Hamiltonians, and measures concentration
of spectral linear statistics.
"""

__version__ = "0.1.0"

from .fourier_field import (  # noqa: F401
    PeriodicField,
    evaluate,
    field_from_json,
    field_to_json,
    hamiltonian,
    kdv_hamiltonian,
    l2_norm_sq,
    load_field,
    lp_integral,
    save_field,
    sobolev_norm_sq,
    zero_field,
)
from .gibbs_sampler import (  # noqa: F401
    GibbsEnsemble,
    GibbsParams,
    effective_sample_size,
    gibbs_weight,
    importance_ensemble,
    in_omega,
    load_ensemble_jsonl,
    mcmc_ensemble,
    sample_kdv_loop,
    sample_wiener_loop,
    save_ensemble_jsonl,
)
