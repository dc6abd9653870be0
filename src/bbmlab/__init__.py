"""Monte Carlo laboratory for branching Brownian energy models at
complex inverse temperature, with the matching closed-form predictions.

The simulation layer builds continuous-time offspring trees, lays
correlated Gaussian energies on their leaves, and reduces them to
partition sums, martingales, extremal point collections and limit-object
draws.  The analytic layer carries the conjectured free energy, moment
identities and tail constants those simulations are tested against.
"""

from .accum import compensated_sum, scaled_exp_sum
from .extremal import (AcceptanceError, Cluster, LimitModel,
                       estimate_cox_constants, load_cluster_bank,
                       sample_cluster, sample_clusters,
                       sample_limit_partition, save_cluster_bank)
from .field import max_position, sample_correlated_pair, sample_field
from .gwtree import ResourceLimitError, overlap, sample_tree
from .offspring import OffspringDistribution
from .oracles import (bridge_barrier_bound, envelope_curve,
                      gaussian_tail_bound, limit_max_cdf,
                      many_to_two_pair_moment, martingale_second_moment)
from .partition import (additive_martingale, derivative_martingale,
                        log_partition, m_of_t, partition_function,
                        rescaled_partition, truncated_partition)
from .phase import Region, classify, grid_scan, limiting_free_energy, point_scan
from .stats import (empirical_cf, hill_estimator, isotropic_resample,
                    isotropy_radii, isotropy_statistic, ks_distance,
                    max_tail_exponent)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceError", "Cluster", "LimitModel", "OffspringDistribution",
    "Region", "ResourceLimitError",
    "additive_martingale", "bridge_barrier_bound",
    "classify", "compensated_sum",
    "derivative_martingale", "empirical_cf", "envelope_curve",
    "estimate_cox_constants",
    "gaussian_tail_bound", "grid_scan", "hill_estimator",
    "isotropic_resample", "isotropy_radii", "isotropy_statistic",
    "ks_distance", "limit_max_cdf", "limiting_free_energy",
    "load_cluster_bank", "log_partition", "m_of_t",
    "many_to_two_pair_moment", "martingale_second_moment", "max_position",
    "max_tail_exponent", "overlap", "partition_function", "point_scan",
    "rescaled_partition", "sample_cluster",
    "sample_clusters", "sample_correlated_pair", "sample_field",
    "sample_limit_partition", "sample_tree", "save_cluster_bank",
    "scaled_exp_sum", "truncated_partition",
]
