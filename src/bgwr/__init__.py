"""Bayesian geographically weighted regression with graph-distance weighting,
spike-and-slab variable selection, bandwidth inference, and DIC/LPML model
assessment, plus a frequentist GWR baseline and a simulation harness."""

from .spatial_graph import (UNREACHABLE, DistanceMatrix, MdsEmbedding, SpatialGraph,
                            build_graph, euclidean_distances, graph_distances,
                            mds_embed)
from .weighting import WeightMatrix, WeightScheme, kernel_weight, weight_matrix
from .suffstats import Dataset
from .freq_gwr import (FreqFit, SingularSystemError, effective_params_freq,
                       fit_all_locations, select_bandwidth_grid, wls_fit)
from .bayes_gwr import (BayesConfig, GwrPosterior, PosteriorSummary, hpd_interval,
                        posterior_summary, run_sampler, selected_model)
from .assessment import ModelAssessment, assess, cpo_lpml, dic
from .simulation import (BASE_BETAS, REGIONAL_BETAS, SimulationDesign,
                         SimulationReport, generate_dataset, metrics, run_study,
                         true_beta)

__version__ = "0.1.0"
