"""spinshuffle: physics-constrained quantitative MRI at desk scale.

Simulates relaxation-driven echo-train dynamics, designs temporal subspaces
and undersampling patterns, reconstructs undersampled multi-echo
acquisitions under subspace constraints, fits quantitative parameter maps,
and selects scan parameters through Cramer-Rao bounds.
"""

from .arrayio import read_array, write_array, write_csv
from .config import PipelineConfig, from_ini, load_config, save_config, to_ini
from .encoding import (Encoder, NormalKernel, SamplingMasks, SensitivityMaps,
                       apply_adjoint, apply_forward, apply_normal_kernel,
                       build_normal_kernel, fft2c, ifft2c)
from .phantom import (EllipseSpec, Phantom, add_noise, contrast_images,
                      default_phantom, make_phantom, simulate_acquisition)
from .pipeline import PipelineReport, run_pipeline
from .qmap import (Dictionary, FitMaps, FitResult, build_dictionary,
                   dictionary_match, fit_map, fit_voxel_nlls,
                   fit_voxel_subspace)
from .recon import ReconResult, SolverConfig, cg_solve, fista_solve
from .sampling import (DensityProfile, MaskSearchResult, SparsityModel,
                       assign_echoes, draw_mask, monte_carlo_mask,
                       sparsity_crb, tpsf_peak)
from .seqopt import (AsymptoticDesign, FisherInfo, FlipOptimization,
                     PowerBudget, crlb, crlb_t2_sweep,
                     design_asymptotic_flips, fisher_info, minmax_grid_search,
                     optimal_te, optimize_flips, train_power)
from .spinsim import (EpgState, SequenceParams, TissueParams,
                      bloch_isochromat_train, constant_train, simulate_fse,
                      simulate_fse_ensemble)
from .subspace import (SubspaceBasis, TissuePrior, back_project,
                       build_ensemble, compute_basis, projection_error,
                       sample_prior)
from .transforms import HaarTransform, IdentityTransform

__version__ = "0.1.0"
