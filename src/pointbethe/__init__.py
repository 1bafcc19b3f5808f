"""Coordinate Bethe ansatz machinery for 1D gases with point interactions.

The library covers the four-parameter family of local two-body
interactions: their contact conditions as residuals, closed-form two-body
scattering amplitudes with an independent boundary-value oracle, the
factorization identities and their coupling classification, N!-dimensional
Yang-Baxter operators with coefficient propagation and a brute-force
cross-check, and position-space eigenfunctions including the determinant
tables and the step-phase gauge map to the plain delta gas.
"""

from ._kernels import BACKEND
from .bethe import (BetheState, OracleResult, bethe_state,
                    coefficients_bc_oracle, propagate,
                    state_relation_residual, validate_momenta)
from .couplings import (CouplingParameters, GaugeData, gauge_data,
                        integrable_family)
from .errors import (NotGaugeFamily, NotIntegrable, OnBoundary,
                     PointBetheError, PoleAtU, SingularSystem)
from .factorization import (FactorizationReport, GridSpec, ScanRow,
                            YangBaxterReport, block_reduction_check,
                            check_factorization_panel, scan_couplings,
                            scan_to_csv, yang_baxter_matrix_check)
from .permutations import SymmetricGroupTables, rank_of, symmetric_group
from .scattering import AmplitudeSet, amplitudes, amplitudes_bvp_oracle
from .wavefunction import (boundary_residual, boundary_samples,
                           determinant_bethe_state, determinant_coefficients,
                           evaluate, evaluate_grid, gauge_transformed_state,
                           schrodinger_fd_residual)

__version__ = "0.1.0"
