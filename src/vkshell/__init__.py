"""Generalized von Karman shell energies on discrete parametrized surfaces.

Evaluation and minimization of the thin-limit stretching/bending
functional, infinitesimal-isometry spaces, a constructive membrane solver
for surfaces of revolution, dead-load rotation selection, and a 3D
recovery-sequence harness verifying the thin-limit scaling numerically.
"""

from .geometry import (SurfaceChart, VectorField3, FormField2, ChartError,
                       build_chart, surface_gradient, sym_grad, integrate,
                       frame_form)
from .material import (ElasticModuli, AnisotropicModuli, RelaxationResult,
                       svk_density, w_density, q3, q2_relax, q2_numeric)
from .isometry import (SkewField, IsometryBasis, extend_A, bending_form,
                       isometry_basis, rigid_basis, project_out_rigid,
                       project_onto_basis, coercivity_spectrum)
from .membrane import (MembraneSolution, RobustnessReport, curl_curl,
                       solve_revolution_membrane, robustness_classify,
                       project_to_B)
from .functional import (LoadSpec, RotationSetResult, EnergyBreakdown,
                         make_load, a_squared_tan, bending_energy,
                         stretching_energy, total_I, total_J, rotation_set)
from .minimize import (SolverOptions, MinimizationResult, MinimizationError,
                       minimize_quadratic, minimize_J, wellposedness_check)
from .gammacheck import (RecoveryAnsatz, ConvergenceTable, build_ansatz,
                         energy_3d, convergence_study, rotation_field_estimate)

__version__ = "0.1.0"
