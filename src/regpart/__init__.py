"""Regular/singular splitting of sectorial sesquilinear forms.

Given piecewise-constant coefficient fields ``(C, b, d, c0)`` on a box
grid and a projection field ``Q`` marking the singular gradient
directions, this package assembles the regular part of the associated
form — the sectorial form generating the same operator — together with
the leftover singular part, and cross-checks the closed-form assembly
against an independent Gram-matrix construction of the same object.
"""

from .completion import (AbstractOperators, ProbeReport, VSubspace,
                         build_ambient, build_v_subspace, compute_operators,
                         oracle_regular_part, phi_vector, t_pi2_probe)
from .diagnostics import (DiagnosticsReport, RealPartReport, VertexReport,
                          check_equivalences, check_realpart_commutation,
                          default_cantor_grid, generate_cantor_example,
                          generate_noncommuting_example, singular_vertex,
                          svc_intervals, svc_measure)
from .errors import (DegenerateBasis, DominationViolation, GridMismatch,
                     KernelMismatch, NotCommuting, NotHermitian, NotPSD,
                     ParseError, ProjectionInvalid, ResolutionTooCoarse,
                     SectorViolation, SolveFailure, ValidationError)
from .grid import GridSpec, TestFunction
from .model import (CoefficientSet, DerivedFields, FormValue, derive_fields,
                    estimate_vertex_angle, eval_form, form_gram)
from .modelio import (LoadedModel, doc_to_model, dumps_canonical, load_model,
                      model_to_doc, parse_model, write_doc)
from .pipeline import (cantor_model_doc, compute_report, oracle_crosscheck,
                       run_probe, run_verification)
from .pointwise import (SectorParams, adjoint, herm_eig, herm_part,
                        imag_part, pencil_tangent, pinv_sqrt,
                        projection_residuals, psd_sqrt)
from .regularize import (IdentityReport, RegularizedCoefficients,
                         SingularStructure, assemble_regular,
                         assemble_regular_commuting, build_singular_structure,
                         commutator_norms, identity_residuals, identity_suite,
                         indicator_projection, projection_from_spanning,
                         pure_second_order_parts)

__version__ = "0.1.0"

__all__ = [
    "AbstractOperators", "ProbeReport", "VSubspace",
    "build_ambient", "build_v_subspace", "compute_operators",
    "oracle_regular_part", "phi_vector", "t_pi2_probe",
    "DiagnosticsReport", "RealPartReport", "VertexReport",
    "check_equivalences", "check_realpart_commutation",
    "default_cantor_grid", "generate_cantor_example",
    "generate_noncommuting_example", "singular_vertex", "svc_intervals",
    "svc_measure",
    "DegenerateBasis", "DominationViolation", "GridMismatch",
    "KernelMismatch", "NotCommuting", "NotHermitian", "NotPSD", "ParseError",
    "ProjectionInvalid", "ResolutionTooCoarse", "SectorViolation",
    "SolveFailure", "ValidationError",
    "GridSpec", "TestFunction",
    "CoefficientSet", "DerivedFields", "FormValue", "derive_fields",
    "estimate_vertex_angle", "eval_form", "form_gram",
    "LoadedModel", "doc_to_model", "dumps_canonical", "load_model",
    "model_to_doc", "parse_model", "write_doc",
    "cantor_model_doc", "compute_report", "oracle_crosscheck", "run_probe",
    "run_verification",
    "SectorParams", "adjoint", "herm_eig", "herm_part", "imag_part",
    "pencil_tangent", "pinv_sqrt", "projection_residuals", "psd_sqrt",
    "IdentityReport", "RegularizedCoefficients", "SingularStructure",
    "assemble_regular", "assemble_regular_commuting",
    "build_singular_structure", "commutator_norms", "identity_residuals",
    "identity_suite", "indicator_projection", "projection_from_spanning",
    "pure_second_order_parts",
    "__version__",
]
