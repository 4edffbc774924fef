"""q-analog covering, Turan and Steiner designs over finite fields."""

from .fields import Field, FieldError, get_gf
from .subspaces import (BudgetError, GroupAction, Subspace,
                        enumerate_grassmannian, orthogonal_complement, span,
                        subspaces_of)
from .designs import (CoverageReport, SetSystem, SubspaceDesign, dualize,
                      load_design, save_design, to_point_set_system,
                      verify_covering, verify_orbits, verify_steiner_system,
                      verify_turan)
from .bounds import (BoundRecord, basic_lower, bound_table, decaen_lower,
                     exact_values, gaussian, schonheim_lower, recursive_upper,
                     turan_upper)
from .constructions import (ConstructionError, derive_steiner,
                            expand_to_steiner_system, greedy_covering,
                            gf64_covering_design, gf64_orbits, lift_covering,
                            optimal_line_covering, partial_spread,
                            recursive_covering, spread, trivial_steiner,
                            turan_dual_covering, turan_point_design)

__version__ = "0.1.0"
