"""Exact verification and construction toolkit for compatible
anti-pre-Lie algebras.

The package checks the defining identities of (compatible) anti-pre-Lie,
Lie and associative structures on structure-constant tables over exact
fields (Q, GF(p), multivariate Laurent polynomial rings), implements the
operator- and form-based constructions relating them, ships a
machine-verified catalog of the two-dimensional classification, and
re-derives the deformation (Z^2) sets independently by exhaustive
finite-field search.
"""

from .algebra import (Algebra, AlgebraPair, CheckReport, Witness,
                      algebra_from_json, algebra_to_json, cast_algebra,
                      cast_pair, check_compatible_associative,
                      check_compatible_lie, check_compatible_pair,
                      check_identity, commutator, commutator_pair,
                      dump_algebra_file, load_algebra_file, multiply,
                      pair_to_json, pencil)
from .catalog import (AutomorphismFamily, Family, automorphism_families_of,
                      automorphism_of, cocycle_families_of, family_names,
                      get_family, instantiate, verify_catalog)
from .cocycles import (Deformation, brute_force_Z2, check_step1_conditions,
                       is_automorphism, linear_space, transform_deformation,
                       verify_family_membership)
from .errors import (BudgetExceededError, ConstraintError, FieldMismatchError,
                     NotInvertibleError, ParseError, PreconditionError,
                     ShapeMismatchError, ToolkitError, UnknownEntryError)
from .forms import (BilinearForm, check_comm_2cocycle, check_form,
                    check_invariant, construct_from_vectors,
                    induce_from_cocycle, invariant_form_space, pairing_form)
from .linalg import Matrix
from .operators import (check_anti_o, check_anti_rota_baxter,
                        check_rb_converse, check_strong, induce_from_rb,
                        induce_from_invertible, induce_on_domain,
                        induce_on_image)
from .representations import (RepresentationPair, adjoint_pair,
                              check_equivalence, check_representation_pair,
                              dual_pair, left_multiplication_pair,
                              representation_from_json, representation_to_json,
                              semidirect_product)
from .scalars import (GF, QQ, Field, Scalar, cast_scalar, format_scalar,
                      parse_scalar, poly_ring, substitute)

__version__ = "0.1.0"
