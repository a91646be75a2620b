"""Exact PBW generators and coproducts for positive quantum Borel algebras
of types A_n, C_n, D_n inside the braided quantum shuffle algebra."""

from .coeffring import (LaurentPoly, VarSet, NonDivisible, DivisionByZero,
                        ExponentOutOfRange, MissingAssignment, VarSetMismatch,
                        ZeroAssignment, parse_poly)
from .datum import (IndexOutOfRange, InvalidRank,
                    NumericAssignmentHitsExcludedRoot, QuantumDatum,
                    make_datum, mu, sigma, sigma_closed_form)
from .freeword import (FreeElem, NonHomogeneousOperand, bracketed_word,
                       pbw_bracketing, skew_bracket)
from .shuffle import (BraidedTensor, ShuffleElem, braided_coproduct,
                      eval_free, shuffle_bracket, shuffle_letter_mul,
                      shuffle_mul)
from .pbwgen import (PBWGenerator, alpha, closed_form_image, generator_image,
                     pbw_generators, tau_table)
from .verify import (CoproductFormula, NonProportionalProjection,
                     VerificationReport, coproduct_formula, run_suites,
                     verify_an_no_exceptions, verify_arrangements,
                     verify_coproducts, verify_identity_suite,
                     verify_pbw_independence, verify_serre,
                     verify_sigma_closed_form)

__version__ = "0.1.0"
