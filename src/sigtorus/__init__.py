"""Multivariable link signatures and nullities from generalized Seifert data,
with slope evaluation, Torres-type boundary predictions, and machine checks
of the limit statements relating them."""

from .angles import TorusPoint, parse_angle
from .corrections import (signature_jump, torus_signature_profile,
                          wall_indicator)
from .families import (make_family, make_torus, make_twist, make_unlink,
                       oracle_torus, oracle_twist, unknot)
from .hermitian import Inertia, integer_inertia
from .laurent import LaurentPoly, RationalFunction, divide_exact
from .links import (ColoredLink, SeifertSystem, linking_inertia, load_link,
                    parse_link, save_link, signature_nullity)
from .slope import classify_slope, conway_factor_split, slope, torres_generic
from .verify import (PLUS_MINUS_ONE, LimitResult, TorresPrediction,
                     VerificationReport, directional_limit,
                     predict_lt_limit_2comp, predict_torres, run_suite,
                     verify_3d, verify_4d, verify_corner_limits, verify_lt,
                     verify_multi_lt)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
