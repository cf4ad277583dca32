"""Directional limits of the signature, and machine checks of every limit
statement and Torres prediction the library covers.

One-sided limits are exact (:func:`sigtorus.hermitian.limit_counts`), and
one call gives both sides at every rest point of a suite; all corners take
one more call, and the sublink inertia of all rest points one call too.
Each verifier emits one report per elementary relation (inequality or
equality) so failures carry the audit trail.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .angles import TorusPoint, angle_to_complex, normalize_angle
from .corrections import signature_jump, wall_indicator
from .errors import (BoundaryPoint, DomainError, Indeterminate,
                     MissingConwayData, MissingSublink, MissingUnderlying,
                     UnsupportedCase, WrongColorCount)
from .hermitian import DEFAULT_TOL, integer_inertia
from .laurent import as_rational
from .links import (corner_limit_counts, linking_matrix, rest_limit_counts,
                    sign_key, sign_vectors, signature_nullity_batch)
from .slope import classify_slope, conway_factor_split, slope


def _sgn(value):
    return (value > 0) - (value < 0)


# -- directional limits ----------------------------------------------------

_SIDES = ("plus", "minus")


@dataclass(frozen=True)
class LimitResult:
    """The limits of the signature and of the nullity along one side."""

    side: str
    value: int
    eta: int


def directional_limit(link, rest, side="plus", tol=DEFAULT_TOL):
    """The one-sided limit of the signature as the first coordinate tends
    to 1, with the remaining coordinates held fixed."""
    if side not in _SIDES:
        raise ValueError("side must be 'plus' or 'minus'")
    return _RestPoint(link, rest, tol).limit(side)


def _corner_limits(link, tol):
    """The limits with every coordinate tending to 1 from the sides of each
    sign vector, keyed by sign key ("+-" ...), all computed in one call."""
    return {sign_key(signs): LimitResult(sign_key(signs), value, eta)
            for signs, (value, eta) in zip(sign_vectors(link.mu),
                                           corner_limit_counts(link, tol).tolist())}


# -- one rest point ------------------------------------------------------------

# The slope of a boundary value where the slope formula reads 0/0.
_ZERO_BY_ZERO = object()


class _RestPoint:
    """What every check at one rest point omega' shares.

    The point is validated once, on construction.  The sublink's signature
    and nullity at omega', the boundary value at (1, omega'), each one-sided
    limit and the genericity test are computed on first use and kept, so the
    checks run at one point compute each of them at most once.

    Rest points built together by :func:`_rest_group` share their group:
    the first read of a one-sided limit (either side) or of the sublink
    inertia at any member computes it for every member in one stacked call.
    A point built on its own is a group of one.
    """

    def __init__(self, link, point, tol=DEFAULT_TOL, group=None):
        if not isinstance(point, TorusPoint):
            point = TorusPoint(() if point is None else point)
        if point.mu != link.mu - 1:
            raise DomainError("the rest point needs %d coordinate(s), got %d"
                              % (link.mu - 1, point.mu))
        if not point.in_open_torus:
            raise BoundaryPoint("the fixed coordinates must avoid 1")
        self.link = link
        self.point = point
        self.tol = tol
        self.group = [] if group is None else group
        self.group.append(self)
        self._limits = {}
        self._sub_inertia = None

    @cached_property
    def sub(self):
        """The sublink of colors 2..mu."""
        sub = self.link.rest_sublink()
        if sub is None:
            raise MissingSublink("link carries no sublink data under key %r"
                                 % self.link.rest_key())
        return sub

    @property
    def sub_inertia(self):
        """(sigma, eta) of the sublink at omega'."""
        if self._sub_inertia is None:
            sigmas, etas = signature_nullity_batch(
                self.sub, [rest.point.omega() for rest in self.group], self.tol)
            for rest, pair in zip(self.group, zip(sigmas, etas)):
                rest._sub_inertia = pair
        return self._sub_inertia

    @cached_property
    def boundary(self):
        """Torres's (sigma, eta) at (1, omega'), their slope, total linking.

        The slope is None when no component of the first color splits off
        (the total linking of the first color with the rest is 0 otherwise),
        and _ZERO_BY_ZERO, with sigma and eta None, where the slope formula
        reads 0/0.  A first color that mixes split and non-split components,
        or splits with several, is unsupported.
        """
        link, sub = self.link, self.sub
        sig_rest, eta_rest = self.sub_inertia
        # (first-color end, |lk|) of each nonzero record joining color 1 to another
        crossing = [(a if link.color_of(a) == 1 else b, abs(value))
                    for (a, b), value in link.linking.items()
                    if value and (link.color_of(a) == 1) != (link.color_of(b) == 1)]
        linked, total = len(dict(crossing)), sum(v for _, v in crossing)
        count = link.components_per_color[0]
        if linked == count:
            return sig_rest, eta_rest - count + total, None, total
        if linked:
            raise UnsupportedCase(
                "mixed split and non-split components in the first color")
        if count > 1:
            raise UnsupportedCase(
                "algebraically split with a multi-component first color")
        if link.conway is None:
            raise MissingConwayData("split case needs the link's conway data")
        if sub.conway is None:
            raise MissingConwayData("split case needs conway data for the sublink")
        try:
            slope_value = slope(link.conway, sub.conway, self.point)
        except Indeterminate:
            return None, None, _ZERO_BY_ZERO, 0
        shift, eps = classify_slope(slope_value)
        return sig_rest + shift, eta_rest + eps, slope_value, 0

    def limit(self, side):
        """The limit as the first coordinate tends to 1 from ``side``."""
        if not self._limits:
            counts = rest_limit_counts(self.link, [rest.point.omega() for rest in self.group],
                                       self.tol)
            for rest, (plus, minus, eta) in zip(self.group, counts.tolist()):
                rest._limits = {"plus": LimitResult("plus", plus, eta),
                                "minus": LimitResult("minus", minus, eta)}
        return self._limits[side]

    @cached_property
    def generic(self):
        """True when the Alexander polynomial is nonzero at (1, omega').

        By Torres's formula that is: no wall passes through omega' and the
        sublink's Alexander polynomial is nonzero there, which on the open
        torus holds exactly when the sublink's nullity at omega' is 0.
        """
        return (wall_indicator(self.link.linking_vector(), self.point) == 0
                and self.sub_inertia[1] == 0)


def _rest_group(link, points, tol):
    """Rest points at ``points`` that share their limit and sublink evaluations."""
    group = []
    for point in points:
        _RestPoint(link, point, tol, group=group)
    return group


# -- reports ---------------------------------------------------------------

@dataclass
class VerificationReport:
    """One elementary pass/fail relation with its audit data."""

    check: str
    inputs: dict
    lhs: object
    rhs: object
    relation: str  # "<=" or "=="
    passed: bool
    notes: list = field(default_factory=list)

    def to_json_dict(self):
        """The report's JSON record as ``json.loads`` reads it from
        :func:`report_text`, whose template must follow any change here."""
        return {
            "check": self.check,
            "inputs": dict(self.inputs),
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "relation": self.relation,
            "pass": bool(self.passed),
            "notes": list(self.notes),
        }


def _jsonable(value):
    return str(value) if isinstance(value, Fraction) else value


# How report_text writes a value of each exactly matched type, as json.dumps
# would; strings go through the C-accelerated encoder json itself uses.
_ENCODE = json.encoder.encode_basestring_ascii  # TypeError on a non-string
_VALUES = {str: _ENCODE, int: int.__repr__, type(None): lambda value: "null"}
# lhs and rhs as to_json_dict gives them: a Fraction as its text
_SIDE_VALUES = {**_VALUES, Fraction: lambda value: _ENCODE(str(value))}
_RECORD = """  {
    "check": %s,
    "inputs": %s,
    "lhs": %s,
    "notes": %s,
    "pass": %s,
    "relation": %s,
    "rhs": %s
  }"""


def _record_text(rep):
    """One report as an item of the list :func:`report_text` writes."""
    inputs = ",\n      ".join(["%s: %s" % (_ENCODE(key), _VALUES[type(value)](value))
                               for key, value in sorted(rep.inputs.items())])
    return _RECORD % (_ENCODE(rep.check),
                      "{\n      %s\n    }" % inputs if inputs else "{}",
                      _SIDE_VALUES[type(rep.lhs)](rep.lhs),
                      "[\n      %s\n    ]" % ",\n      ".join(map(_ENCODE, rep.notes))
                      if rep.notes else "[]",
                      "true" if rep.passed else "false",
                      _ENCODE(rep.relation),
                      _SIDE_VALUES[type(rep.rhs)](rep.rhs))


def report_text(reports):
    """The reports as JSON text: exactly the bytes that ``json.dump`` writes
    for their :meth:`VerificationReport.to_json_dict` records with
    ``indent=2`` and ``sort_keys=True``, followed by a newline.

    ``json.dump`` with an indent runs json's pure-Python encoder.  This
    writes each record from a fixed template of its seven sorted keys
    instead.  It formats the str, int and None values and the Fraction
    ``lhs``/``rhs`` that :func:`run_suite` emits, and raises KeyError or
    TypeError on any other type (a float, a nested value).
    """
    if not reports:
        return "[]\n"
    return "[\n%s\n]\n" % ",\n".join([_record_text(rep) for rep in reports])


def _leq(check, inputs, lhs, rhs, notes=()):
    notes = list(notes)
    if lhs == rhs:
        notes.append("bound sharp")
    return VerificationReport(check, inputs, lhs, rhs, "<=", lhs <= rhs, notes)


def _eq(check, inputs, lhs, rhs, notes=()):
    return VerificationReport(check, inputs, lhs, rhs, "==", lhs == rhs, list(notes))


def _skip(check, inputs, note):
    return VerificationReport(check, inputs, None, None, "==", True, [note])


def _rank_note(link):
    return "rank_alexander=%d%s" % (link.rank_alexander,
                                    " (default)" if link.rank_alexander == 0 else "")


# -- the 3D bound (generalized Seifert form route) ---------------------------

def verify_3d(link, point, tol=DEFAULT_TOL):
    """Check the limit bound with the combinatorial jump and wall terms.

    Requires every color to be a knot (reported as skipped otherwise) and
    sublink data for the link with color 1 removed.  Where the rest point is
    generic (no wall through omega' and eta(L', omega') = 0), the exact
    equality of the limits with sigma(L') +/- jump is checked as well.
    """
    return _check_3d(_RestPoint(link, point, tol))


def _check_3d(rest):
    link, point = rest.link, rest.point
    inputs = {"omega_rest": point.angle_text()}
    if any(c != 1 for c in link.components_per_color):
        return [_skip("3d/skipped", inputs, "statement needs every color to be a knot")]
    sig_rest, eta_rest = rest.sub_inertia
    ell = link.linking_vector()
    jump = signature_jump(ell, point)
    wall = wall_indicator(ell, point)
    rhs = eta_rest + wall - link.rank_alexander
    notes = [_rank_note(link)]
    centers = (sig_rest + jump, sig_rest - jump)

    reports = [_leq("3d/bound/" + side, inputs, abs(rest.limit(side).value - center),
                    rhs, notes) for side, center in zip(_SIDES, centers)]
    if rest.generic:
        reports += [_eq("3d/equality/" + side, inputs, rest.limit(side).value, center,
                        notes) for side, center in zip(_SIDES, centers)]
    return reports


# -- the 4D bound (extension and Torres route) -------------------------------

def verify_4d(link, point, tol=DEFAULT_TOL):
    """Check the limit bounds |lim sigma - sigma(1, w')| <= eta(1, w') - rank.

    (sigma, eta)(1, w') is the rest point's Torres boundary value, shared
    with :func:`predict_torres`.  Linked case: the bounds, the
    difference-of-limits bound, and the forced equality at total linking 1
    where eta(L', omega') = 0 (no wall passes through omega' at total
    linking 1, so that is the rest point's genericity).  Split case: the
    bounds, and the forced equality when the slope is finite and nonzero;
    where the slope formula reads 0/0 the bound is untestable.
    """
    return _check_4d(_RestPoint(link, point, tol))


def _check_4d(rest):
    link, point = rest.link, rest.point
    inputs = {"omega_rest": point.angle_text()}
    if link.components_per_color[0] != 1:
        return [_skip("4d/skipped", inputs, "the first color must be a knot")]
    center, eta, slope_value, total = rest.boundary
    if slope_value is _ZERO_BY_ZERO:
        return [_skip("4d/split/slope", inputs,
                      "slope formula reads 0/0; bound untestable here")]
    notes = [_rank_note(link)]

    equalities = []
    if slope_value is None:
        case = "linked"
        if total == 1 and rest.sub_inertia[1] == 0:
            equalities = [_eq("4d/linked/equality/" + side, inputs,
                              rest.limit(side).value, center, notes)
                          for side in _SIDES]
        elif total == 1:
            equalities = [_skip("4d/linked/equality", inputs,
                                "sublink Alexander value vanishes here")]
    else:
        case = "split"
        inputs = dict(inputs, slope=repr(slope_value))
        if center != rest.sub_inertia[0]:
            # slope finite and nonzero: numerator and denominator both nonvanish
            equalities = [_eq("4d/split/equality/" + side, inputs,
                              rest.limit(side).value, center, notes) for side in _SIDES]

    bound = eta - link.rank_alexander
    prefix = "4d/%s/" % case
    plus, minus = rest.limit("plus").value, rest.limit("minus").value
    reports = [_leq(prefix + "bound/" + side, inputs, abs(value - center), bound, notes)
               for side, value in zip(_SIDES, (plus, minus))]
    reports.append(_leq(prefix + "difference", inputs, abs(plus - minus), 2 * bound, notes))
    return reports + equalities


# -- the Levine-Tristram limit ------------------------------------------------

def verify_lt(link, tol=DEFAULT_TOL):
    """Check the one-variable limit against the exact linking-matrix inertia."""
    if link.mu != 1:
        raise WrongColorCount("Levine-Tristram checks need a 1-colored link")
    m = link.total_components
    ine = integer_inertia(linking_matrix(link, (1,)))
    rank = link.rank_alexander
    inputs = {"components": m}
    notes = [_rank_note(link),
             "derived constraint: rank A(L) <= %d" % (ine.nullity - 1)]

    empty = _RestPoint(link, (), tol)
    plus, minus = empty.limit("plus").value, empty.limit("minus").value

    reports = [_eq("lt/side-agreement", inputs, plus, minus, notes)]
    bound = ine.nullity - 1 - rank
    reports.append(_leq("lt/limit-bound", inputs, abs(plus - ine.signature), bound, notes))
    reports.append(_leq("lt/magnitude-bound", inputs, abs(plus), m - 1 - rank, notes))
    reports.append(_leq("lt/rank-constraint", inputs, rank, ine.nullity - 1, notes))
    if bound == 0:
        reports.append(_eq("lt/limit-equality", inputs, plus, ine.signature, notes))
    return reports


class _PlusMinusOne:
    """Indeterminate token: the limit is +1 or -1, data cannot tell which."""

    def __repr__(self):
        return "PlusMinusOne"


PLUS_MINUS_ONE = _PlusMinusOne()


def predict_lt_limit_2comp(ell, nabla=None):
    """Predicted one-variable limit for a 2-component oriented link.

    Minus the sign of the linking number when it is nonzero or the Conway
    function vanishes; otherwise the sign of the split factor at (1, 1),
    falling back to the indeterminate token when that value is zero.
    """
    ell = int(ell)
    if ell != 0:
        return -_sgn(ell)
    if nabla is None or as_rational(nabla).is_zero:
        return 0
    factor = conway_factor_split(nabla)
    value = factor.eval_at_ones()
    if value:
        return _sgn(value)
    return PLUS_MINUS_ONE


# -- corner limits -------------------------------------------------------------

def verify_corner_limits(link, tol=DEFAULT_TOL):
    """Check the limits with all coordinates tending to 1 with chosen signs."""
    m = link.total_components
    rank = link.rank_alexander
    reports = []
    limits = _corner_limits(link, tol)
    for signs in sign_vectors(link.mu):
        key = sign_key(signs)
        inputs = {"signs": key}
        notes = [_rank_note(link)]
        value = limits[key].value
        ine = integer_inertia(linking_matrix(link, signs))
        cross = sum(signs[i] * signs[j] * link.lk_colors(i + 1, j + 1)
                    for i in range(link.mu) for j in range(i + 1, link.mu))
        center = ine.signature + cross
        reports.append(_leq("corners/bound/" + key, inputs, abs(value - center),
                            ine.nullity - 1 - rank, notes))
        if ine.nullity == 1:
            reports.append(_eq("corners/equality/" + key, inputs, value, center, notes))
        if link.mu == 2:
            ell = link.lk_colors(1, 2)
            if ell != 0:
                closed = signs[0] * signs[1] * (ell - _sgn(ell))
                reports.append(_eq("corners/two-color/" + key, inputs,
                                   value, closed, notes))
        reports.append(_leq("corners/magnitude/" + key, inputs, abs(value),
                            m - 1 + abs(cross) - rank, notes))
    return reports


# -- Torres predictions ---------------------------------------------------------

@dataclass
class TorresPrediction:
    """Predicted boundary values, and the midpoint cross-check when testable."""

    sigma: object  # int, or PLUS_MINUS_ONE-style token text when unresolved
    eta: object
    midpoint: str  # "pass" | "fail" | "skipped"
    notes: list = field(default_factory=list)
    sigma_rest: object = None
    midpoint_value: object = None


def predict_torres(link, point=None, tol=DEFAULT_TOL):
    """Predict the signature and nullity at (1, omega') from sublink data.

    One-colored links use the exact linking-matrix inertia; otherwise the
    prediction is the rest point's boundary value, which the 4d bound is
    centered on: a split first knot uses the slope, a first color with no
    split component the linking-count correction.  Anything else is
    unsupported and reported, not guessed.  When the linking numbers with
    the first color are not all zero and the point is generic (no wall
    through omega' and eta(L', omega') = 0), the midpoint of the two
    directional limits is checked against the sublink signature.
    """
    return _predict_torres(_RestPoint(link, () if link.mu == 1 else point, tol))


def _predict_torres(rest):
    link = rest.link
    if link.mu == 1:
        ine = integer_inertia(linking_matrix(link, (1,)))
        return TorresPrediction(ine.signature, ine.nullity - 1, "skipped",
                                ["one-colored case: linking-matrix inertia"])
    sig_rest = rest.sub_inertia[0]
    sigma, eta, slope_value, _ = rest.boundary
    if slope_value is _ZERO_BY_ZERO:
        return TorresPrediction(None, None, "skipped", [
            "slope indeterminate: sigma is sigma(rest) + sgn(slope),"
            " eta is eta(rest) + {+1, 0, -1}, with unresolved slope"], sig_rest)
    notes = ["no component of the first color splits off" if slope_value is None
             else "split case: slope %r" % slope_value]

    midpoint = "skipped"
    midpoint_value = None
    if any(link.linking_vector()) and rest.generic:
        midpoint_value = Fraction(rest.limit("plus").value + rest.limit("minus").value, 2)
        midpoint = "pass" if midpoint_value == sig_rest else "fail"
    return TorresPrediction(sigma, eta, midpoint, notes, sig_rest, midpoint_value)


def torres_reports(link, point=None, tol=DEFAULT_TOL):
    """Wrap a Torres prediction as verification reports."""
    return _check_torres(_RestPoint(link, () if link.mu == 1 else point, tol))


def _check_torres(rest):
    prediction = _predict_torres(rest)
    inputs = {"omega_rest": rest.point.angle_text(),
              "sigma_pred": _jsonable(prediction.sigma),
              "eta_pred": _jsonable(prediction.eta)}
    if prediction.midpoint == "skipped":
        return [_skip("torres/midpoint", inputs,
                      "midpoint check not applicable here")]
    return [_eq("torres/midpoint", inputs, prediction.midpoint_value,
                prediction.sigma_rest, prediction.notes)]


# -- the diagonal identity -------------------------------------------------------

def verify_multi_lt(link, angle, tol=DEFAULT_TOL):
    """Check the diagonal identity against the underlying oriented link."""
    if link.underlying_oriented is None:
        raise MissingUnderlying("link carries no underlying_oriented data")
    angle = normalize_angle(angle)
    if angle == 0:
        raise BoundaryPoint("the diagonal identity needs omega different from 1")
    return _diagonal_reports(link, [angle], tol)


def _diagonal_reports(link, angles, tol):
    """The diagonal identity at angles in (0, 1), each side in one stacked call."""
    omegas = [angle_to_complex(a) for a in angles]
    sigmas_diag, _ = signature_nullity_batch(link, [(w,) * link.mu for w in omegas], tol)
    oriented = link.underlying_oriented
    sigmas_or, _ = signature_nullity_batch(oriented, [(w,) for w in omegas], tol)
    cross = sum(link.lk_colors(i, j)
                for i in range(1, link.mu + 1) for j in range(i + 1, link.mu + 1))
    return [_eq("multi-lt/identity", {"omega": str(a)}, sigma_diag, sigma_or + cross)
            for a, sigma_diag, sigma_or in zip(angles, sigmas_diag, sigmas_or)]


# -- suite driver ------------------------------------------------------------------

SUITES = ("3d", "4d", "lt", "corners", "torres", "multi-lt", "all")


def random_rational_point(rnd, count, max_den=64):
    """A deterministic random point with rational angles in (0, 1)."""
    angles = []
    for _ in range(count):
        q = rnd.randint(2, max_den)
        p = rnd.randint(1, q - 1)
        angles.append(Fraction(p, q))
    return TorusPoint(angles)


def run_suite(link, suite, samples=50, seed=0, tol=DEFAULT_TOL):
    """Run a verification suite on a link, on deterministic random points.

    The 3d, 4d and Torres checks at one sampled point share one rest-point
    context, so its sublink inertia, its boundary value (with the slope) and
    each of its limits are computed once.  The rest points form one group, so
    the limits on each side and the sublink inertia take one stacked call for
    all of them.  A specifically requested suite raises when the link lacks
    the data it needs; under "all", inapplicable suites are skipped with a
    note.
    """
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    if samples < 1:
        raise DomainError("samples must be at least 1, got %r" % (samples,))
    all_mode = suite == "all"
    rnd = random.Random(seed)
    points = [random_rational_point(rnd, max(link.mu - 1, 0))
              for _ in range(samples)]
    rests = _rest_group(link, points, tol) if link.mu >= 2 else []
    reports = []

    def want(name):
        return all_mode or suite == name

    for name, check in (("3d", _check_3d), ("4d", _check_4d)):
        if not want(name):
            continue
        if link.mu >= 2:
            for rest in rests:
                reports.extend(check(rest))
        elif not all_mode:
            raise WrongColorCount("%s suite needs at least two colors" % name)
    if want("lt"):
        if link.mu == 1:
            reports.extend(verify_lt(link, tol))
        elif link.underlying_oriented is not None:
            reports.extend(verify_lt(link.underlying_oriented, tol))
        elif not all_mode:
            raise MissingUnderlying("lt suite needs a 1-colored link or "
                                    "underlying_oriented data")
        else:
            reports.append(_skip("lt/skipped", {}, "no 1-colored data available"))
    if want("corners"):
        reports.extend(verify_corner_limits(link, tol))
    if want("torres"):
        if link.mu == 1:
            reports.extend(torres_reports(link, None, tol))
        else:
            for rest in rests:
                reports.extend(_check_torres(rest))
    if want("multi-lt"):
        if link.underlying_oriented is not None:
            angles = [pt[0] if pt.mu else Fraction(1, 2) for pt in points]
            reports.extend(_diagonal_reports(link, angles, tol))
        elif not all_mode:
            raise MissingUnderlying("multi-lt suite needs underlying_oriented data")
        else:
            reports.append(_skip("multi-lt/skipped", {},
                                 "no underlying_oriented data"))
    return reports
