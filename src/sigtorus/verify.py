"""Directional limits of the signature, and machine checks of every limit
statement and Torres prediction the library covers.

One-sided limits are read by :func:`sigtorus.hermitian.limit_counts`, a
float Schur descent whose zero cut is ``hermitian.ZERO_CUT``: they are not
exact, and four strict xfails pin its known misreads.  The checks at the rest points of a suite read one table per shared quantity,
each computed for every point on first read: both one-sided limits of all
rest points take one call, the sublink inertia of all rest points one call,
and the boundary values one derivative of the Conway function and one slope
per point; all corners take one more call.  Each verifier emits one report
per elementary relation (inequality or equality) so failures carry the
audit trail.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

from .angles import TorusPoint, angle_to_complex, normalize_angle
from .corrections import signature_jump, wall_indicator
from .errors import (BoundaryPoint, DomainError, Indeterminate,
                     MissingConwayData, MissingSublink, MissingUnderlying,
                     UnsupportedCase, WrongColorCount)
from .laurent import as_integer, as_rational
from .links import (corner_limit_counts, linking_inertia, rest_limit_counts,
                    sign_key, sign_vectors, signature_nullity_batch)
from .slope import classify_slope, conway_factor_split, slope

# The slope's text in 4d reports and torres notes: bytes pinned by bench/digests.json.
_SLOPE_TEXT = "SlopeValue(%r)"


def _sgn(value):
    return (value > 0) - (value < 0)


# -- directional limits ----------------------------------------------------

SIDES = ("plus", "minus")


@dataclass(frozen=True)
class LimitResult:
    """The limits of the signature and of the nullity along one side."""

    side: str
    value: int
    eta: int


def directional_limit(link, rest, side="plus"):
    """The one-sided limit of the signature as the first coordinate tends
    to 1, with the remaining coordinates held fixed."""
    if side not in SIDES:
        raise ValueError("side must be 'plus' or 'minus'")
    row = _Rests(link, [rest]).limits[0]
    return LimitResult(side, row[SIDES.index(side)], row[2])


# -- rest points -----------------------------------------------------------------

class _Rests:
    """What every check at the rest points omega' of one link shares.

    The points are validated on construction.  Each shared quantity is one
    table with a value per point, in point order, computed for every point
    on first read: the sublink inertia in one stacked call, both one-sided
    limits in one more, the walls from one linking vector, and the boundary
    values with one derivative of the link's Conway function.  A table
    that no check reads is never computed.
    """

    def __init__(self, link, points):
        self.link = link
        self.points = []
        for point in points:
            if not isinstance(point, TorusPoint):
                point = TorusPoint(() if point is None else point)
            if point.mu != link.mu - 1:
                raise DomainError("the rest point needs %d coordinate(s), got %d"
                                  % (link.mu - 1, point.mu))
            if not point.in_open_torus:
                raise BoundaryPoint("the fixed coordinates must avoid 1")
            self.points.append(point)

    @cached_property
    def sub(self):
        """The sublink of colors 2..mu."""
        sub = self.link.rest_sublink()
        if sub is None:
            raise MissingSublink("link carries no sublink data under key %r"
                                 % self.link.rest_key())
        return sub

    @cached_property
    def linking_vector(self):
        return self.link.linking_vector()

    @cached_property
    def sub_inertia(self):
        """(sigma, eta) of the sublink at each omega'."""
        sigmas, etas = signature_nullity_batch(
            self.sub, [point.omega() for point in self.points])
        return list(zip(sigmas, etas))

    @cached_property
    def limits(self):
        """(plus, minus, eta) at each omega': the limits of sigma from each
        side and of eta as the first coordinate tends to 1."""
        return rest_limit_counts(self.link, [point.omega() for point in self.points]).tolist()

    @cached_property
    def boundary(self):
        """Torres's (sigma, eta) at each (1, omega'), their slope, total linking.

        The slope is None when no component of the first color splits off
        (the total linking of the first color with the rest is 0 otherwise),
        and where the slope formula reads 0/0, with sigma and eta None there.
        A first color that mixes split and non-split components, or splits
        with several, is unsupported.
        """
        link, sub = self.link, self.sub
        sub_inertia = self.sub_inertia
        # (first-color end, |lk|) of each nonzero record joining color 1 to another
        crossing = [(a if link.color_of(a) == 1 else b, abs(value))
                    for (a, b), value in link.linking.items()
                    if value and (link.color_of(a) == 1) != (link.color_of(b) == 1)]
        linked, total = len(dict(crossing)), sum(v for _, v in crossing)
        count = link.components_per_color[0]
        if linked == count:
            return [(sig_rest, eta_rest - count + total, None, total)
                    for sig_rest, eta_rest in sub_inertia]
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
        partial = link.conway.derivative(0)
        values = []
        for point, (sig_rest, eta_rest) in zip(self.points, sub_inertia):
            try:
                slope_value = slope(link.conway, sub.conway, point, partial)
            except Indeterminate:
                values.append((None, None, None, 0))
                continue
            shift, eps = classify_slope(slope_value)
            values.append((sig_rest + shift, eta_rest + eps, slope_value, 0))
        return values

    @cached_property
    def walls(self):
        """wall_indicator at each omega', decided exactly."""
        return [wall_indicator(self.linking_vector, point) for point in self.points]

    @cached_property
    def generic(self):
        """True at each omega' where the Alexander polynomial is nonzero at
        (1, omega').

        By Torres's formula that is: no wall passes through omega' and the
        sublink's Alexander polynomial is nonzero there, which on the open
        torus holds exactly when the sublink's nullity at omega' is 0.
        """
        return [wall == 0 and eta == 0
                for wall, (_, eta) in zip(self.walls, self.sub_inertia)]


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

def verify_3d(link, point):
    """Check the limit bound with the combinatorial jump and wall terms.

    Requires every color to be a knot (reported as skipped otherwise) and
    sublink data for the link with color 1 removed.  Where the rest point is
    generic (no wall through omega' and eta(L', omega') = 0), the exact
    equality of the limits with sigma(L') +/- jump is checked as well.
    """
    return _check_3d(_Rests(link, [point]), 0)


def _check_3d(rests, i):
    link, point = rests.link, rests.points[i]
    inputs = {"omega_rest": point.angle_text()}
    if any(c != 1 for c in link.components_per_color):
        return [_skip("3d/skipped", inputs, "statement needs every color to be a knot")]
    sig_rest, eta_rest = rests.sub_inertia[i]
    jump = signature_jump(rests.linking_vector, point)
    rhs = eta_rest + rests.walls[i] - link.rank_alexander
    notes = [_rank_note(link)]
    centers = (sig_rest + jump, sig_rest - jump)

    sides = list(zip(SIDES, rests.limits[i], centers))
    reports = [_leq("3d/bound/" + side, inputs, abs(value - center), rhs, notes)
               for side, value, center in sides]
    if rests.generic[i]:
        reports += [_eq("3d/equality/" + side, inputs, value, center, notes)
                    for side, value, center in sides]
    return reports


# -- the 4D bound (extension and Torres route) -------------------------------

def verify_4d(link, point):
    """Check the limit bounds |lim sigma - sigma(1, w')| <= eta(1, w') - rank.

    (sigma, eta)(1, w') is the rest point's Torres boundary value, shared
    with :func:`predict_torres`.  Linked case: the bounds, the
    difference-of-limits bound, and the forced equality at total linking 1
    where eta(L', omega') = 0 (no wall passes through omega' at total
    linking 1, so that is the rest point's genericity).  Split case: the
    bounds, and the forced equality when the slope is finite and nonzero;
    where the slope formula reads 0/0 the bound is untestable.
    """
    return _check_4d(_Rests(link, [point]), 0)


def _check_4d(rests, i):
    link, point = rests.link, rests.points[i]
    inputs = {"omega_rest": point.angle_text()}
    if link.components_per_color[0] != 1:
        return [_skip("4d/skipped", inputs, "the first color must be a knot")]
    center, eta, slope_value, total = rests.boundary[i]
    if center is None:
        return [_skip("4d/split/slope", inputs,
                      "slope formula reads 0/0; bound untestable here")]
    notes = [_rank_note(link)]
    sig_rest, eta_rest = rests.sub_inertia[i]
    plus, minus, _ = rests.limits[i]
    sides = list(zip(SIDES, (plus, minus)))

    equalities = []
    if slope_value is None:
        case = "linked"
        if total == 1 and eta_rest == 0:
            equalities = [_eq("4d/linked/equality/" + side, inputs, value, center, notes)
                          for side, value in sides]
        elif total == 1:
            equalities = [_skip("4d/linked/equality", inputs,
                                "sublink Alexander value vanishes here")]
    else:
        case = "split"
        inputs = dict(inputs, slope=_SLOPE_TEXT % slope_value)
        if center != sig_rest:
            # slope finite and nonzero: numerator and denominator both nonvanish
            equalities = [_eq("4d/split/equality/" + side, inputs, value, center, notes)
                          for side, value in sides]

    bound = eta - link.rank_alexander
    prefix = "4d/%s/" % case
    reports = [_leq(prefix + "bound/" + side, inputs, abs(value - center), bound, notes)
               for side, value in sides]
    reports.append(_leq(prefix + "difference", inputs, abs(plus - minus), 2 * bound, notes))
    return reports + equalities


# -- the Levine-Tristram limit ------------------------------------------------

def verify_lt(link):
    """Check the one-variable limit against the exact linking-matrix inertia."""
    if link.mu != 1:
        raise WrongColorCount("Levine-Tristram checks need a 1-colored link")
    m = link.total_components
    ine = linking_inertia(link, (1,))
    rank = link.rank_alexander
    inputs = {"components": m}
    notes = [_rank_note(link),
             "derived constraint: rank A(L) <= %d" % (ine.nullity - 1)]

    plus, minus, _ = _Rests(link, [()]).limits[0]

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
    ell = as_integer(ell, "linking number %r", ell)
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

def verify_corner_limits(link):
    """Check the limits with all coordinates tending to 1 with chosen signs."""
    m = link.total_components
    rank = link.rank_alexander
    reports = []
    values = corner_limit_counts(link)[:, 0].tolist()
    lk = [(i, j, link.lk_colors(i + 1, j + 1))
          for i in range(link.mu) for j in range(i + 1, link.mu)]
    signs_list = sign_vectors(link.mu)
    # the linking matrix and the cross term see only products of two signs,
    # so eps and -eps (indices i and 2^mu - 1 - i) share them
    half = [(linking_inertia(link, signs), sum(signs[i] * signs[j] * value
                                               for i, j, value in lk))
            for signs in signs_list[:len(signs_list) // 2]]
    for signs, value, (ine, cross) in zip(signs_list, values, half + half[::-1]):
        key = sign_key(signs)
        inputs = {"signs": key}
        notes = [_rank_note(link)]
        center = ine.signature + cross
        reports.append(_leq("corners/bound/" + key, inputs, abs(value - center),
                            ine.nullity - 1 - rank, notes))
        if ine.nullity == 1:
            reports.append(_eq("corners/equality/" + key, inputs, value, center, notes))
        if link.mu == 2:
            ell = lk[0][2]
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

    sigma: object  # int, or None when the slope is 0/0 and sigma is unresolved
    eta: object
    midpoint: str  # "pass" | "fail" | "skipped"
    notes: list = field(default_factory=list)
    sigma_rest: object = None
    midpoint_value: object = None


def predict_torres(link, point=None):
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
    return _predict_torres(_Rests(link, [() if link.mu == 1 else point]), 0)


def _predict_torres(rests, i):
    link = rests.link
    if link.mu == 1:
        ine = linking_inertia(link, (1,))
        return TorresPrediction(ine.signature, ine.nullity - 1, "skipped",
                                ["one-colored case: linking-matrix inertia"])
    sig_rest = rests.sub_inertia[i][0]
    sigma, eta, slope_value, _ = rests.boundary[i]
    if sigma is None:
        return TorresPrediction(None, None, "skipped", [
            "slope indeterminate: sigma is sigma(rest) + sgn(slope),"
            " eta is eta(rest) + {+1, 0, -1}, with unresolved slope"], sig_rest)
    notes = ["no component of the first color splits off" if slope_value is None
             else "split case: slope " + _SLOPE_TEXT % slope_value]

    midpoint = "skipped"
    midpoint_value = None
    if any(rests.linking_vector) and rests.generic[i]:
        plus, minus, _ = rests.limits[i]
        midpoint_value = Fraction(plus + minus, 2)
        midpoint = "pass" if midpoint_value == sig_rest else "fail"
    return TorresPrediction(sigma, eta, midpoint, notes, sig_rest, midpoint_value)


def _check_torres(rests, i):
    prediction = _predict_torres(rests, i)
    inputs = {"omega_rest": rests.points[i].angle_text(),
              "sigma_pred": prediction.sigma, "eta_pred": prediction.eta}
    if prediction.midpoint == "skipped":
        return [_skip("torres/midpoint", inputs,
                      "midpoint check not applicable here")]
    return [_eq("torres/midpoint", inputs, prediction.midpoint_value,
                prediction.sigma_rest, prediction.notes)]


# -- the diagonal identity -------------------------------------------------------

def verify_multi_lt(link, angle):
    """Check the diagonal identity against the underlying oriented link."""
    if link.underlying_oriented is None:
        raise MissingUnderlying("link carries no underlying_oriented data")
    angle = normalize_angle(angle)
    if angle == 0:
        raise BoundaryPoint("the diagonal identity needs omega different from 1")
    return _diagonal_reports(link, [angle])


def _diagonal_reports(link, angles):
    """The diagonal identity at angles in (0, 1), each side in one stacked call."""
    omegas = [angle_to_complex(a) for a in angles]
    sigmas_diag, _ = signature_nullity_batch(link, [(w,) * link.mu for w in omegas])
    oriented = link.underlying_oriented
    sigmas_or, _ = signature_nullity_batch(oriented, [(w,) for w in omegas])
    cross = sum(link.lk_colors(i, j)
                for i in range(1, link.mu + 1) for j in range(i + 1, link.mu + 1))
    return [_eq("multi-lt/identity", {"omega": str(a)}, sigma_diag, sigma_or + cross)
            for a, sigma_diag, sigma_or in zip(angles, sigmas_diag, sigmas_or)]


# -- suite driver ------------------------------------------------------------------

SUITES = ("3d", "4d", "lt", "corners", "torres", "multi-lt", "all")
# "all" on torus(3) peaks near 9 KB per sample, so 2^16 samples are about 0.6 GB
SAMPLES = range(1, 2 ** 16 + 1)


def random_rational_point(rnd, count):
    """A deterministic random point with rational angles p/q in (0, 1), q <= 64."""
    angles = []
    for _ in range(count):
        q = rnd.randint(2, 64)
        p = rnd.randint(1, q - 1)
        angles.append(Fraction(p, q))
    return TorusPoint(angles)


def run_suite(link, suite, samples=50, seed=0):
    """Run a verification suite on a link, on deterministic random points.

    The points are drawn on the first read by a suite that checks them (3d,
    4d, torres, multi-lt).  The 3d, 4d and Torres checks at those points
    share one table per quantity: the sublink inertia, both one-sided
    limits and the boundary value (with the slope) of every point, each
    computed for all points on its first read, the first two in one stacked
    call each.  A suite whose data the link lacks (3d and 4d need two
    colors; lt a one-colored link or underlying_oriented data; multi-lt
    underlying_oriented data) raises when requested alone.  Under "all", lt
    and multi-lt then write one skip record each, and 3d and 4d write
    nothing.  A suite whose checks raise MissingSublink, MissingConwayData
    or UnsupportedCase likewise raises when requested alone, and under
    "all" writes one "<suite>/skipped" record with the error's text.
    ``samples`` is read by :func:`as_integer` (SchemaError), then must lie
    in ``SAMPLES`` (DomainError).
    """
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    samples = as_integer(samples, "samples %r", samples)
    if samples not in SAMPLES:
        raise DomainError("samples must be in %d..%d, got %r" % (SAMPLES[0], SAMPLES[-1], samples))
    rnd = random.Random(seed)
    rests = cache(lambda: _Rests(link, [random_rational_point(rnd, link.mu - 1)
                                        for _ in range(samples)]))
    each = range(samples if link.mu > 1 else 1)  # one Torres record for one color
    oriented = link if link.mu == 1 else link.underlying_oriented
    # suite, whether the link carries its data, its reports, the error when it
    # is asked for alone, and the record "all" writes in its place (or None)
    rows = (
        ("3d", link.mu > 1, lambda: [r for i in each for r in _check_3d(rests(), i)],
         WrongColorCount("3d suite needs at least two colors"), None),
        ("4d", link.mu > 1, lambda: [r for i in each for r in _check_4d(rests(), i)],
         WrongColorCount("4d suite needs at least two colors"), None),
        ("lt", oriented is not None, lambda: verify_lt(oriented),
         MissingUnderlying("lt suite needs a 1-colored link or underlying_oriented data"),
         _skip("lt/skipped", {}, "no 1-colored data available")),
        ("corners", True, lambda: verify_corner_limits(link), None, None),
        ("torres", True, lambda: [r for i in each for r in _check_torres(rests(), i)],
         None, None),
        ("multi-lt", link.underlying_oriented is not None,
         lambda: _diagonal_reports(link, [pt[0] if pt.mu else Fraction(1, 2)
                                          for pt in rests().points]),
         MissingUnderlying("multi-lt suite needs underlying_oriented data"),
         _skip("multi-lt/skipped", {}, "no underlying_oriented data")),
    )
    reports = []
    for name, applies, checks, error, skipped in rows:
        if suite not in (name, "all"):
            continue
        if applies:
            try:
                reports += checks()
            except (MissingSublink, MissingConwayData, UnsupportedCase) as exc:
                if suite != "all":
                    raise
                reports.append(_skip(name + "/skipped", {}, str(exc)))
        elif suite != "all":
            raise error
        elif skipped is not None:
            reports.append(skipped)
    return reports
