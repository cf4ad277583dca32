"""Directional limits of the signature, and machine checks of every limit
statement and Torres prediction the library covers.

A directional limit is estimated along a geometric schedule of rational
angles approaching 1 from one side; it counts as stabilized when the last
few samples agree, and an unstable trail is surfaced rather than averaged
away.  Each verifier emits one report per elementary relation (inequality
or equality) so failures carry the audit trail.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .angles import TorusPoint, angle_to_complex, normalize_angle
from .corrections import signature_jump, wall_indicator
from .errors import (BoundaryPoint, Indeterminate, MissingConwayData,
                     MissingSublink, MissingUnderlying, UnsupportedCase,
                     WrongColorCount)
from .hermitian import DEFAULT_TOL, integer_inertia
from .laurent import as_rational
from .links import (linking_matrix, sign_key, sign_vectors, signature_nullity,
                    signature_nullity_batch)
from .slope import (classify_slope, conway_factor_split, conway_nonzero_at,
                    extended_sign, slope, torres_generic)


def _sgn(value):
    return (value > 0) - (value < 0)


# -- directional limits ----------------------------------------------------

@dataclass(frozen=True)
class LimitSchedule:
    """Geometric schedule of offsets from 1, with a stabilization window."""

    initial: Fraction = Fraction(1, 16)
    steps: int = 17
    window: int = 4

    def __post_init__(self):
        if not 0 < self.initial < 1:  # keeps every sample off the boundary
            raise ValueError("the initial offset must lie in (0, 1)")

    def deltas(self):
        return [self.initial / (2 ** m) for m in range(self.steps)]


DEFAULT_SCHEDULE = LimitSchedule()


@dataclass
class LimitResult:
    """Samples (offset, sigma, eta) along one side, and the verdict."""

    side: str
    samples: list
    window: int

    @property
    def stable(self):
        if len(self.samples) < self.window:
            return False
        tail = [s for _, s, _ in self.samples[-self.window:]]
        return all(v == tail[0] for v in tail)

    @property
    def value(self):
        return self.samples[-1][1] if self.stable else None

    def tail_sigmas(self):
        """Distinct signature values among the trailing window."""
        return sorted({s for _, s, _ in self.samples[-self.window:]})

    def __repr__(self):
        state = "value=%d" % self.value if self.stable else "unstable"
        return "LimitResult(side=%s, %s)" % (self.side, state)


def directional_limit(link, rest, side="plus", schedule=None, tol=DEFAULT_TOL):
    """Estimate the one-sided limit of the signature as the first coordinate
    tends to 1, with the remaining coordinates held fixed."""
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    if not isinstance(rest, TorusPoint):
        rest = TorusPoint(rest)
    if rest.mu != link.mu - 1:
        raise ValueError("rest point needs %d coordinates" % (link.mu - 1))
    if not rest.in_open_torus:
        raise BoundaryPoint("fixed coordinates must avoid 1")
    sign = 1 if side == "plus" else -1
    return _schedule_limit(link, side, (sign,), rest.omega(),
                           schedule or DEFAULT_SCHEDULE, tol)


def _corner_limit(link, signs, schedule, tol):
    """Limit of the signature with every coordinate tending to 1^sign."""
    return _schedule_limit(link, sign_key(signs), signs, (), schedule, tol)


def _schedule_limit(link, name, signs, fixed, schedule, tol):
    """Samples along the schedule, all points evaluated in one stacked call.

    The leading coordinates tend to 1 from the sides in ``signs`` (angle
    delta for +1, 1 - delta for -1); the ``fixed`` circle coordinates follow.
    The zero cut is taken relative to the norm of each degenerating form.
    """
    deltas = schedule.deltas()
    rows = [tuple(angle_to_complex(d if s > 0 else 1 - d) for s in signs) + fixed
            for d in deltas]
    sigmas, etas = signature_nullity_batch(link, rows, tol, relative=True)
    return LimitResult(name, list(zip(deltas, sigmas, etas)), schedule.window)


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
    if isinstance(value, Fraction):
        return str(value)
    if value is None:
        return None
    return value


def _leq(check, inputs, lhs, rhs, notes=()):
    notes = list(notes)
    if lhs == rhs:
        notes.append("bound sharp")
    return VerificationReport(check, inputs, lhs, rhs, "<=", lhs <= rhs, notes)


def _eq(check, inputs, lhs, rhs, notes=()):
    return VerificationReport(check, inputs, lhs, rhs, "==", lhs == rhs, list(notes))


def _skip(check, inputs, note):
    return VerificationReport(check, inputs, None, None, "==", True, [note])


def _limit_eq(check, inputs, lim, target, notes=()):
    if not lim.stable:
        rep = VerificationReport(check, inputs, None, target, "==", False, list(notes))
        rep.notes.append("limit did not stabilize: tail %r" % (lim.tail_sigmas(),))
        return rep
    return _eq(check, inputs, lim.value, target, notes)


def _limit_gap_leq(check, inputs, lim, center, rhs, notes=()):
    """Bound check |sigma - center| <= rhs over the trailing values."""
    lhs = max(abs(s - center) for s in lim.tail_sigmas())
    rep = _leq(check, inputs, lhs, rhs, notes)
    if not lim.stable:
        rep.notes.append("limit did not stabilize; bound checked on all trailing values")
    return rep


def _rank_note(link):
    return "rank_alexander=%d%s" % (link.rank_alexander,
                                    " (default)" if link.rank_alexander == 0 else "")


def _require_rest(link):
    sub = link.rest_sublink()
    if sub is None:
        raise MissingSublink("link carries no sublink data under key %r" % link.rest_key())
    return sub


def _coerce_rest_point(link, point):
    if not isinstance(point, TorusPoint):
        point = TorusPoint(point)
    if point.mu != link.mu - 1:
        raise ValueError("point needs %d coordinates" % (link.mu - 1))
    if not point.in_open_torus:
        raise BoundaryPoint("the fixed coordinates must avoid 1")
    return point


# -- the 3D bound (generalized Seifert form route) ---------------------------

def verify_3d(link, point, tol=DEFAULT_TOL, schedule=None):
    """Check the limit bound with the combinatorial jump and wall terms.

    Requires every color to be a knot (reported as skipped otherwise) and
    sublink data for the link with color 1 removed.  When the Alexander
    value at (1, omega') is provably nonzero, the exact equality of the
    limits with sigma(L') +/- jump is checked as well.
    """
    point = _coerce_rest_point(link, point)
    inputs = {"omega_rest": point.angle_text()}
    if any(c != 1 for c in link.components_per_color):
        return [_skip("3d/skipped", inputs, "statement needs every color to be a knot")]
    sub = _require_rest(link)
    sig_rest, eta_rest = signature_nullity(sub, point, tol)
    ell = link.linking_vector()
    jump = signature_jump(ell, point)
    wall = wall_indicator(ell, point)
    rhs = eta_rest + wall - link.rank_alexander
    notes = [_rank_note(link)]

    reports = []
    limits = {}
    for side, orient in (("plus", 1), ("minus", -1)):
        lim = directional_limit(link, point, side, schedule, tol)
        limits[side] = (lim, orient)
        reports.append(_limit_gap_leq("3d/bound/" + side, inputs, lim,
                                      sig_rest + orient * jump, rhs, notes))

    try:
        generic = torres_generic(link, point)
    except MissingConwayData:
        generic = None
        reports.append(_skip("3d/equality", inputs,
                             "genericity untestable: sublink carries no Conway data"))
    if generic:
        for side, (lim, orient) in limits.items():
            reports.append(_limit_eq("3d/equality/" + side, inputs, lim,
                                     sig_rest + orient * jump, notes))
    return reports


# -- the 4D bound (extension and Torres route) -------------------------------

def verify_4d(link, point, tol=DEFAULT_TOL, schedule=None):
    """Check the linked-case and split-case limit bounds.

    Linked case: bound by the total linking of the first knot, the
    difference-of-limits bound, and the forced equality at total linking 1
    with nonvanishing sublink Alexander value.  Split case: bounds driven by
    the slope classification and the forced equality when the slope is
    finite and nonzero.
    """
    point = _coerce_rest_point(link, point)
    inputs = {"omega_rest": point.angle_text()}
    if link.components_per_color[0] != 1:
        return [_skip("4d/skipped", inputs, "the first color must be a knot")]
    sub = _require_rest(link)
    sig_rest, eta_rest = signature_nullity(sub, point, tol)
    rank = link.rank_alexander
    knot = "1.1"
    rest_comps = [c for color in range(2, link.mu + 1)
                  for c in link.components_of_color(color)]
    total = sum(abs(link.lk(knot, c)) for c in rest_comps)
    notes = [_rank_note(link)]

    lim_plus = directional_limit(link, point, "plus", schedule, tol)
    lim_minus = directional_limit(link, point, "minus", schedule, tol)
    reports = []

    if total > 0:
        bound = eta_rest - 1 + total - rank
        for side, lim in (("plus", lim_plus), ("minus", lim_minus)):
            reports.append(_limit_gap_leq("4d/linked/bound/" + side, inputs,
                                          lim, sig_rest, bound, notes))
        diff = max(abs(a - b) for a in lim_plus.tail_sigmas()
                   for b in lim_minus.tail_sigmas())
        reports.append(_leq("4d/linked/difference", inputs, diff, 2 * bound, notes))
        if total == 1:
            if sub.conway is None:
                reports.append(_skip("4d/linked/equality", inputs,
                                     "sublink carries no Conway data"))
            elif conway_nonzero_at(sub.conway, point):
                reports.append(_limit_eq("4d/linked/equality/plus", inputs,
                                         lim_plus, sig_rest, notes))
                reports.append(_limit_eq("4d/linked/equality/minus", inputs,
                                         lim_minus, sig_rest, notes))
            else:
                reports.append(_skip("4d/linked/equality", inputs,
                                     "sublink Alexander value vanishes here"))
        return reports

    if link.conway is None:
        raise MissingConwayData("split case needs the link's conway data")
    if sub.conway is None:
        raise MissingConwayData("split case needs conway data for the sublink")
    try:
        slope_value = slope(link.conway, sub.conway, point)
    except Indeterminate:
        reports.append(_skip("4d/split/slope", inputs,
                             "slope formula reads 0/0; bound untestable here"))
        return reports
    shift, eps = classify_slope(slope_value)
    inputs = dict(inputs, slope=repr(slope_value))
    bound = eta_rest + eps - rank
    for side, lim in (("plus", lim_plus), ("minus", lim_minus)):
        reports.append(_limit_gap_leq("4d/split/bound/" + side, inputs,
                                      lim, sig_rest + shift, bound, notes))
    diff = max(abs(a - b) for a in lim_plus.tail_sigmas()
               for b in lim_minus.tail_sigmas())
    reports.append(_leq("4d/split/difference", inputs, diff, 2 * bound, notes))
    if shift != 0:
        # slope finite and nonzero: numerator and denominator both nonvanish
        reports.append(_limit_eq("4d/split/equality/plus", inputs,
                                 lim_plus, sig_rest + shift, notes))
        reports.append(_limit_eq("4d/split/equality/minus", inputs,
                                 lim_minus, sig_rest + shift, notes))
    return reports


# -- the Levine-Tristram limit ------------------------------------------------

def verify_lt(link, tol=DEFAULT_TOL, schedule=None):
    """Check the one-variable limit against the exact linking-matrix inertia."""
    if link.mu != 1:
        raise WrongColorCount("Levine-Tristram checks need a 1-colored link")
    m = link.total_components
    ine = integer_inertia(linking_matrix(link, (1,)))
    rank = link.rank_alexander
    inputs = {"components": m}
    notes = [_rank_note(link),
             "derived constraint: rank A(L) <= %d" % (ine.nullity - 1)]

    empty = TorusPoint(())
    lim_plus = directional_limit(link, empty, "plus", schedule, tol)
    lim_minus = directional_limit(link, empty, "minus", schedule, tol)

    reports = [_limit_eq("lt/side-agreement", inputs, lim_plus,
                         lim_minus.value, notes)]
    bound = ine.nullity - 1 - rank
    reports.append(_limit_gap_leq("lt/limit-bound", inputs, lim_plus,
                                  ine.signature, bound, notes))
    reports.append(_limit_gap_leq("lt/magnitude-bound", inputs, lim_plus, 0,
                                  m - 1 - rank, notes))
    reports.append(_leq("lt/rank-constraint", inputs, rank, ine.nullity - 1, notes))
    if bound == 0:
        reports.append(_limit_eq("lt/limit-equality", inputs, lim_plus,
                                 ine.signature, notes))
    return reports


_PLUS_MINUS_ONE_REPR = "PlusMinusOne"


class _PlusMinusOne:
    """Indeterminate token: the limit is +1 or -1, data cannot tell which."""

    def __repr__(self):
        return _PLUS_MINUS_ONE_REPR


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

def verify_corner_limits(link, tol=DEFAULT_TOL, schedule=None):
    """Check the limits with all coordinates tending to 1 with chosen signs."""
    schedule = schedule or DEFAULT_SCHEDULE
    m = link.total_components
    rank = link.rank_alexander
    reports = []
    for signs in sign_vectors(link.mu):
        key = sign_key(signs)
        inputs = {"signs": key}
        notes = [_rank_note(link)]
        lim = _corner_limit(link, signs, schedule, tol)
        ine = integer_inertia(linking_matrix(link, signs))
        cross = sum(signs[i] * signs[j] * link.lk_colors(i + 1, j + 1)
                    for i in range(link.mu) for j in range(i + 1, link.mu))
        center = ine.signature + cross
        reports.append(_limit_gap_leq("corners/bound/" + key, inputs, lim,
                                      center, ine.nullity - 1 - rank, notes))
        if ine.nullity == 1:
            reports.append(_limit_eq("corners/equality/" + key, inputs, lim,
                                     center, notes))
        if link.mu == 2:
            ell = link.lk_colors(1, 2)
            if ell != 0:
                closed = signs[0] * signs[1] * (ell - _sgn(ell))
                reports.append(_limit_eq("corners/two-color/" + key, inputs,
                                         lim, closed, notes))
        magnitude = max(abs(s) for s in lim.tail_sigmas())
        reports.append(_leq("corners/magnitude/" + key, inputs, magnitude,
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


def predict_torres(link, point=None, tol=DEFAULT_TOL, schedule=None):
    """Predict the signature and nullity at (1, omega') from sublink data.

    One-colored links use the exact linking-matrix inertia; a split first
    knot uses the slope; a first color with no split component uses the
    linking-count correction.  Anything else is unsupported and reported,
    not guessed.  When the linking numbers with the first color are not all
    zero and the point is generic, the midpoint of the two directional
    limits is checked against the sublink signature.
    """
    notes = []
    if link.mu == 1:
        ine = integer_inertia(linking_matrix(link, (1,)))
        notes.append("one-colored case: linking-matrix inertia")
        return TorresPrediction(ine.signature, ine.nullity - 1, "skipped", notes)

    point = _coerce_rest_point(link, point)
    sub = _require_rest(link)
    sig_rest, eta_rest = signature_nullity(sub, point, tol)
    comps1 = link.components_of_color(1)
    rest_comps = [c for color in range(2, link.mu + 1)
                  for c in link.components_of_color(color)]
    split = {k: all(link.lk(k, c) == 0 for c in rest_comps) for k in comps1}

    if all(split.values()):
        if len(comps1) > 1:
            raise UnsupportedCase(
                "algebraically split with a multi-component first color")
        if link.conway is None or sub.conway is None:
            raise MissingConwayData("split prediction needs Conway data")
        try:
            slope_value = slope(link.conway, sub.conway, point)
        except Indeterminate:
            notes.append("slope indeterminate: sigma is sigma(rest) + sgn(slope),"
                         " eta is eta(rest) + {+1, 0, -1}, with unresolved slope")
            return TorresPrediction(None, None, "skipped", notes, sig_rest)
        sigma = sig_rest + extended_sign(slope_value)
        if slope_value.is_infinite:
            eta = eta_rest - 1
        elif slope_value.value == 0.0:
            eta = eta_rest + 1
        else:
            eta = eta_rest
        notes.append("split case: slope %r" % slope_value)
    elif not any(split.values()):
        sigma = sig_rest
        eta = (eta_rest - len(comps1)
               + sum(abs(link.lk(k, c)) for k in comps1 for c in rest_comps))
        notes.append("no component of the first color splits off")
    else:
        raise UnsupportedCase(
            "mixed split and non-split components in the first color")

    midpoint = "skipped"
    midpoint_value = None
    if any(link.linking_vector()):
        try:
            generic = torres_generic(link, point)
        except (MissingConwayData, MissingSublink):
            generic = False
            notes.append("midpoint skipped: genericity untestable")
        if generic:
            lim_plus = directional_limit(link, point, "plus", schedule, tol)
            lim_minus = directional_limit(link, point, "minus", schedule, tol)
            if lim_plus.stable and lim_minus.stable:
                midpoint_value = Fraction(lim_plus.value + lim_minus.value, 2)
                midpoint = "pass" if midpoint_value == sig_rest else "fail"
            else:
                midpoint = "fail"
                notes.append("midpoint: a directional limit did not stabilize")
    return TorresPrediction(sigma, eta, midpoint, notes, sig_rest, midpoint_value)


def torres_reports(link, point=None, tol=DEFAULT_TOL, schedule=None):
    """Wrap a Torres prediction as verification reports."""
    prediction = predict_torres(link, point, tol, schedule)
    inputs = {"omega_rest": point.angle_text() if point is not None else "",
              "sigma_pred": _jsonable(prediction.sigma),
              "eta_pred": _jsonable(prediction.eta)}
    if prediction.midpoint == "skipped":
        return [_skip("torres/midpoint", inputs,
                      "midpoint check not applicable here")]
    report = _eq("torres/midpoint", inputs, prediction.midpoint_value,
                 prediction.sigma_rest, prediction.notes)
    report.passed = prediction.midpoint == "pass"
    return [report]


# -- the diagonal identity -------------------------------------------------------

def verify_multi_lt(link, angle, tol=DEFAULT_TOL):
    """Check the diagonal identity against the underlying oriented link."""
    oriented = link.underlying_oriented
    if oriented is None:
        raise MissingUnderlying("link carries no underlying_oriented data")
    angle = normalize_angle(angle)
    if angle == 0:
        raise BoundaryPoint("the diagonal identity needs omega different from 1")
    diag = TorusPoint([angle] * link.mu)
    sigma_diag, _ = signature_nullity(link, diag, tol)
    sigma_or, _ = signature_nullity(oriented, TorusPoint([angle]), tol)
    cross = sum(link.lk_colors(i, j)
                for i in range(1, link.mu + 1) for j in range(i + 1, link.mu + 1))
    inputs = {"omega": str(angle)}
    return [_eq("multi-lt/identity", inputs, sigma_diag, sigma_or + cross)]


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


def run_suite(link, suite, samples=50, seed=0, tol=DEFAULT_TOL, schedule=None):
    """Run a verification suite on a link, on deterministic random points.

    A specifically requested suite raises when the link lacks the data it
    needs; under "all", inapplicable suites are skipped with a note.
    """
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    all_mode = suite == "all"
    rnd = random.Random(seed)
    points = [random_rational_point(rnd, max(link.mu - 1, 0))
              for _ in range(samples)]
    single_angles = [pt[0] if pt.mu else Fraction(1, 2) for pt in points]
    reports = []

    def want(name):
        return all_mode or suite == name

    if want("3d"):
        if link.mu >= 2:
            for pt in points:
                reports.extend(verify_3d(link, pt, tol, schedule))
        elif not all_mode:
            raise WrongColorCount("3d suite needs at least two colors")
    if want("4d"):
        if link.mu >= 2:
            for pt in points:
                reports.extend(verify_4d(link, pt, tol, schedule))
        elif not all_mode:
            raise WrongColorCount("4d suite needs at least two colors")
    if want("lt"):
        if link.mu == 1:
            reports.extend(verify_lt(link, tol, schedule))
        elif link.underlying_oriented is not None:
            reports.extend(verify_lt(link.underlying_oriented, tol, schedule))
        elif not all_mode:
            raise MissingUnderlying("lt suite needs a 1-colored link or "
                                    "underlying_oriented data")
        else:
            reports.append(_skip("lt/skipped", {}, "no 1-colored data available"))
    if want("corners"):
        reports.extend(verify_corner_limits(link, tol, schedule))
    if want("torres"):
        if link.mu == 1:
            reports.extend(torres_reports(link, None, tol, schedule))
        else:
            for pt in points:
                reports.extend(torres_reports(link, pt, tol, schedule))
    if want("multi-lt"):
        if link.underlying_oriented is not None:
            for angle in single_angles:
                reports.extend(verify_multi_lt(link, angle, tol))
        elif not all_mode:
            raise MissingUnderlying("multi-lt suite needs underlying_oriented data")
        else:
            reports.append(_skip("multi-lt/skipped", {},
                                 "no underlying_oriented data"))
    return reports
