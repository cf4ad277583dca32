"""Command-line front end.

Subcommands: eval, grid, limit, slope, verify, family, torres.  Angles are
rationals "p/q", integers or decimals; a decimal reads as the fraction that
its float prints as, so 0.3 and 3/10 are one angle.  Eigenvalues are cut
at the fixed zero cut of :mod:`sigtorus.hermitian`.
Exit codes: 0 ok, 2 input error, 3 IO error, 4 verification failure.
"""

import argparse
import functools
import os
import sys
from fractions import Fraction

import numpy as np

from .angles import TorusPoint, angle_to_complex
from .errors import BoundaryPoint, SigtorusError
from .families import _MAX_ENTRIES, FAMILIES, make_family
from .links import (load_link, save_link, signature_nullity,
                    signature_nullity_batch)
from .slope import classify_slope, slope
from .verify import (SAMPLES, SIDES, SUITES, directional_limit, predict_torres,
                     report_text, run_suite)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_FAIL = 4


def _point(text, flag, count=None):
    """Parse the angle list given with ``flag``; with ``count``, check its length."""
    try:
        point = TorusPoint.from_text(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SigtorusError("%s: cannot read %r as angles (%s)" % (flag, text, exc)) from None
    if count is not None and point.mu != count:
        raise SigtorusError("%s needs %d angle(s), got %d" % (flag, count, point.mu))
    return point


def cmd_eval(args):
    link = load_link(args.link)
    point = _point(args.omega, "--omega", link.mu)
    try:
        sigma, eta = signature_nullity(link, point)
    except BoundaryPoint:
        raise BoundaryPoint("omega has a coordinate equal to 1; the Seifert form "
                            "degenerates there. Use the `torres` command for "
                            "boundary predictions.") from None
    print("sigma=%d eta=%d dim=%d" % (sigma, eta, link.seifert.n))
    return EXIT_OK


def _grid_axes(args, link):
    try:
        axes = tuple(int(x) for x in args.axes.split(",")) if args.axes else (1, 2)
    except ValueError:
        axes = ()
    if len(axes) != 2 or len(set(axes)) != 2 or not all(1 <= a <= link.mu for a in axes):
        raise SigtorusError("--axes must name two distinct colors in 1..%d" % link.mu)
    rest_colors = [c for c in range(1, link.mu + 1) if c not in axes]
    rest_angles = _point(args.rest, "--rest").angles if args.rest else ()
    if len(rest_angles) != len(rest_colors):
        raise SigtorusError("--rest must supply %d angle(s) for colors %r"
                            % (len(rest_colors), rest_colors))
    if any(a == 0 for a in rest_angles):
        raise BoundaryPoint("--rest: an angle equal to 0 puts the sweep on the "
                            "boundary, where the Seifert form degenerates")
    return axes, dict(zip(rest_colors, rest_angles))


def cmd_grid(args):
    link = load_link(args.link)
    n = args.resolution
    if n < 2:
        raise SigtorusError("--resolution must be at least 2")
    if link.mu < 2:
        raise SigtorusError("grid sweeps need at least two colors")
    # refused before the axis angles or the point array are built
    if (n - 1) ** 2 * link.mu > _MAX_ENTRIES:
        raise SigtorusError("--resolution %d is too large: %d points of %d angles exceed "
                            "2**24 entries" % (n, (n - 1) ** 2, link.mu))
    axes, fixed = _grid_axes(args, link)

    # row-major over (theta1, theta2) = (i/n, j/n), i and j in 1..n-1
    side = n - 1
    thetas = [Fraction(i, n) for i in range(1, n)]
    axis_omegas = np.array([angle_to_complex(t) for t in thetas])
    omegas = np.empty((side * side, link.mu), dtype=complex)
    omegas[:, axes[0] - 1] = np.repeat(axis_omegas, side)
    omegas[:, axes[1] - 1] = np.tile(axis_omegas, side)
    for color, angle in fixed.items():
        omegas[:, color - 1] = angle_to_complex(angle)
    # sigma(conj omega) = sigma(omega), and so for eta.  With every rest
    # angle at 1/2 (or none), point P - 1 - k is the conjugate of point k:
    # evaluate the first half and mirror it.
    total = side * side
    count = (total + 1) // 2 if all(a == Fraction(1, 2) for a in fixed.values()) else total
    sigmas, etas = signature_nullity_batch(link, omegas[:count])
    sigmas += sigmas[:total - count][::-1]
    etas += etas[:total - count][::-1]

    labels = [str(t) for t in thetas]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("theta1,theta2,sigma,eta\n")
        for k, (sigma, eta) in enumerate(zip(sigmas, etas)):
            fh.write("%s,%s,%d,%d\n" % (labels[k // side], labels[k % side], sigma, eta))
    if args.heatmap:
        _write_heatmap(args.heatmap, sigmas, n)
    return EXIT_OK


def _write_heatmap(path, sigmas, n):
    """Plain (P2) PGM with the signature mapped affinely onto 0..255."""
    low, high = min(sigmas), max(sigmas)
    span = high - low
    side = n - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("P2\n%d %d\n255\n" % (side, side))
        for r in range(side):
            line = []
            for c in range(side):
                s = sigmas[r * side + c]
                line.append(str(round((s - low) * 255 / span)) if span else "0")
            fh.write(" ".join(line) + "\n")


def cmd_limit(args):
    link = load_link(args.link)
    rest = _point(args.omega_rest or "", "--omega-rest", link.mu - 1)
    result = directional_limit(link, rest, args.side)
    print("limit=%d side=%s status=stable" % (result.value, args.side))
    return EXIT_OK


def cmd_slope(args):
    link = load_link(args.link)
    point = _point(args.omega, "--omega", link.mu - 1)
    sub = link.rest_sublink()
    if link.conway is None:
        raise SigtorusError("link file carries no conway data")
    if sub is None or sub.conway is None:
        raise SigtorusError("link file carries no sublink conway data")
    value = slope(link.conway, sub.conway, point)
    s, eps = classify_slope(value)
    print("slope=%.12g s=%d eps=%d" % (value, s, eps))
    return EXIT_OK


def cmd_verify(args):
    link = load_link(args.link)
    if args.samples not in SAMPLES:
        raise SigtorusError("--samples must be in %d..%d, got %d"
                            % (SAMPLES[0], SAMPLES[-1], args.samples))
    reports = run_suite(link, args.suite, samples=args.samples, seed=args.seed)
    print("".join("%s %s lhs=%s rhs=%s (%s)\n"
                  % ("PASS" if rep.passed else "FAIL", rep.check, rep.lhs, rep.rhs, rep.relation)
                  for rep in reports), end="")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_text(reports))
    failures = sum(not rep.passed for rep in reports)
    print("checks=%d failures=%d" % (len(reports), failures))
    return EXIT_FAIL if failures else EXIT_OK


def cmd_family(args):
    try:
        link = make_family(args.name, args.param)
    except SigtorusError as exc:
        raise SigtorusError("--param: %s" % exc) from None
    if os.path.exists(args.out) and not args.force:
        raise SigtorusError("%s exists; pass --force to overwrite" % args.out)
    save_link(link, args.out)
    print("wrote %s" % args.out)
    return EXIT_OK


def cmd_torres(args):
    link = load_link(args.link)
    point = _point(args.omega, "--omega", link.mu - 1)
    prediction = predict_torres(link, point)
    sigma = "unresolved" if prediction.sigma is None else str(prediction.sigma)
    eta = "unresolved" if prediction.eta is None else str(prediction.eta)
    print("sigma_pred=%s eta_pred=%s midpoint=%s" % (sigma, eta, prediction.midpoint))
    for note in prediction.notes:
        print("note: %s" % note)
    return EXIT_OK


@functools.cache
def _build_parser():
    """The top-level parser and its subcommand parsers by name, built on the
    first call and shared by later ones.

    A build takes about 1.0 ms on a 2-core Intel Xeon host, three times the
    median ``bench/run.py --workload query`` request there (0.33 ms), which
    calls ``main`` in-process.  The parsers hold no request state:
    each parse returns a fresh namespace, and each subcommand's ``func`` is
    a module-level ``cmd_*`` that looks up its collaborators when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="sigtorus",
        description="Multivariable link signatures from generalized Seifert data")
    sub = parser.add_subparsers(dest="command", required=True)

    link_only = argparse.ArgumentParser(add_help=False)
    link_only.add_argument("--link", required=True)

    p = sub.add_parser("eval", parents=[link_only], help="signature and nullity at a torus point")
    p.add_argument("--omega", required=True,
                   help="comma-separated angles in turns; write a leading "
                        "negative angle as --omega=-1/3,1/5")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", parents=[link_only], help="sweep a rational grid to CSV (and PGM)")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--heatmap")
    p.add_argument("--axes", help="two swept colors, e.g. 1,2 (default)")
    p.add_argument("--rest", help="fixed angles for the remaining colors "
                                  "(--rest=-1/3 for a negative one)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("limit", parents=[link_only], help="one-sided limit of the signature")
    p.add_argument("--side", choices=SIDES, required=True)
    p.add_argument("--omega-rest", dest="omega_rest", default="",
                   help="fixed angles for colors 2..mu (empty for one color; "
                        "--omega-rest=-1/3 for a negative one)")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("slope", parents=[link_only], help="slope value and its classification")
    p.add_argument("--omega", required=True,
                   help="angles for colors 2..mu (--omega=-1/3 for a negative one)")
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("verify", parents=[link_only], help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the JSON report array here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="emit a built-in family link file")
    p.add_argument("--name", choices=FAMILIES, required=True)
    p.add_argument("--param", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("torres", parents=[link_only], help="boundary predictions at (1, omega')")
    p.add_argument("--omega", default="",
                   help="angles for colors 2..mu (--omega=-1/3 for a negative one)")
    p.set_defaults(func=cmd_torres)

    return parser, sub.choices


def main(argv=None):
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        # what the top-level parser does with a subcommand, without its own pass
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if extra:
            parser.error("unrecognized arguments: %s" % " ".join(extra))
    else:  # help, usage, or an unknown subcommand
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SigtorusError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
