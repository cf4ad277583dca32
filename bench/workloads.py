"""Seeded inputs and expected outputs for the benchmark workloads.

A workload is a list of operations.  Each operation is one argv for
``sigtorus.cli.main`` plus a check that decides from the exit code, the
captured stdout and any files the command wrote whether the answer is right.
Every input is derived from the workload seed: the same seed writes the same
link files and builds the same operations.

Why each workload exists (see also README.md):

* ``grid``: sequential ``grid --heatmap`` sweeps on 2-colour torus links with
  mid-sized matrices and on a random 3-colour system.  Nearly all the time is
  the eigenvalue solve; no work is shared between grid points.
* ``verify``: ``verify --suite all --report`` on built-ins whose matrices have
  n <= 2, so the time goes to per-point overhead and to directional limits
  recomputed for the same rest point.
* ``query``: a stream of single ``eval``/``limit``/``slope``/``torres``
  requests at fresh rational points, each paying ``load_link`` again.
"""

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

WORKLOADS = ("grid", "verify", "query")

# Random systems and ``verify --seed`` values come from this many variants, so
# that the byte-exact digests in digests.json cover every benchmark seed.
VARIANTS = 64

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# The zero cut and limit schedule of the seed program (hermitian.DEFAULT_TOL,
# verify.DEFAULT_SCHEDULE); the independent oracles below use the same ones.
TOL = 1e-9
LIMIT_DELTAS = [Fraction(1, 16) / 2 ** m for m in range(17)]
LIMIT_WINDOW = 4
# An eigenvalue within this factor of the cut makes a point ambiguous; the
# generator does not use such points, so no operation fails on correct code.
MARGIN = 1e3

GRID_TORI = ((10, 8), (-12, 8), (20, 5))   # (ell, resolution)
GRID_RANDOM = (3, 12, 6)                    # (mu, n, resolution)
VERIFY_LINKS = (("torus", 3), ("torus", -2), ("twist", 2), ("twist", -1),
                ("twist", 0), ("unlink", 3))
VERIFY_SAMPLES = 10
# Query links: torus and twist links carry Conway and sublink data.
_SMALL_CONWAY = (("torus", 3), ("torus", -4), ("torus", 7),
                 ("twist", 2), ("twist", -1), ("twist", 0))


@dataclass
class Op:
    """One CLI request and the check its outputs must pass."""

    kind: str
    argv: list
    check: Callable  # (exit code, stdout) -> None, or a reason for failure


def variant_of(seed):
    return seed % VARIANTS


def _sgn(value):
    return (value > 0) - (value < 0)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- link files ------------------------------------------------------------------

def _sign_vectors(mu):
    out = [()]
    for _ in range(mu):
        out = [v + (s,) for v in out for s in (1, -1)]
    return out


def _key(eps):
    return "".join("+" if e > 0 else "-" for e in eps)


def random_system(rnd, mu, n):
    """A random valid Seifert system as a link document.

    A^eps is a random integer matrix for every eps with eps_1 = +, and
    A^(-eps) is its transpose.  Linking numbers are random small integers.
    """
    seifert = {}
    for eps in _sign_vectors(mu):
        if eps[0] < 0:
            continue
        mat = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        seifert[_key(eps)] = mat
        seifert[_key(tuple(-e for e in eps))] = [list(r) for r in zip(*mat)]
    linking = [{"a": "%d.1" % i, "b": "%d.1" % j, "lk": rnd.randint(-2, 2)}
               for i in range(1, mu + 1) for j in range(i + 1, mu + 1)]
    return {"mu": mu, "components_per_color": [1] * mu, "linking": linking,
            "seifert": seifert}


def write_document(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_family(sigtorus, name, param, path):
    sigtorus.links.save_link(sigtorus.families.make_family(name, param), path)


# -- independent oracles for random systems ------------------------------------

def form_matrix(doc, angles):
    """H(omega) as the sum over all sign vectors, straight from the document."""
    mats = {k: np.array(v, dtype=float) for k, v in doc["seifert"].items()}
    omegas = [complex(math.cos(2 * math.pi * a), math.sin(2 * math.pi * a))
              for a in angles]
    n = len(next(iter(mats.values())))
    form = np.zeros((n, n), dtype=complex)
    for eps in _sign_vectors(doc["mu"]):
        coeff = 1.0 + 0.0j
        for w, e in zip(omegas, eps):
            coeff *= (1.0 - w.conjugate()) if e > 0 else (1.0 - w)
        form += coeff * mats[_key(eps)]
    return (form + form.conj().T) / 2.0


def _inertia(form, normalize):
    """(sigma, eta) by LAPACK, or None when an eigenvalue sits near the cut."""
    norm = float(np.linalg.norm(form))
    if normalize and norm > 0.0:
        form = form / norm
        norm = 1.0
    eigs = np.linalg.eigvalsh(form)
    cut = TOL * max(1.0, norm)
    mags = np.abs(eigs)
    if np.any((mags > cut / MARGIN) & (mags < cut * MARGIN)):
        return None
    plus = int(np.sum(eigs > cut))
    minus = int(np.sum(eigs < -cut))
    return plus - minus, len(eigs) - plus - minus


def random_eval(doc, angles):
    return _inertia(form_matrix(doc, angles), normalize=False)


def random_limit(doc, rest, side):
    """The stable one-sided limit, or None when the tail is not clean.

    The last window of the schedule and one far deeper offset must all give
    the same signature with no eigenvalue near the cut.
    """
    deltas = LIMIT_DELTAS[-LIMIT_WINDOW:] + [Fraction(1, 2 ** 30)]
    sigmas = set()
    for delta in deltas:
        first = delta if side == "plus" else 1 - delta
        res = _inertia(form_matrix(doc, (first,) + tuple(rest)), normalize=True)
        if res is None:
            return None
        sigmas.add(res[0])
    return sigmas.pop() if len(sigmas) == 1 else None


# -- closed forms for the built-in families ------------------------------------

def family_eval(sigtorus, name, param, angles):
    fam = sigtorus.families
    if name == "torus":
        return fam.oracle_torus(param, angles[0], angles[1]) + (abs(param) - 1,)
    if name == "twist":
        return fam.oracle_twist(param) + (1,)
    return 0, param - 1, param - 1  # unlink


def family_limit(sigtorus, name, param, rest, side):
    if name == "torus":
        tiny = Fraction(1, 2 ** 40)
        first = tiny if side == "plus" else 1 - tiny
        return sigtorus.families.oracle_torus(param, first, rest[0])[0]
    if name == "twist":
        return _sgn(param)
    return 0


def family_slope(name, param, theta):
    """The slope -d1 Nabla_L(1, s) / (2 Nabla_L'(s)) at s = exp(pi i theta).

    The sublink is the unknot, Nabla = 1 / (t - 1/t).  For torus(l) the
    Conway function is f(t1 t2) with f(u) = sum of u^e over
    e = |l|-1, |l|-3, ..., 1-|l| (negated for l < 0); for twist(k) it is
    k (t1 - 1/t1)(t2 - 1/t2).
    """
    s = complex(math.cos(math.pi * theta), math.sin(math.pi * theta))
    gap = s - 1 / s
    if name == "twist":
        return (-param * gap * gap).real
    m = abs(param)
    d1 = sum(e * s ** e for e in range(m - 1, -m, -2)) * _sgn(param)
    return (-d1 * gap / 2).real


def family_torres(name, param, rest):
    """First output line of ``torres`` for a torus or twist link."""
    if name == "torus":  # rest angles are off the walls, so the midpoint is checked
        return "sigma_pred=0 eta_pred=%d midpoint=pass" % (abs(param) - 1)
    if param == 0:
        return "sigma_pred=0 eta_pred=1 midpoint=skipped"
    return "sigma_pred=%d eta_pred=0 midpoint=skipped" % _sgn(param)


# -- checks ------------------------------------------------------------------------

def expect_stdout(text):
    def check(code, out):
        if code != 0:
            return "exit code %d" % code
        if out != text:
            return "stdout %r, expected %r" % (out[:200], text)
        return None
    return check


def expect_first_line(text):
    def check(code, out):
        if code != 0:
            return "exit code %d" % code
        first = out.split("\n", 1)[0]
        if first != text:
            return "first line %r, expected %r" % (first, text)
        return None
    return check


def expect_slope(value):
    def check(code, out):
        if code != 0:
            return "exit code %d" % code
        try:
            fields = dict(part.split("=", 1) for part in out.split())
            got = float(fields["slope"])
            s, eps = int(fields["s"]), int(fields["eps"])
        except (ValueError, KeyError):
            return "unparsable slope output %r" % out[:200]
        if not math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-9):
            return "slope %r, expected %r" % (got, value)
        want = (0, 1) if abs(value) <= 1e-9 else (_sgn(value), 0)
        if (s, eps) != want:
            return "classification %r, expected %r" % ((s, eps), want)
        return None
    return check


def grid_text(rows, n):
    """The CSV and PGM texts ``sigtorus grid`` writes for these rows."""
    csv = ["theta1,theta2,sigma,eta\n"]
    csv.extend("%s,%s,%d,%d\n" % row for row in rows)
    sigmas = [r[2] for r in rows]
    low, span = min(sigmas), max(sigmas) - min(sigmas)
    side = n - 1
    pgm = ["P2\n%d %d\n255\n" % (side, side)]
    for r in range(side):
        pgm.append(" ".join(str(round((s - low) * 255 / span)) if span else "0"
                            for s in sigmas[r * side:(r + 1) * side]) + "\n")
    return "".join(csv), "".join(pgm)


def expect_files(csv_path, pgm_path, csv_expected, pgm_expected, digest=False):
    """Exit 0 and the two files equal to the expected texts (or digests)."""
    def check(code, out):
        if code != 0:
            return "exit code %d" % code
        for path, want in ((csv_path, csv_expected), (pgm_path, pgm_expected)):
            if digest:
                got = sha256_file(path)
            else:
                with open(path, encoding="utf-8") as fh:
                    got = fh.read()
            if got != want:
                return "%s differs from its oracle" % os.path.basename(path)
        return None
    return check


def expect_verify(report_path, digest):
    def check(code, out):
        if code != 0:
            return "exit code %d" % code
        lines = out.splitlines()
        if not lines or not lines[-1].endswith(" failures=0"):
            return "summary %r" % (lines[-1:] or [""])[0]
        if any(line.startswith("FAIL ") for line in lines):
            return "a FAIL line in the output"
        if sha256_file(report_path) != digest:
            return "report digest differs from the recorded one"
        return None
    return check


# -- workloads ------------------------------------------------------------------

def _point(rnd, count, max_den=64):
    angles = []
    for _ in range(count):
        q = rnd.randint(2, max_den)
        angles.append(Fraction(rnd.randint(1, q - 1), q))
    return tuple(angles)


def _text(angles):
    return ",".join(str(a) for a in angles)


class Workload:
    """The link files and operations of one workload for one seed.

    ``write_inputs`` is the part users pay before their first request (it
    is timed as set-up); ``build_ops`` computes the expected outputs with
    the oracles and is not timed.
    """

    def __init__(self, name, seed, workdir, digests):
        if name not in WORKLOADS:
            raise ValueError("unknown workload %r" % name)
        self.name = name
        self.seed = seed
        self.variant = variant_of(seed)
        self.workdir = workdir
        self.digests = digests
        self.docs = {}  # random link documents by file name

    def path(self, filename):
        return os.path.join(self.workdir, filename)

    # set-up: link files ---------------------------------------------------

    def write_inputs(self, sigtorus):
        self.docs = {}
        getattr(self, "_inputs_" + self.name)(sigtorus)

    def _inputs_grid(self, sigtorus):
        for ell, _ in GRID_TORI:
            write_family(sigtorus, "torus", ell, self.path("torus%d.json" % ell))
        mu, n, _ = GRID_RANDOM
        rnd = random.Random("grid-%d" % self.variant)
        self._write_random(rnd, "random.json", mu, n)

    def _inputs_verify(self, sigtorus):
        for name, param in VERIFY_LINKS:
            write_family(sigtorus, name, param, self.path("%s%d.json" % (name, param)))

    QUERY_FAMILIES = _SMALL_CONWAY + (("torus", 13), ("unlink", 2), ("unlink", 4))
    QUERY_RANDOM = ((3, 8), (3, 8), (4, 6), (4, 6))  # (mu, n)

    def _inputs_query(self, sigtorus):
        for name, param in self.QUERY_FAMILIES:
            write_family(sigtorus, name, param, self.path("%s%d.json" % (name, param)))
        rnd = random.Random("query-%d" % self.seed)
        for i, (mu, n) in enumerate(self.QUERY_RANDOM):
            self._write_random(rnd, "random%d.json" % i, mu, n)

    def _write_random(self, rnd, filename, mu, n):
        doc = random_system(rnd, mu, n)
        write_document(doc, self.path(filename))
        self.docs[filename] = doc

    # the operations ----------------------------------------------------------

    def warmup_op(self):
        """A small request of the workload's kind, run once during set-up."""
        if self.name == "grid":
            return ["grid", "--link", self.path("torus10.json"), "--resolution", "3",
                    "--out", self.path("warmup.csv")]
        if self.name == "verify":
            return ["verify", "--link", self.path("twist2.json"), "--suite", "all",
                    "--samples", "1"]
        return ["eval", "--link", self.path("torus3.json"), "--omega", "1/3,1/5"]

    def build_ops(self, sigtorus):
        return getattr(self, "_ops_" + self.name)(sigtorus)

    def _ops_grid(self, sigtorus):
        ops = []
        for ell, res in GRID_TORI:
            rows = []
            for i in range(1, res):
                for j in range(1, res):
                    t1, t2 = Fraction(i, res), Fraction(j, res)
                    rows.append((t1, t2) + sigtorus.families.oracle_torus(ell, t1, t2))
            csv, pgm = grid_text(rows, res)
            ops.append(self._grid_op("torus%d.json" % ell, res, [], csv, pgm, False))
        mu, n, res = GRID_RANDOM
        rest = _point(random.Random("grid-rest-%d" % self.variant), mu - 2)
        want = self.digests["grid"][str(self.variant)]
        ops.append(self._grid_op("random.json", res,
                                 ["--axes", "1,2", "--rest", _text(rest)],
                                 want["csv"], want["pgm"], True))
        random.Random("grid-order-%d" % self.seed).shuffle(ops)
        return ops

    def _grid_op(self, link, res, extra, csv, pgm, digest):
        stem = os.path.splitext(link)[0]
        csv_path, pgm_path = self.path(stem + ".csv"), self.path(stem + ".pgm")
        argv = ["grid", "--link", self.path(link), "--resolution", str(res),
                "--out", csv_path, "--heatmap", pgm_path] + extra
        return Op("grid", argv, expect_files(csv_path, pgm_path, csv, pgm, digest))

    def _ops_verify(self, sigtorus):
        ops = []
        recorded = self.digests["verify"][str(self.variant)]
        for name, param in VERIFY_LINKS:
            stem = "%s%d" % (name, param)
            report = self.path(stem + "-report.json")
            argv = ["verify", "--link", self.path(stem + ".json"), "--suite", "all",
                    "--samples", str(VERIFY_SAMPLES), "--seed", str(self.variant),
                    "--report", report]
            ops.append(Op("verify", argv, expect_verify(report, recorded[stem])))
        random.Random("verify-order-%d" % self.seed).shuffle(ops)
        return ops

    # (command, built-in links, requests on them, requests on random systems)
    # per pass; requests take their link from the list in turn.  slope and
    # torres need Conway and sublink data, which random systems do not carry;
    # limit and torres on torus(13) would cost as much as the rest together.
    QUERY_MIX = (
        ("eval", QUERY_FAMILIES, 48, 32),
        ("limit", _SMALL_CONWAY + (("unlink", 2), ("unlink", 4)), 24, 24),
        ("slope", _SMALL_CONWAY + (("torus", 13),), 40, 0),
        ("torres", _SMALL_CONWAY, 40, 0),
    )

    def _ops_query(self, sigtorus):
        rnd = random.Random("query-points-%d" % self.seed)
        seen = set()
        ops = []
        for cmd, pool, n_family, n_random in self.QUERY_MIX:
            for i in range(n_family):
                name, param = pool[i % len(pool)]
                ops.append(self._family_query(sigtorus, rnd, seen, cmd, name, param))
            for i in range(n_random):
                filename = "random%d.json" % (i % len(self.QUERY_RANDOM))
                ops.append(self._random_query(rnd, seen, cmd, filename))
        rnd.shuffle(ops)
        return ops

    def _fresh(self, rnd, seen, link, count, accept):
        """A rational point not used before in this stream, passing ``accept``."""
        while True:
            angles = _point(rnd, count)
            if (link, angles) in seen:
                continue
            result = accept(angles)
            if result is not None:
                seen.add((link, angles))
                return angles, result

    def _family_query(self, sigtorus, rnd, seen, cmd, name, param):
        link = "%s%d.json" % (name, param)
        mu = param if name == "unlink" else 2
        argv = [cmd, "--link", self.path(link)]
        if cmd == "eval":
            angles, want = self._fresh(
                rnd, seen, link, mu, lambda a: family_eval(sigtorus, name, param, a))
            return Op(cmd, argv + ["--omega", _text(angles)],
                      expect_stdout("sigma=%d eta=%d dim=%d\n" % want))
        if name == "torus":
            # keep rest angles off the walls l * theta in Z
            def off_wall(a):
                return None if (param * a[0]).denominator == 1 else True
        else:
            def off_wall(a):
                return True
        rest, _ = self._fresh(rnd, seen, link, mu - 1, off_wall)
        if cmd == "limit":
            side = rnd.choice(("plus", "minus"))
            value = family_limit(sigtorus, name, param, rest, side)
            return Op(cmd, argv + ["--side", side, "--omega-rest", _text(rest)],
                      expect_stdout("limit=%d side=%s status=stable\n" % (value, side)))
        if cmd == "slope":
            return Op(cmd, argv + ["--omega", _text(rest)],
                      expect_slope(family_slope(name, param, float(rest[0]))))
        return Op(cmd, argv + ["--omega", _text(rest)],
                  expect_first_line(family_torres(name, param, rest)))

    def _random_query(self, rnd, seen, cmd, filename):
        doc = self.docs[filename]
        mu = doc["mu"]
        argv = [cmd, "--link", self.path(filename)]
        if cmd == "eval":
            angles, (sigma, eta) = self._fresh(
                rnd, seen, filename, mu, lambda a: random_eval(doc, a))
            return Op(cmd, argv + ["--omega", _text(angles)],
                      expect_stdout("sigma=%d eta=%d dim=%d\n"
                                    % (sigma, eta, len(doc["seifert"]["+" * mu]))))
        side = rnd.choice(("plus", "minus"))
        rest, value = self._fresh(rnd, seen, filename, mu - 1,
                                  lambda a: random_limit(doc, a, side))
        return Op(cmd, argv + ["--side", side, "--omega-rest", _text(rest)],
                  expect_stdout("limit=%d side=%s status=stable\n" % (value, side)))
