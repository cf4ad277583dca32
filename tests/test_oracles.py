"""The test-only oracles live in tests/, apart from the package, and the
test-side oracle modules read only public package names."""

import ast
import cmath
import importlib
import pkgutil
import random
from fractions import Fraction
from pathlib import Path

import oracles
import sigtorus

TESTS = Path(__file__).resolve().parent
MOVED = ("signature_jump_by_walls", "chain_matrix", "ClaspSequence", "clasp_matrix",
         "torus_clasp_sequence", "conjugate_inertia_check", "boundary_limit_form",
         "linking_matrix", "SingularMatrix", "ZeroLinking")


def _private_uses(source):
    """The private sigtorus names that Python ``source`` imports, or reads
    off a name it imported from sigtorus."""
    tree = ast.parse(source)
    found, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sigtorus":
            names = [(node.module + "." + a.name, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            names = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names
                     if a.name.split(".")[0] == "sigtorus"]
        else:
            continue
        for dotted, local in names:
            bound.add(local)
            if any(part.startswith("_") for part in dotted.split(".")):
                found.append(dotted)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(ast.unparse(node))
    return found


def test_oracle_modules_read_only_public_names():
    for name in ("oracles.py", "sampler.py"):
        assert _private_uses((TESTS / name).read_text(encoding="utf-8")) == [], name
    assert _private_uses("from sigtorus.links import _path_forms") == ["sigtorus.links._path_forms"]
    assert _private_uses("import sigtorus.links as sl\nsl._layout(2)") == ["sl._layout"]
    assert _private_uses("from sigtorus import links\nlinks._layout(2)") == ["links._layout"]
    assert _private_uses("import sigtorus.links\nsigtorus.links._layout") == ["sigtorus.links._layout"]


def test_moved_names_left_the_package():
    assert all(hasattr(oracles, name) for name in MOVED)
    modules = [sigtorus] + [importlib.import_module("sigtorus." + info.name)
                            for info in pkgutil.iter_modules(sigtorus.__path__)]
    assert len(modules) > 10
    for module in modules:
        assert [name for name in MOVED if hasattr(module, name)] == [], module.__name__
    # kept in sigtorus.hermitian for the benchmark tracer, but not exported
    assert not {"HermitianMatrix", "inertia"} & set(sigtorus.__all__)


def test_pair_sign_is_the_sign_of_its_defining_expression():
    """pair_sign(a, b) against the sign of i(z1 z2 - 1)(conj z1 - 1)(conj z2 - 1)
    in floats, on rational pairs at least 1e-6 from a = 0, b = 0 and a + b = 1
    (half of them within 1e-5 of a + b = 1), where that sign is far above the
    rounding."""
    rnd = random.Random(27)
    checked = 0
    while checked < 1000:
        q = rnd.randint(2, 10 ** 7)
        a = Fraction(rnd.randrange(q), q)
        if checked % 2:
            b = Fraction(rnd.randrange(q), q)
        else:
            b = (1 - a + Fraction(rnd.randint(-10 ** 4, 10 ** 4), 10 ** 9)) % 1
        if min(a, 1 - a, b, 1 - b, abs(a + b - 1)) < Fraction(1, 10 ** 6):
            continue
        z1, z2 = (cmath.exp(2j * cmath.pi * float(t)) for t in (a, b))
        value = 1j * (z1 * z2 - 1) * (z1.conjugate() - 1) * (z2.conjugate() - 1)
        assert oracles.pair_sign(a, b) == (1 if value.real > 0 else -1), (a, b)
        checked += 1
