"""Record digests.json: SHA-256 of the outputs that have no closed-form oracle.

These are the CSV and PGM of the random-system grid and the verify reports,
for every variant (see workloads.VARIANTS).  The recorded outputs are the
reference that later versions must reproduce byte for byte, so run this only
on the commit that defines that reference:

    python3 bench/record_digests.py

Each random grid is cross-checked against the independent LAPACK oracle at
every grid point where that oracle is unambiguous before it is recorded.
"""

import json
import os
import shutil
import sys
from fractions import Fraction

import run
import workloads


class _Placeholder(dict):
    """Stands in for digests.json while the ops are built."""

    def __getitem__(self, key):
        return self.get(key) or _Placeholder()


def main():
    sys.path.insert(0, run.SRC)
    sigtorus = run.cold_import()
    workdir = os.path.join(run.HERE, "work", "record-%d" % os.getpid())
    recorded = {"grid": {}, "verify": {}}
    try:
        for variant in range(workloads.VARIANTS):
            for name in ("grid", "verify"):
                shutil.rmtree(workdir, ignore_errors=True)
                os.makedirs(workdir)
                wl = workloads.Workload(name, variant, workdir, _Placeholder())
                wl.write_inputs(sigtorus)
                entry = recorded[name][str(variant)] = {}
                for op in wl.build_ops(sigtorus):
                    if name == "grid" and "random.json" not in op.argv[2]:
                        continue
                    code, out, error, _ = run.call(sigtorus, op.argv)
                    if code != 0:
                        raise RuntimeError("%r failed: exit %r %s" % (op.argv, code, error))
                    if name == "grid":
                        csv = op.argv[op.argv.index("--out") + 1]
                        _cross_check(wl, op.argv, csv)
                        entry["csv"] = workloads.sha256_file(csv)
                        entry["pgm"] = workloads.sha256_file(
                            op.argv[op.argv.index("--heatmap") + 1])
                    else:
                        if not out.rstrip().endswith(" failures=0"):
                            raise RuntimeError("%r reported failures" % (op.argv,))
                        report = op.argv[op.argv.index("--report") + 1]
                        stem = os.path.basename(report)[:-len("-report.json")]
                        entry[stem] = workloads.sha256_file(report)
            print("variant %d recorded" % variant, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _cross_check(wl, argv, csv):
    doc = wl.docs["random.json"]
    rest = [Fraction(a) for a in argv[argv.index("--rest") + 1].split(",")]
    with open(csv, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    checked = 0
    for row in rows:
        t1, t2, sigma, eta = row.split(",")
        want = workloads.random_eval(doc, [Fraction(t1), Fraction(t2)] + rest)
        if want is None:
            continue
        if want != (int(sigma), int(eta)):
            raise RuntimeError("grid row %s disagrees with the LAPACK oracle %r" % (row, want))
        checked += 1
    if checked < len(rows) // 2:
        raise RuntimeError("too few unambiguous grid points (%d of %d)" % (checked, len(rows)))


if __name__ == "__main__":
    main()
