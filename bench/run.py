"""Benchmark of the sigtorus command line, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload grid|verify|query --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

One process runs one workload with one client and no threads.  Each
operation calls ``sigtorus.cli.main(argv)`` in-process with stdout captured,
and every output is checked against an oracle.  Operations form a pass; the
benchmark repeats identical passes for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics (set-up, pass wall time,
per-operation latency, peak memory).  ``--trace 1`` alternates untraced and
traced passes and reports per-layer metrics of a pass (calls, self time and
counters, see tracer.py) plus the tracing overhead: traced minus untraced
pass time, each taken as the sum of every request's fastest time.
The last line of stdout is one JSON object; the line before it records the
environment.  See README.md for the workloads and how the bounds were set.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9


def cold_import():
    """Import sigtorus afresh from the checkout's src/ (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "sigtorus" or n.startswith("sigtorus.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("sigtorus")
    importlib.import_module("sigtorus.cli")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise RuntimeError("imported sigtorus from %s, not from %s" % (package.__file__, SRC))
    return package


def call(sigtorus, argv):
    """Run one CLI request; returns (exit code or None, stdout, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sigtorus.cli.main(argv)
        error = None
    except (Exception, SystemExit) as exc:  # argparse exits; any raise is a failed op
        code, error = None, "%s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), error, time.perf_counter() - start


def run_pass(sigtorus, ops, tracer=None):
    """Run every op once; returns (wall seconds, latencies, failure reasons)."""
    results = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.request += 1
        results.append(call(sigtorus, op.argv))
    wall = time.perf_counter() - start
    failures = []
    for op, (code, out, error, _) in zip(ops, results):
        reason = error or op.check(code, out)
        if reason:
            failures.append("%s %s: %s" % (op.kind, " ".join(op.argv[1:3]), reason))
    return wall, [r[3] for r in results], failures


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    package_dir = os.path.join(SRC, "sigtorus")
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": _git_sha(),
            "source_sha256": digest.hexdigest()}


def _git_sha():
    """HEAD of the checkout, read from .git without running git ("none" outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def set_up(workload):
    """Cold import, link files and one warm-up request; (package, seconds)."""
    start = time.perf_counter()
    sigtorus = cold_import()
    workload.write_inputs(sigtorus)
    code, _, error, _ = call(sigtorus, workload.warmup_op())
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError("warm-up request failed: exit %r %s" % (code, error or ""))
    return sigtorus, seconds


def measure(workload, sigtorus, ops, seconds, setups):
    """Repeat passes for ``seconds`` (at least one); per-pass walls, latencies.

    Between passes, set-up is repeated until there are SETUP_REPEATS times in
    ``setups``, at evenly spaced moments, so that their median sees the same
    host load as the passes.
    """
    walls, latencies, failures = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if (len(setups) < SETUP_REPEATS
                and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            sigtorus, took = set_up(workload)
            setups.append(took)
        wall, lat, fail = run_pass(sigtorus, ops)
        walls.append(wall)
        latencies.append(lat)
        failures.extend(fail)
    return walls, latencies, failures


def fastest(latencies):
    """Each request's fastest time over the passes.

    Other tenants of a shared host slow whole stretches of a run: the median
    pass moved by about 30% from run to run, while the sum of these fastest
    times moved by about 10% (see README.md).
    """
    return [min(times) for times in zip(*latencies)]


def end_to_end(workload, sigtorus, ops, seconds, setup_s):
    setups = [setup_s]
    walls, latencies, failures = measure(workload, sigtorus, ops, seconds, setups)
    best = fastest(latencies)
    cuts = statistics.quantiles(best, n=100, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (1e3 * cuts[49], "ms"),
        "op_p95_ms": (1e3 * cuts[94], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    attempted = len(ops) * len(walls)
    notes = {"passes": len(walls), "ops_per_pass": len(ops), "setups": len(setups),
             "pass_wall_median_s": statistics.median(walls),
             "failed_frac": len(failures) / attempted}
    return metrics, attempted, failures, notes


def per_layer(sigtorus, ops, seconds, workload_name):
    """Alternate untraced and traced passes; per-layer values of a traced pass."""
    tracer = tracing.Tracer()
    latencies = {False: [], True: []}
    layers, failures = [], []
    deadline = time.perf_counter() + seconds
    while not layers or time.perf_counter() < deadline:
        for traced in (False, True):
            if traced:
                tracer.install()
                tracer.begin_pass()
            _, lat, fail = run_pass(sigtorus, ops, tracer if traced else None)
            if traced:
                tracer.uninstall()
                tracer.recording = False  # spans of the first traced pass only
                layers.append(tracer.pass_metrics())
            latencies[traced].append(lat)
            failures.extend(fail)
    metrics = {}
    for name in tracing.metric_names():
        stat = name.rsplit(".", 1)[1]
        # counters come from the first traced pass, times are medians of passes
        value = (statistics.median(p[name] for p in layers) if stat == "self_s"
                 else layers[0][name])
        metrics[name] = (value, tracing.UNITS[stat])
    metrics["trace.overhead_s"] = (sum(fastest(latencies[True]))
                                   - sum(fastest(latencies[False])), "s")
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, "spans-%s.jsonl" % workload_name))
    attempted = len(ops) * 2 * len(layers)
    notes = {"passes_each": len(layers), "spans": len(tracer.spans),
             "failed_frac": len(failures) / attempted}
    return metrics, attempted, failures, notes


def run(args):
    if not os.path.isfile(os.path.join(SRC, "sigtorus", "__init__.py")):
        print("error: no sigtorus sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        workload = workloads.Workload(args.workload, args.seed, workdir,
                                      workloads.load_digests())
        sigtorus, setup_s = set_up(workload)
        ops = workload.build_ops(sigtorus)
        if args.trace:
            metrics, attempted, failures, notes = per_layer(sigtorus, ops, args.seconds,
                                                            args.workload)
        else:
            metrics, attempted, failures, notes = end_to_end(workload, sigtorus, ops,
                                                             args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in sorted(set(failures))[:20]:
        print("FAILED %s" % reason)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "notes": notes, "result": result}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "%s-trace%d.json" % (args.workload, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for name, (value, unit) in sorted(metrics.items()):
        print("%-45s %14.6f %s" % (name, value, unit))
    print("failed_frac %.6f (%d of %d)" % (notes["failed_frac"], len(failures), attempted))
    print(json.dumps({"env": record["env"], "notes": notes}))
    print(json.dumps(result))
    return 0


# -- self-test ---------------------------------------------------------------------

def _corrupt(op, result):
    """Damage one op's output: a file it wrote, or else its captured stdout."""
    code, out, error, seconds = result
    for flag in ("--out", "--report"):
        if flag in op.argv:
            with open(op.argv[op.argv.index(flag) + 1], "a", encoding="utf-8") as fh:
                fh.write("0\n")
            return result
    return code, out + "x", error, seconds


def selftest():
    """Show that the gate catches one corrupted output and traced counters repeat."""
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, "work", "selftest-%d" % os.getpid())
    ok = True
    try:
        sigtorus = cold_import()
        digests = workloads.load_digests()
        for name in workloads.WORKLOADS:
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            wl = workloads.Workload(name, 0, workdir, digests)
            wl.write_inputs(sigtorus)
            for filename in sorted(os.listdir(workdir)):
                sigtorus.links.load_link(os.path.join(workdir, filename))
            ops = wl.build_ops(sigtorus)
            results = [call(sigtorus, op.argv) for op in ops]
            clean = [op for op, r in zip(ops, results) if r[2] or op.check(r[0], r[1])]
            results[0] = _corrupt(ops[0], results[0])
            dirty = [op for op, r in zip(ops, results) if r[2] or op.check(r[0], r[1])]
            passed = not clean and dirty == [ops[0]]
            ok &= passed
            print("%-6s gate: clean pass %d/%d failed, one corrupted output -> "
                  "failed_frac %.4f: %s" % (name, len(clean), len(ops),
                                            len(dirty) / len(ops),
                                            "ok" if passed else "WRONG"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name in workloads.WORKLOADS:
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                                   "--workload", name, "--seed", "0", "--seconds", "1",
                                   "--trace", "1"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=170, check=False)
            lines = proc.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1])["metrics"] if proc.returncode == 0 and lines
                        else {})
        exact = sorted(k for k in runs[0] if k.rsplit(".", 1)[1] in tracing.EXACT)
        same = bool(exact) and all(runs[0][k] == runs[1].get(k) for k in exact)
        ok &= same
        print("%-6s trace: %d exact counters %s across two traced runs"
              % (name, len(exact), "identical" if same else "DIFFER"))
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
