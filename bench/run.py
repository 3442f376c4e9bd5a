"""Resultant benchmark: one workload, one single-threaded process.

Usage (from the repository root):

    python3 bench/run.py --workload numeric-minimal --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload (see workloads.py) in a closed loop,
one caller and no threads, until the calls have taken --seconds of wall
time and at least MIN_CALLS calls are done.  Every output is checked
against the split-system closed form (numeric workloads) or the
symbolic properties in oracle.check_symbolic; a wrong value fails the
run.

Times are reported at a reference speed: a fixed pure-Python kernel is
timed right before and right after every call, and the call's wall time
is scaled by REFERENCE_S over their mean (see README.md for why).

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 the same workload runs with the
outside-in trace installed, the metrics are the per-layer ones, and the
spans are written to bench/out/.  The line before it is a JSON object
of run details.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# p90 needs at least ten samples above it
MIN_CALLS = 100
SETUP_PROBES = 9

# Kernel time that scaled times are referred to: reference_time() took
# 0.9 ms when the 2-core machine behind the figures in README.md ran
# fast, and 1.1 ms at the median of those runs.
REFERENCE_S = 0.0009

# layers each workload is meant to exercise; a traced run that records
# nothing for one of them fails
MUST_RECORD = {
    "numeric-minimal": ("bezoutian.calls", "linalg.det.calls"),
    "numeric-classical": ("assembly.build.calls", "linalg.det.calls"),
    "sparse-fallback": ("assembly.fallback.systems", "bezoutian.calls",
                        "assembly.sign.self_s"),
    "symbolic-sweep": ("linalg.det.calls", "linalg.det_m.terms",
                       "corering.param_exact_div.calls"),
}


def _reference_kernel():
    d = {}
    x = 1
    for i in range(2000):
        x = (x * 1000003 + i) * 7919 % (1 << 89)
        d[(i, x & 255)] = x
    return len(d)


def reference_time():
    """Best of three timings of a fixed kernel of big-integer arithmetic
    and tuple-keyed dict stores, the operations macres spends its time
    on: a gauge of how fast the machine runs Python right now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def import_macres():
    """Import macres from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    try:
        import macres
    except ImportError as exc:
        sys.exit("bench: cannot import macres from %s: %s" % (SRC, exc))
    if os.path.dirname(os.path.dirname(os.path.abspath(macres.__file__))) != SRC:
        sys.exit("bench: macres was imported from %s, not %s"
                 % (macres.__file__, SRC))


def build_inputs(cases):
    """PolySystem values for the cases (generic systems shared per cell)."""
    from macres.bezoutian import generic_system, system_from_terms
    from oracle import expand

    generic = {}
    out = []
    for case in cases:
        if case.domain == "generic":
            if case.degrees not in generic:
                generic[case.degrees] = generic_system(case.degrees)
            out.append(generic[case.degrees])
        else:
            n = len(case.degrees)
            out.append(system_from_terms(
                case.degrees, [expand(fs, n) for fs in case.forms],
                domain=case.domain))
    return out


def setup_probe(workload, seed):
    """Body of one set-up probe process: import macres and build the
    first round's inputs, then report when it was ready and how long it
    spent on the oracle (the closed forms), which set-up excludes."""
    from workloads import Draws, round_cases

    import_macres()
    import macres.macaulay  # noqa: F401  (the drivers the run calls)
    t0 = time.monotonic()
    cases = round_cases(workload, seed, 0, Draws())
    oracle_s = time.monotonic() - t0
    build_inputs(cases)
    print(json.dumps({"ready": time.monotonic(), "oracle_s": oracle_s}))


def measure_setup(workload, seed):
    """Median over SETUP_PROBES fresh processes of the time from process
    start to the first call being ready, oracle work excluded, at the
    reference speed.  Both sides read time.monotonic, one system-wide
    clock on Linux."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    before = reference_time()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        after = reference_time()
        scale = REFERENCE_S / ((before + after) / 2)
        samples.append((probe["ready"] - start - probe["oracle_s"]) * scale)
        before = after
    return statistics.median(samples)


class Run:
    """Outcome of the timed loop: per-call wall and scaled times,
    failures, and the details printed before the result."""

    def __init__(self):
        self.wall = []
        self.scaled = []
        self.factors = []        # wall-to-reference scale, every attempted call
        self.failed = 0
        self.details = {}


def run_workload(workload, seed, seconds, tracer):
    """The timed loop."""
    from macres.macaulay import resultant_generic, resultant_specialized
    from oracle import CheckFailed, check_symbolic
    from workloads import Draws, round_cases

    call = tracer.run if tracer is not None else (lambda f, *a: f(*a))
    clock = time.perf_counter
    draws = Draws()
    run = Run()
    by_cell = {}
    rounds = 0
    elapsed = 0.0
    while elapsed < seconds or len(run.factors) < MIN_CALLS:
        cases = round_cases(workload, seed, rounds, draws)
        systems = build_inputs(cases)
        reference = {}
        before = reference_time()
        for case, system in zip(cases, systems):
            symbolic = case.domain == "generic"
            fn = resultant_generic if symbolic else resultant_specialized
            t0 = clock()
            try:
                out = call(fn, system, case.t)
            except (ArithmeticError, ValueError, TypeError) as exc:
                out = exc
            dt = clock() - t0
            elapsed += dt
            after = reference_time()
            factor = REFERENCE_S / ((before + after) / 2)
            run.factors.append(factor)
            before = after
            if isinstance(out, Exception):
                run.failed += 1
                print("bench: %s %s t=%s failed: %r"
                      % (workload, case.degrees, case.t, out), file=sys.stderr)
                continue
            run.wall.append(dt)
            run.scaled.append(dt * factor)
            by_cell.setdefault("%s%s t=%s" % (case.label, case.degrees, case.t),
                               []).append(dt * factor)
            if symbolic:
                try:
                    check_symbolic(out.value, case.degrees, system.domain,
                                   reference.get(case.degrees), case.forms,
                                   case.expected)
                except CheckFailed as exc:
                    raise CheckFailed("%s %s t=%s: %s" % (
                        workload, case.degrees, case.t, exc)) from None
                reference.setdefault(case.degrees, out.value)
            elif out.value != case.expected:
                raise CheckFailed("%s %s t=%s: program gave %s, closed form %s"
                                  % (workload, case.degrees, case.t,
                                     out.value, case.expected))
        rounds += 1
    run.details = {
        "rounds": rounds, "calls": len(run.wall) + run.failed,
        "wall_s": round(elapsed, 4),
        "wall_per_s": round(len(run.wall) / elapsed, 4),
        "wall_over_scaled": round(sum(run.wall) / max(sum(run.scaled), 1e-9), 4),
        "draws": draws.made, "rejected_zero": draws.rejected,
        "cell_p50_ms": {k: round(1e3 * statistics.median(v), 2)
                        for k, v in by_cell.items()}}
    return run


def end_to_end(run, setup_s):
    lat = run.scaled
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "resultants_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * statistics.quantiles(lat, n=10)[8],
                           "unit": "ms"},
        "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    from workloads import WORKLOADS, input_digest

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(WORKLOADS)))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_macres()
    from oracle import CheckFailed, self_test

    self_test()
    details = {"workload": args.workload, "seed": args.seed,
               "input_digest": input_digest(args.workload, args.seed)}
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        setup_s = measure_setup(args.workload, args.seed)

    correct = True
    run = Run()
    try:
        run = run_workload(args.workload, args.seed, args.seconds, tracer)
    except CheckFailed as exc:
        print("bench: WRONG OUTPUT: %s" % exc, file=sys.stderr)
        correct = False
    finally:
        if tracer is not None:
            tracer.uninstall()
    details.update(run.details)

    metrics = {}
    if correct and tracer is not None:
        metrics = tracer.metrics(run.factors, sum(run.scaled))
        details["fallback_share"] = metrics["assembly.fallback.systems"]["value"]
        details["layer_shares"] = tracer.layer_shares(run.factors)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", "trace-%s-%d.jsonl.gz"
                                  % (args.workload, args.seed)))
        silent = [k for k in MUST_RECORD[args.workload]
                  if not metrics[k]["value"]]
        if silent:
            print("bench: traced run recorded nothing for %s"
                  % ", ".join(silent), file=sys.stderr)
            correct = False
    elif correct and len(run.scaled) >= 2:
        metrics = end_to_end(run, setup_s)
    print(json.dumps(details))
    print(json.dumps({"correct": correct,
                      "attempted": max(len(run.wall) + run.failed, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
