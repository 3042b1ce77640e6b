"""One workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --rounds K)
                                [--trace] [--setup-only]

Set-up is timed from the top of this file: the `import symcrys`, making the
inputs from the seed and constructing the algebra or module.  Rounds then
run until --seconds have passed since the first began (and at least the
workload's minimum number of rounds), or exactly --rounds of them.  The outputs of the
first round are checked in full; every later round must render identically.
Peak RSS is read after the first round, before any check allocates.

Times are reported at reference speed (see reference.py): a reference unit
runs after every REFERENCE_EVERY_S of operation time, and each round's
time is divided by that round's speed, the mean unit time over UNIT_S.
An operation's latency is divided by the speed of the units just before
and just after it, because the host's speed changes within a round.
Set-up is divided by the speed of SETUP_UNITS units run right after it.
The measured times are reported beside them.
The last line of standard output is one JSON object.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MAX_RUN_S = 100.0  # no new round after this, so a slow program still ends in time
REFERENCE_EVERY_S = 0.025
SETUP_UNITS = 10


def speed(unit_times):
    """How many times slower than UNIT_S the reference units ran."""
    if not unit_times:
        return 1.0
    return sum(unit_times) / len(unit_times) / reference.UNIT_S


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    import symcrys

    if not os.path.abspath(symcrys.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"symcrys was imported from {symcrys.__file__}, not from {SRC}")
    tracer = None
    if args.trace:  # before workloads binds symcrys names of its own
        import tracer as tracing

        tracer = tracing.Tracer().install()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    wl.new_system()
    setup_measured_s = perf_counter() - _T0
    setup_s = setup_measured_s / speed([reference.timed_unit() for _ in range(SETUP_UNITS)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_measured_s": setup_measured_s}))
        return 0

    runner = workloads.Runner(tracer, reference_every=REFERENCE_EVERY_S)
    round_s, measured_s, speeds, latencies, errors, report = [], [], [], [], [], []
    first_render = None
    output_bytes = 0
    peak_rss_mb = None
    started = perf_counter()
    while True:
        gc.collect()
        first_lat, first_unit = len(runner.latencies), len(runner.reference_s)
        t0 = perf_counter()
        out = wl.run_round(inputs, runner)
        units = runner.reference_s[first_unit:]
        measured_s.append(perf_counter() - t0 - sum(units))
        speeds.append(speed(units))
        round_s.append(measured_s[-1] / speeds[-1])
        for x, k in zip(runner.latencies[first_lat:], runner.next_unit[first_lat:]):
            near = runner.reference_s[max(first_unit, k - 1):k + 1]
            latencies.append(x / (speed(near) if near else speeds[-1]))
        if peak_rss_mb is None:  # before any check has allocated
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if hasattr(wl, "output_bytes"):
            output_bytes += wl.output_bytes(out)
        if first_render is None:
            errors += wl.check(inputs, out, report)
            first_render = workloads.render(out)
        elif workloads.render(out) != first_render:
            errors.append(f"round {len(round_s)} output differs from round 1")
        del out
        done = len(round_s)
        if args.rounds:
            if done >= args.rounds:
                break
        elif done >= wl.min_rounds and perf_counter() - started >= args.seconds:
            break
        if perf_counter() - started > MAX_RUN_S:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_measured_s": setup_measured_s,
        "round_s": round_s,
        "round_measured_s": measured_s,
        "speed": speeds,
        "latencies": latencies,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.errors,
        "errors": errors,
        "report": report,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        rounds = len(round_s)
        result["layers"] = tracer.layer_metrics(rounds, output_bytes)
        if tracer.self_time_total() > sum(measured_s) * (1 + 1e-9):
            errors.append("traced self times exceed the traced wall time")
        if args.trace_out:
            tracer.write_spans(args.trace_out)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
