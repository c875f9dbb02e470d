#!/usr/bin/env python3
"""The brimlab benchmark: three workloads, timed end to end and per module.

    python3 bench/run.py [--seed N] [--seconds S]
        every workload, each in its own process, untraced then traced
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
        one workload in this process

Workloads: lambda-tower, battery, homology-wide (see bench/README.md),
and lambda-reference, a single 40 s case measured by hand.

An untraced run repeats rounds, each running every operation once, until
the whole rounds come nearest to --seconds, and sets up anew after each
sixth of a round.  It checks every answer afterwards and prints setup_s
(median set-up), wall_s (a round at every operation's median time over
the rounds), op_ms_p50 (median of those times) and peak_rss_mb.  Times
are in reference seconds (clock.py): measured seconds scaled by the
speed of the host while they were measured.

A traced run (--trace 1) repeats traced passes (set-up plus one round,
each traced operation right after the same operation untraced) while
time is left for one more pass in a child process under another
PYTHONHASHSEED, and prints the per-layer metrics of spans.LAYER_METRICS
and the tracing overhead; every pass must give identical counts.

The last line of standard output is the result as JSON: correct,
attempted, failed and metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import clock
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = Path(__file__).resolve().parent / "out"
CHILD_TIMEOUT_S = 170
SETUPS_PER_ROUND = 6

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def load_oracles():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _stage(exc):
    """module.function of the deepest brimlab frame the exception left."""
    stage = "benchmark"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        mod = frame.f_globals.get("__name__", "")
        if mod.startswith("brimlab."):
            stage = "%s.%s" % (mod[len("brimlab."):], frame.f_code.co_name)
    return stage


def run_op(op, tracer=None):
    """(seconds, summary or None, failure text or None, start) of one operation."""
    if tracer is not None:
        tracer.set_op(op.name)
    t0 = time.perf_counter()
    try:
        res = op.run()
        err = None
    except Exception as exc:  # one failed operation must not end the run
        res = None
        err = "%s in %s: %s" % (type(exc).__name__, _stage(exc), exc)
    dt = time.perf_counter() - t0
    if res is not None and res.get("code", 0) != 0:
        lines = res["stderr"].strip().splitlines() or [""]
        err = "cli.main exit %d: %s" % (res["code"], lines[-1])
    return dt, res, err, t0


def _comparable(res):
    """The part of an answer that must repeat exactly between rounds."""
    if res is None or "stdout" not in res:
        return res
    try:
        doc = json.loads(res["stdout"])
    except ValueError:
        return res
    doc.get("telemetry", {}).pop("elapsed_ms", None)
    return doc


def judge(workload, inputs, rounds, oracles):
    """Check the answers of every round.  Returns (failed, wrong, notes):
    failed counts operations that raised, exited non-zero or answered
    wrongly; wrong counts the wrong answers alone."""
    ops = inputs.ops
    first = [next((out[i][1] for out in rounds if out[i][2] is None), None)
             for i in range(len(ops))]
    problems = []
    for op, res in zip(ops, first):
        if res is None:
            problems.append([])
        elif workload == "battery":
            keys = inputs.mods["multiplicity"].THEOREM_VERDICTS
            problems.append(checks.check_battery(oracles, op.item, res, keys))
        elif workload == "homology-wide":
            problems.append(checks.check_homology(oracles, inputs.mods["koszul"], op.item, res))
        else:
            problems.append(checks.check_lambda(oracles, op.item, res))
    if workload == "homology-wide":
        broken = checks.t_dependent_rank_one([op.item for op in ops], first)
        for i, op in enumerate(ops):
            if op.item[0].name in broken:
                problems[i].append("rank-1 lengths depend on t")
    reference = [_comparable(res) for res in first]
    failed = wrong = 0
    notes = []
    for rno, outcomes in enumerate(rounds):
        for i, (op, (_, res, err, _)) in enumerate(zip(ops, outcomes)):
            if err is not None:
                failed += 1
                notes.append("round %d %s failed: %s" % (rno, op.name, err))
            elif problems[i] or _comparable(res) != reference[i]:
                failed += 1
                wrong += 1
                why = "; ".join(problems[i]) or "answer differs from round 0"
                notes.append("round %d %s wrong: %s" % (rno, op.name, why))
    return failed, wrong, notes


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def meta(args, **extra):
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }
    doc.update(extra)
    return doc


def emit(correct, attempted, failed, metrics, units, notes, info):
    for note in notes[:20]:
        print("  " + note)
    print("meta " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, sort_keys=True))


def brimlab_modules():
    """The loaded brimlab modules, by full name."""
    return {k: v for k, v in sys.modules.items() if k == "brimlab" or k.startswith("brimlab.")}


def use_modules(saved):
    """Make saved the brimlab that imports inside the program resolve to."""
    workloads.forget_brimlab()
    sys.modules.update(saved)


def timed_setup(args):
    """(inputs, start, seconds) of one set-up.  Once brimlab is loaded,
    the modules the timed operations use are put back afterwards."""
    saved = brimlab_modules()
    t0 = time.perf_counter()
    inputs = workloads.setup(args.workload, args.seed, str(SRC), str(OUT))
    seconds = time.perf_counter() - t0
    if saved:
        use_modules(saved)
    # free the modules of earlier set-ups now, outside any timed interval,
    # so that when the collector runs does not move peak_rss_mb
    gc.collect()
    return inputs, t0, seconds


def untraced(args, oracles):
    with clock.HostClock() as host:
        inputs, t0, dt = timed_setup(args)
        setups = [(t0, dt)]
        ops = inputs.ops
        # set up again after every chunk, so that set-up samples span the run
        size = -(-len(ops) // SETUPS_PER_ROUND)
        chunks = [ops[i:i + size] for i in range(0, len(ops), size)]
        rounds = []
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            outcomes = []
            for chunk in chunks:
                outcomes += [run_op(op) for op in chunk]
                setups.append(timed_setup(args)[1:])
            rounds.append(outcomes)
            now = time.perf_counter()
            # stop where the run ends nearest to --seconds in whole rounds
            if now - start + (now - r0) / 2 > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong, notes = judge(args.workload, inputs, rounds, oracles)

    def ref(t0, dt):
        return host.ref(t0, t0 + dt)

    # each operation's median time over the rounds, in reference seconds,
    # which take out the speed spells of the host
    per_op = [statistics.median(ref(out[i][3], out[i][0]) for out in rounds)
              for i in range(len(ops))]
    raw_per_op = [statistics.median(out[i][0] for out in rounds) for i in range(len(ops))]
    metrics = {
        "setup_s": statistics.median(ref(t0, dt) for t0, dt in setups),
        "wall_s": sum(per_op),
        "op_ms_p50": 1000.0 * statistics.median(per_op),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = len(rounds) * len(ops)
    print("workload %s  seed %d  %d round(s) of %d operations" % (
        args.workload, args.seed, len(rounds), len(ops)))
    print("  times in reference seconds; host kernel at %.3f of its reference time (%d samples)" % (
        host.ratio(), len(host.samples)))
    print("  setup_s      %10.4f s   median of %d set-ups" % (metrics["setup_s"], len(setups)))
    print("  wall_s       %10.4f s   a round at every operation's median time (raw %.4f s)" % (
        metrics["wall_s"], sum(raw_per_op)))
    print("  op_ms_p50    %10.2f ms  median of %d per-operation median times (%d samples)" % (
        metrics["op_ms_p50"], len(per_op), attempted))
    print("  peak_rss_mb  %10.2f MB" % metrics["peak_rss_mb"])
    print("  attempted %d  failed %d  wrong %d" % (attempted, failed, wrong))
    for op, t, raw in zip(ops, per_op, raw_per_op):
        print("    %-24s %10.2f ms  (raw %.2f ms)" % (op.name, 1000.0 * t, 1000.0 * raw))
    info = meta(args, rounds=len(rounds), ops_per_round=len(ops),
                op_ms_samples=attempted, setups=len(setups),
                host_kernel_ratio=host.ratio(), kernel_samples=len(host.samples),
                raw_wall_s=sum(raw_per_op),
                raw_setup_s=statistics.median(dt for _, dt in setups))
    emit(wrong == 0, attempted, failed, metrics, END_TO_END_UNITS, notes, info)
    return 0


def round_ref(host, outcomes):
    """Reference seconds of one round of operations."""
    return sum(host.ref(out[3], out[3] + out[0]) for out in outcomes)


def traced_pass(args):
    """One set-up and one round, traced."""
    tracer = spans.Tracer()
    inputs = workloads.setup(args.workload, args.seed, str(SRC), str(OUT), tracer)
    return tracer, [run_op(op, tracer) for op in inputs.ops]


def paired_pass(args, plain_ops, host):
    """A traced set-up, then a round in which each traced operation runs
    right after the same operation untraced, so that both see the host
    in the same state.  A kernel sample follows each operation, outside
    its time and outside any span.  Returns (tracer, traced outcomes,
    untraced outcomes)."""
    plain_modules = brimlab_modules()
    tracer = spans.Tracer()
    inputs = workloads.setup(args.workload, args.seed, str(SRC), str(OUT), tracer)
    traced_modules = brimlab_modules()
    traced_out, plain_out = [], []
    # each operation runs with its own brimlab in sys.modules, since the
    # program imports some modules when called
    for plain, op in zip(plain_ops, inputs.ops):
        use_modules(plain_modules)
        plain_out.append(run_op(plain))
        host.sample()
        use_modules(traced_modules)
        traced_out.append(run_op(op, tracer))
        host.sample()
    use_modules(plain_modules)
    return tracer, traced_out, plain_out


def counts_of(metrics):
    return {k: metrics[k] for k in spans.COUNT_METRICS}


def hash_seed_child(args):
    """PYTHONHASHSEED of a child that runs one traced pass, and its counts
    (None when the child failed)."""
    mine = os.environ.get("PYTHONHASHSEED", "random")
    other = "1" if mine != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=other)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "1", "--counts-only"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write("hash-seed child failed: %s\n" % proc.stderr.strip()[-300:])
        return other, None
    return other, json.loads(proc.stdout.strip().splitlines()[-1])["counts"]


def traced(args, oracles):
    inputs = workloads.setup(args.workload, args.seed, str(SRC), str(OUT))
    # the tracing overhead compares traced and untraced operations in
    # reference seconds, from kernel samples taken between operations
    host = clock.HostClock()
    host.sample()
    start = time.perf_counter()
    passes = []
    plain_rounds = []
    while True:
        p0 = time.perf_counter()
        tracer, traced_out, plain_out = paired_pass(args, inputs.ops, host)
        passes.append((tracer, traced_out))
        plain_rounds.append(plain_out)
        now = time.perf_counter()
        # the child's pass takes about half as long as this one: leave room
        if now - start + 1.5 * (now - p0) > args.seconds:
            break
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed))
    passes[0][0].write_jsonl(trace_path)
    per_pass = [tracer.layer_metrics() for tracer, _ in passes]
    rounds = plain_rounds + [outcomes for _, outcomes in passes]
    failed, wrong, notes = judge(args.workload, inputs, rounds, oracles)
    repeatable = all(counts_of(m) == counts_of(per_pass[0]) for m in per_pass)
    if not repeatable:
        notes.append("counts differ between traced passes")
    hash_seed, child = hash_seed_child(args)
    if child != counts_of(per_pass[0]):
        repeatable = False
        diff = {k: (per_pass[0][k], (child or {}).get(k)) for k in per_pass[0]
                if k in spans.COUNT_METRICS and (child or {}).get(k) != per_pass[0][k]}
        notes.append("counts differ under PYTHONHASHSEED=%s: %s" % (hash_seed, diff))
    metrics = spans.median_metrics(per_pass)
    metrics.update(counts_of(per_pass[0]))
    untraced_wall = statistics.median(round_ref(host, outcomes) for outcomes in plain_rounds)
    traced_wall = statistics.median(round_ref(host, outcomes) for _, outcomes in passes)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    attempted = len(rounds) * len(inputs.ops)
    print("workload %s  seed %d  traced, %d pass(es) of %d operations" % (
        args.workload, args.seed, len(passes), len(inputs.ops)))
    for name, value in metrics.items():
        print("  %-48s %14.6g %s" % (name, value, spans.LAYER_METRICS[name][0]))
    print("  attempted %d  failed %d  wrong %d  counts repeat: %s" % (
        attempted, failed, wrong, "yes" if repeatable else "NO"))
    info = meta(args, passes=len(passes), ops_per_round=len(inputs.ops),
                untraced_wall_s=untraced_wall, traced_wall_s=traced_wall,
                trace_overhead_s=metrics["trace.overhead_s"],
                hash_seed_checked=hash_seed, trace_file=str(trace_path.relative_to(ROOT)))
    units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
    emit(wrong == 0 and repeatable, attempted, failed, metrics, units, notes, info)
    return 0


def counts_only(args):
    tracer, _ = traced_pass(args)
    print(json.dumps({"counts": counts_of(tracer.layer_metrics())}, sort_keys=True))
    return 0


def all_workloads(args):
    """Each workload in its own fresh process; untraced, then traced."""
    modes = (args.trace,) if args.trace is not None else (0, 1)
    status = 0
    summary = []
    for name in workloads.WORKLOADS:
        for mode in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(mode)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary.append((name, mode, result))
            if not result["correct"]:
                status = 1
    print()
    print("%-14s %-6s %-9s %-7s %s" % ("workload", "trace", "attempted", "failed", "correct"))
    for name, mode, result in summary:
        print("%-14s %-6d %-9d %-7d %s" % (name, mode, result["attempted"], result["failed"],
                                           result["correct"]))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.CASES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "brimlab" / "__init__.py").is_file() or not ORACLES.is_file():
        sys.stderr.write("bench: brimlab sources or tests/oracles.py not found under %s\n" % ROOT)
        return 2
    if args.workload is None:
        return all_workloads(args)
    if args.trace is None:
        args.trace = 0
    try:
        if args.counts_only:
            return counts_only(args)
        oracles = load_oracles()
        return traced(args, oracles) if args.trace else untraced(args, oracles)
    except workloads.SetupError as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
