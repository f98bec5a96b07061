"""modtwist benchmark: one workload per run, every result checked against goldens.

    python3 perfbench/run.py --workload group-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the program is imported from ./src.  A run
first starts SETUP_SAMPLES fresh interpreters that import modtwist, load
the workload's stored inputs and draw its tasks from the seed (``setup_s``
is the median), then repeats passes over that task list until --seconds is
used up, and at least MIN_PASSES times.  Every pass clears the program's
functools caches first, since every user process starts cold.

Timings are per task and scaled to a reference machine speed (see
speed.py): other tenants change this kind of machine's speed by up to 1.7x
for seconds at a time.  A task's latency is the median of its scaled
latencies over the passes, or the least for tasks run in child processes
(see REDUCE), and ``wall_s``, the time to verify the whole workload
once, is the sum of those.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics from the spans of the
traced ones, and ``trace.overhead_ratio``, traced over untraced wall time.
Metric names and units come from BENCHMARK.json; a per-layer metric the
workload does not exercise reads 0.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A task fails when its result differs from
its golden or it raises.  ``correct`` is false when any failure is other
than a defect the goldens record for the seed program (malformed model
files that crash the CLI instead of exiting with code 2).  The full result
with an environment record, and the spans, go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
PROBE_SAMPLES = 5
MIN_PASSES = 2
# How a task's latencies over the passes are reduced to one, by where tasks
# run.  In this interpreter the probes' lock stalls leave noise on both
# sides of a task's time, so the median; in a child process noise only
# adds time, so the least.
REDUCE = {True: statistics.median, False: min}
# A further pass starts only if the last one, repeated, would end within
# this share of --seconds; passes last seconds, so this bounds the overrun.
OVERRUN_SHARE = 1.1
PROBE_PRIMES = (3, 5, 7, 11, 13)

# Fresh-interpreter probes.  The clock is CLOCK_MONOTONIC, which is shared
# by all processes, so a child's reading minus the parent's reading before
# the spawn is the time from spawn to that point in the child.
IMPORT_PROBE = """
import json, time
t0 = time.perf_counter()
import modtwist.cli
t1 = time.perf_counter()
from modtwist.projgroup import pgl2
cold = {}
for p in %r:
    a = time.perf_counter()
    pgl2(p)
    cold[p] = (time.perf_counter() - a) * 1000
print(json.dumps({"import_ms": (t1 - t0) * 1000, "pgl2_ms": cold}))
""" % (PROBE_PRIMES,)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_workloads():
    if not (SRC / "modtwist" / "__init__.py").is_file():
        fail(f"no modtwist source tree under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import modtwist
    import workloads

    if Path(modtwist.__file__).resolve().parent != (SRC / "modtwist").resolve():
        fail(f"modtwist was imported from {modtwist.__file__}, not from {SRC}")
    return workloads


# ---------------------------------------------------------------------------
# Probes in fresh interpreters
# ---------------------------------------------------------------------------


def child(argv: list[str]) -> str:
    from workloads import child_env

    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"probe {argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc.stdout


def setup_samples(workload: str, seed: int) -> tuple[list[float], list[tuple[float, float]]]:
    """Seconds from spawning a fresh interpreter to the end of its setup,
    with each child's window for scaling."""
    raw, windows = [], []
    for _ in range(SETUP_SAMPLES):
        start, t0 = time.perf_counter(), monotonic()
        text = child([sys.executable, str(BENCH / "run.py"), "--setup-probe",
                      "--workload", workload, "--seed", str(seed)])
        raw.append(float(text.strip().splitlines()[-1]) - t0)
        windows.append((start, time.perf_counter()))
    return raw, windows


def startup_probes() -> tuple[dict, list[tuple[float, float]]]:
    """Bare interpreter start, modtwist.cli import and cold pgl2(p), each in
    fresh processes, in ms, with each sample's window for scaling."""
    samples, windows = defaultdict(list), []
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        child([sys.executable, "-c", "pass"])
        samples["cli.interpreter_ms"].append((time.perf_counter() - start) * 1000)
        doc = json.loads(child([sys.executable, "-c", IMPORT_PROBE]))
        windows.append((start, time.perf_counter()))
        samples["cli.import_ms"].append(doc["import_ms"])
        for p, ms in doc["pgl2_ms"].items():
            samples[f"projgroup.pgl2.p{p}.ms"].append(ms)
    return samples, windows


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "modtwist" or name.startswith("modtwist."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_pass(tasks, tracer, workloads, failures, known) -> list[tuple[float, float]]:
    """Run every task once and return their (start, end) times.  A failed
    task is appended to ``known`` (a defect recorded for the seed program)
    or ``failures`` (anything else) as (kind, detail)."""
    clear_caches()
    gc.collect()
    intervals = []
    with tracer.span("pass"):
        for i, task in enumerate(tasks):
            t0 = time.perf_counter()
            try:
                with tracer.span("task:" + task.kind, task=i):
                    task.run()
            except workloads.KnownDefect as exc:
                known.append((task.kind, str(exc)))
            except workloads.Mismatch as exc:
                failures.append((task.kind, str(exc)))
            except Exception as exc:  # a crash is a failed task, not a stopped run
                failures.append((task.kind, f"exception {exc!r}"))
            intervals.append((t0, time.perf_counter()))
    return intervals


def per_task(passes: list[list[float]], reduce) -> list[float]:
    """Each task's latency over the passes, reduced to one."""
    return [reduce(column) for column in zip(*passes)]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quantile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(traced: list[list], factors: list[list[float]], stall, traced_tasks: list[float],
                  untraced_tasks: list[float]) -> dict:
    """Per-layer figures from the spans of the traced passes, less the time
    ``stall(start, end)`` of probes and scaled by their task's speed factor.
    A layer span is keyed by its task and its place in the task, so that
    every pass repeats the same spans; each key counts with its median self
    time."""
    from spans import ATTRS, END, NAME, START, TASK, self_times

    first, durations, walls, inproc = {}, defaultdict(list), defaultdict(list), defaultdict(list)
    for spans, factor in zip(traced, factors):
        place = defaultdict(int)
        for span, own in zip(spans, self_times(spans)):
            if span[NAME] == "pass" or span[NAME].startswith("task:"):
                continue
            f = factor[span[TASK]]
            key = (span[TASK], place[span[TASK]])
            place[span[TASK]] += 1
            first.setdefault(key, span)
            stalled = stall(span[START], span[END]) if stall else 0.0
            durations[key].append((own - stalled) * f)
            walls[key].append((span[END] - span[START] - stalled) * f)
            if span[ATTRS].get("inproc_s") is not None:
                inproc[key].append(span[ATTRS]["inproc_s"] * f)
    sums, per_p, layers = defaultdict(float), defaultdict(float), defaultdict(float)
    calls, counters = defaultdict(int), defaultdict(float)
    cli_wall, cli_inproc = defaultdict(list), defaultdict(list)
    startup_wall = startup_inproc = 0.0
    for key, span in first.items():
        name, attrs, own = span[NAME], span[ATTRS], statistics.median(durations[key])
        layer = name.split(".")[0]
        sums[name] += own
        calls[name] += 1
        layers[layer] += own
        if "p" in attrs:
            per_p[f"{name}.p{attrs['p']}.ms"] += own * 1000
        for counter in ("states", "pairs", "points", "found"):
            if counter in attrs:
                counters[f"{name}.{counter}"] += attrs[counter]
        if layer == "cli":
            wall = statistics.median(walls[key])
            cli_wall[name].append(wall)
            if inproc[key]:
                cli_inproc[name].append(statistics.median(inproc[key]))
                startup_wall += wall
                startup_inproc += statistics.median(inproc[key])

    def rate(count, *span_names):
        seconds = sum(sums[k] for k in span_names)
        return count / seconds if seconds else 0.0

    out = dict(per_p)
    for name in calls:
        out[f"{name}.ms"] = sums[name] * 1000
        out[f"{name}.calls"] = calls[name]
    for layer, seconds in layers.items():
        out[f"{layer}.share"] = seconds / sum(traced_tasks)
    moduli = ("moduli.verify_galois_conjugation", "moduli.verify_w_rationality")
    states = sum(counters[f"{k}.states"] for k in moduli)
    out["moduli.states"] = states
    out["moduli.states_per_s"] = rate(states, *moduli)
    out["galmodel.homs_found"] = counters["galmodel.all_homs_to_pgl2.found"]
    pairs = counters["twists.check_cocycle.pairs"]
    out["twists.cocycle_pairs"] = pairs
    out["twists.cocycle_pairs_per_s"] = rate(pairs, "twists.check_cocycle")
    searches = calls["twists.cohomologous"]
    out["twists.cohomologous.found_ratio"] = counters["twists.cohomologous.found"] / searches if searches else 0.0
    points = counters["curves.cusps_oracle.points"]
    out["curves.p1_points"] = points
    out["curves.p1_points_per_s"] = rate(points, "curves.cusps_oracle")
    for name, values in cli_wall.items():
        out[f"{name}.p50_ms"] = statistics.median(values) * 1000
    for name, values in cli_inproc.items():
        out[f"{name}.inproc_ms"] = statistics.median(values) * 1000
    if startup_wall:
        out["cli.startup_share"] = 1 - startup_inproc / startup_wall
    out["trace.overhead_ratio"] = sum(traced_tasks) / sum(untraced_tasks)
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    lines, sha = 0, hashlib.sha256()
    for path in sorted((SRC / "modtwist").glob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        sha.update(path.name.encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": sha.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(args, spec) -> dict:
    workloads = import_workloads()
    from spans import Tracer, dump
    from speed import Speedometer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    with Speedometer() as meter:
        setups_raw, setup_windows = setup_samples(args.workload, args.seed)
        workload = cls(args.seed, tracer)
        tasks = workload.tasks
        # Traced runs alternate untraced and traced passes and need one pair.
        runs, traced_spans, failures, known = [], [], [], []
        start = round_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            tracer.enabled = traced
            runs.append((traced, run_pass(tasks, tracer, workloads, failures, known)))
            tracer.enabled = False
            if traced:
                traced_spans.append(tracer.take())
            elif args.trace:
                continue  # the traced half of the pair follows
            now = time.perf_counter()
            elapsed, round_s, round_start = now - start, now - round_start, now
            if len(runs) >= MIN_PASSES and (
                elapsed >= args.seconds or elapsed + round_s > OVERRUN_SHARE * args.seconds
            ):
                break
        measured_s = time.perf_counter() - start
        startup = startup_probes() if args.trace else None
        probes = meter.probes()

    # Scale every time to the reference speed; a probe stalls in-process
    # tasks while it holds the interpreter lock, but not child processes.
    passes, raw, traced_factors = {False: [], True: []}, {False: [], True: []}, []
    for traced, intervals in runs:
        factors = [probes.factor(t0, t1) for t0, t1 in intervals]
        own = [t1 - t0 - (probes.overlap(t0, t1) if workload.in_process else 0.0) for t0, t1 in intervals]
        raw[traced].append([t1 - t0 for t0, t1 in intervals])
        passes[traced].append([t * f for t, f in zip(own, factors)])
        if traced:
            traced_factors.append(factors)
    setups = [r * probes.factor(*w) for r, w in zip(setups_raw, setup_windows)]
    attempted = len(tasks) * len(runs)
    failed = len(failures) + len(known)

    if args.workload == "cli-calls":
        rss_kib = workload.max_child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    env = environment(args.seed)
    reduce = REDUCE[workload.in_process]
    untraced = per_task(passes[False], reduce)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "speed": probes.speed(),
        "pass_task_sums_s": {str(k).lower(): [sum(p) for p in v] for k, v in passes.items()},
        "pass_task_sums_raw_s": {str(k).lower(): [sum(p) for p in v] for k, v in raw.items()},
        "wall_raw_s": sum(per_task(raw[False], reduce)),
        "measured_s": measured_s,
        "failures": failures,
        "known_defects": known,
        "trail": {"passes": [{"traced": t, "intervals": i} for t, i in runs], "kinds": [t.kind for t in tasks],
                  "probes": {"starts": probes.starts, "ends": probes.ends, "cpu": probes.cpu}},
    }
    if args.trace:
        stall = probes.overlap if workload.in_process else None
        values = layer_metrics(traced_spans, traced_factors, stall, per_task(passes[True], reduce), untraced)
        samples, windows = startup
        factors = [probes.factor(*w) for w in windows]
        values.update({name: statistics.median(v * f for v, f in zip(column, factors))
                       for name, column in samples.items()})
        values["design.src_lines"] = env["src_lines"]
        metrics_spec = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(untraced),
            "task_p50_ms": quantile(untraced, 50) * 1000,
            "task_p90_ms": quantile(untraced, 90) * 1000,
            "peak_rss_mb": rss_kib / 1024,
            "verified_ratio": (attempted - failed) / attempted,
        }
        result["setup_samples_s"] = setups
        result["setup_samples_raw_s"] = setups_raw
        metrics_spec = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in metrics_spec}
    result["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if args.trace:
        dump(traced_spans, OUT / f"{stem}-spans.jsonl")

    repeats = len(passes[False])
    how = "median" if workload.in_process else "least"
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload}: {why}")
    print(f"  seed {args.seed}: {len(tasks)} tasks x {repeats} untraced + {len(passes[True])} traced passes "
          f"in {measured_s:.1f} s; {attempted} attempted, {failed} failed "
          f"({len(known)} known defects of the seed program, {len(failures)} other)")
    print(f"  times scaled to the reference speed; this run's speed {probes.speed():.3f}, "
          f"raw wall_s {result['wall_raw_s']:.4f} s")
    samples = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"sum over {len(tasks)} tasks of each one's {how} of {repeats}",
        "task_p50_ms": f"n={len(tasks)} tasks, each the {how} of {repeats}",
        "task_p90_ms": f"n={len(tasks)} tasks, each the {how} of {repeats}",
        "peak_rss_mb": "max child ru_maxrss" if args.workload == "cli-calls" else "ru_maxrss",
        "verified_ratio": f"fail_ratio {failed / attempted:.4f}, n={attempted}",
    }
    for name, m in metrics.items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    for kind, detail in failures[:10]:
        print(f"  FAILED {kind}: {detail}")
    print(json.dumps({"env": env}, sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    spec = load_spec()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {w['name']} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{w['name']}/{name}"] = m
    return total


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.setup_probe:
        workloads = import_workloads()
        from spans import Tracer

        workloads.WORKLOADS[args.workload](args.seed, Tracer())
        print(repr(monotonic()))
        return
    spec = load_spec()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args, spec)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
