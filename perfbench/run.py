"""bilor's benchmark: seeded closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload windows --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --suite --seed 1 --seconds 20 --out perfbench/results/a.jsonl
    python3 perfbench/run.py --compare perfbench/results/a.jsonl perfbench/results/b.jsonl
    python3 perfbench/run.py --pin

Run from the root of a checkout: bilor is imported from ./src and nowhere
else.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs a fixed
number of passes twice per op, plain and traced, and prints the per-layer
metrics.  The last line of stdout is one JSON object; the lines before it
say the same for a reader.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
sys.dont_write_bytecode = True  # bilor is always imported from source, as its children do

import corpus  # noqa: E402  (the script's own directory is on sys.path)
import ops  # noqa: E402
from calibrate import NOMINAL_CHILD_S, Gauge, child_seconds  # noqa: E402
from tracer import PER_LAYER, LAYERS, Tracer  # noqa: E402

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may get worse before a change counts as a regression.
END_TO_END = (
    ("ops_per_s", "ops/s", "higher", 0.2),
    ("op_ms_p50", "ms", "lower", 0.2),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
# error_share is never a bounded metric: it is 0 on a correct run.  It is
# printed, and carried in the result line as `failed` / `attempted`.

# The tail is the highest percentile with at least ten samples beyond it.
# Each workload fixes one that its standard 20 s run supports and that sits
# inside a cluster of like-cost ops rather than on the cliff between two
# (where one op more or less moves it by tens of percent): windows p99 falls
# between the d=12 enumerations and the d=32 consecutive scan, so it uses
# p95.  A run goes on until it has ten samples beyond its percentile, so
# every run of a workload reports the same percentile.
TAIL_PERCENTILE = {"windows": 95, "algebra": 99, "approximate": 98, "cli": 90}

SETUP_REPEATS = 5  # setup_s is the median of this many fresh set-ups
TRACE_PASSES = 2  # a traced run covers exactly these passes, so counts repeat
PIN_SEEDS = range(10)
PIN_PASSES = 2


class SetupError(RuntimeError):
    pass


# -- set-up -------------------------------------------------------------------

def environment() -> dict:
    env = ops.child_env(str(ROOT))
    env["PYTHONPATH"] = "src"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "executable": sys.executable,
        "platform": platform.platform(),
        "flags": {f: getattr(sys.flags, f) for f in type(sys.flags).__match_args__},
        "dont_write_bytecode": sys.dont_write_bytecode,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "cli_child_env": env,
        "src_pycache_present": (SRC / "bilor" / "__pycache__").exists(),
    }


def _import_library():
    for name in [m for m in sys.modules if m == "bilor" or m.startswith("bilor.")]:
        del sys.modules[name]
    lib = ops.load_library()
    where = Path(lib.forms.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"bilor was imported from {where}, not from {SRC}")
    return lib


def _size(op) -> tuple[int, int]:
    return op.spec["bound"], len(op.spec["form"] or "")


def _warm(batch, lib):
    """Run the smallest op of each kind once, untimed and unchecked."""
    seen = {}
    for op in batch:
        key = op.spec["op"]
        if key not in seen or _size(op) < _size(seen[key]):
            seen[key] = op
    for op in seen.values():
        if op.call is None:
            ops.run_process(op, str(ROOT))
        else:
            ops.run_library(op)


def set_up(workload: str, seed: int):
    """Import bilor, build pass 0 and warm up; repeated, reporting the median
    of the scaled times and of the raw ones."""
    gauge = Gauge()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = _import_library()
        batch = [ops.prepare(s, lib) for s in corpus.generate_pass(workload, seed, 0)]
        _warm(batch, lib)
        gauge.record(time.perf_counter() - t0)
    return statistics.median(gauge.scaled()), statistics.median(gauge.raw), lib, batch


# -- checking -------------------------------------------------------------------

def load_pins() -> dict:
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text())


def judge(pins, workload, seed, index, k, op, outcome) -> list[str]:
    """Everything wrong with one op's outcome; empty when it is correct."""
    if outcome.error is not None:
        return [outcome.error]
    problems = ops.check(op.spec, outcome.value, op.form)
    passes = pins.get(workload, {}).get(str(seed), [])
    if index < len(passes):
        want = passes[index][k * ops.DIGEST_LEN:(k + 1) * ops.DIGEST_LEN]
        if ops.digest(outcome.value) != want:
            problems.append(f"output digest {ops.digest(outcome.value)} != pinned {want}")
    return problems


def run_op(op):
    if op.call is None:
        return ops.run_process(op, str(ROOT))
    return ops.run_library(op)


# -- measuring --------------------------------------------------------------------

def samples_for_tail(percentile: int) -> int:
    """Fewest samples that leave ten beyond the percentile."""
    return ceil(10 * 100 / (100 - percentile))


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """(value at the percentile by nearest rank, samples beyond it)."""
    xs = sorted(latencies)
    rank = ceil(percentile * len(xs) / 100)
    return xs[rank - 1], len(xs) - rank


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, op, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.spec['id']} {op.spec['op']} ({op.spec['cls']}): "
                                     + "; ".join(problems))


def measure(workload: str, seed: int, seconds: float, lib, batch, pins):
    """Closed loop, one op at a time, until `seconds` of op wall time are
    spent and the tail has its samples.  Each op's time is scaled to the
    nominal machine speed by the reference runs around it (see calibrate.py):
    the in-process kernel, or for `cli` a reference child."""
    percentile = TAIL_PERCENTILE[workload]
    need = samples_for_tail(percentile)
    tally = Tally()
    if workload == "cli":
        env, root = ops.child_env(str(ROOT)), str(ROOT)
        gauge = Gauge(lambda: child_seconds(env, root), NOMINAL_CHILD_S, window=0)
    else:
        gauge = Gauge()
    raw = gauge.raw
    ok: list[bool] = []
    passes: list[tuple[int, int]] = []  # [first, end) op positions of each whole pass
    busy = 0.0
    index = 0
    while True:
        first = len(raw)
        for k, op in enumerate(batch):
            out = run_op(op)
            gauge.record(out.seconds)
            problems = judge(pins, workload, seed, index, k, op, out)
            tally.add(op, problems)
            ok.append(not problems)
            busy += out.seconds
            done = busy >= seconds and len(raw) >= need
            if done:
                break
        if len(raw) - first == len(batch):
            passes.append((first, len(raw)))
        if done:
            break
        index += 1
        batch = [ops.prepare(s, lib) for s in corpus.generate_pass(workload, seed, index)]
    latencies = gauge.scaled()
    if not passes:  # not one whole pass: the whole run stands in for one
        passes.append((0, len(raw)))
    throughputs = [sum(ok[a:b]) / sum(latencies[a:b]) for a, b in passes]
    value, beyond = tail(latencies, percentile)
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": statistics.median(throughputs),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_tail": value * 1e3,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    detail = {"tail_percentile": percentile, "samples": len(latencies), "beyond_tail": beyond,
              "passes": index + 1, "complete_passes": len(throughputs), "busy_s": busy,
              "raw_op_ms_p50": statistics.median(raw) * 1e3,
              "raw_op_ms_tail": tail(raw, percentile)[0] * 1e3,
              "raw_ops_per_s": (tally.attempted - tally.failed) / busy,
              "speed": sum(latencies) / busy}
    return metrics, detail, tally


def measure_traced(workload: str, seed: int, lib, pins):
    """Each op of TRACE_PASSES passes plain, then traced; outputs must agree."""
    import bilor

    tracer = Tracer(bilor, {name: getattr(lib, name) for name in LAYERS})
    tally = Tally()
    plain = traced = 0.0
    process_ms, startup_ms = [], []
    for index in range(TRACE_PASSES):
        batch = [ops.prepare(s, lib) for s in corpus.generate_pass(workload, seed, index)]
        for k, op in enumerate(batch):
            mark = len(tracer.start)
            if op.call is None:
                first = ops.run_process(op, str(ROOT))
                bare = ops.run_in_process(op, lib)
                seen = ops.run_in_process(op, lib, tracer)
                process_ms.append(first.seconds * 1e3)
                startup_ms.append((first.seconds - bare.seconds) * 1e3)
            else:
                first = bare = ops.run_library(op)
                seen = ops.run_library(op, tracer)
            plain += bare.seconds
            traced += seen.seconds
            problems = judge(pins, workload, seed, index, k, op, first)
            for label, other in (("in-process", bare), ("traced", seen)):
                if (other.value, other.error) != (first.value, first.error):
                    problems.append(f"{label} output differs")
            work = tracer.count("linalg.int_det", mark)
            if work > op.spec["bound"]:
                problems.append(f"{work} int_det calls exceed the work bound {op.spec['bound']}")
            tally.add(op, problems)
    metrics = tracer.metrics()
    metrics["cli.process_ms_p50"] = statistics.median(process_ms) if process_ms else 0.0
    metrics["cli.startup_ms_p50"] = statistics.median(startup_ms) if startup_ms else 0.0
    metrics["trace.overhead"] = traced / plain
    detail = {"passes": TRACE_PASSES, "spans": len(tracer.start),
              "traced_s": traced, "plain_s": plain}
    return metrics, detail, tally


# -- the commands -------------------------------------------------------------------

def _find_sources() -> bool:
    """Put ./src first on the import path; False when it holds no bilor."""
    if not (SRC / "bilor" / "__init__.py").is_file():
        print(f"perfbench: no bilor sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def run_workload(args) -> int:
    if not _find_sources():
        return 2
    env = environment()
    try:
        setup_s, raw_setup_s, lib, batch = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    pins = load_pins()
    if args.trace:
        values, detail, tally = measure_traced(args.workload, args.seed, lib, pins)
        table = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values, detail, tally = measure(args.workload, args.seed, args.seconds, lib, batch, pins)
        values["setup_s"] = setup_s
        detail["raw_setup_s"] = raw_setup_s
        table = [(name, unit) for name, unit, _, _ in END_TO_END]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    error_share = tally.failed / max(tally.attempted, 1)
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "detail": detail, "error_share": error_share,
        "work": {"window_cap": corpus.WINDOW_CAP,
                 "largest_op_bound": max(op.spec["bound"] for op in batch)},
        "failures": tally.failures, "metrics": metrics,
    }
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# work bound: at most {corpus.WINDOW_CAP} minors per window; "
          f"largest op bound {doc['work']['largest_op_bound']} int_det calls")
    print("# detail " + json.dumps(detail, sort_keys=True))
    for name, unit in table:
        note = ""
        if name == "op_ms_tail":
            note = (f"  (p{detail['tail_percentile']:g} of {detail['samples']} samples, "
                    f"{detail['beyond_tail']} beyond)")
        print(f"{name:<44} {values[name]:>14.6g} {unit}{note}")
    print(f"{'error_share':<44} {error_share:>14.6g} ratio  ({tally.failed} of {tally.attempted} failed)")
    for line in tally.failures:
        print(f"# FAIL {line}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_suite(args) -> int:
    """Every workload, one after another, each in a fresh process so that
    set-up and peak memory are its own."""
    status = 0
    rows = []
    for workload in corpus.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(Path(args.out).resolve())]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            rows.append((workload, json.loads(lines[-1])))
    print("# summary")
    for workload, result in rows:
        for name, m in result["metrics"].items():
            print(f"{workload:<12} {name:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"{workload:<12} {'error_share':<44} "
              f"{result['failed'] / max(result['attempted'], 1):>14.6g} ratio")
    return status


def _spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (None below 2 runs)."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def run_compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: both medians, their ratio (base A) and whether
    the difference is resolved at the benchmark's bound.  A metric whose
    run-to-run spread exceeds its bound is unresolved, unless every run of B
    reads better than every run of A."""
    def load(path):
        runs = {}
        for line in Path(path).read_text().splitlines():
            doc = json.loads(line)
            for name, m in doc["metrics"].items():
                runs.setdefault((doc["workload"], name), []).append(m["value"])
        return runs

    a, b = load(path_a), load(path_b)
    bounds = {name: (bound, better) for name, _, better, bound in END_TO_END}
    bounds.update({name: (None, better) for name, _, better in PER_LAYER})
    print(f"{'workload':<12} {'metric':<44} {'A':>12} {'B':>12} {'B/A':>8}  status")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        ratio = mb / ma if ma else float("nan")
        bound, better = bounds.get(name, (None, "lower"))
        sa, sb = _spread(a[key]), _spread(b[key])
        b_wins = (max(b[key]) < min(a[key])) if better == "lower" else (min(b[key]) > max(a[key]))
        if bound is None:
            status = "no bound"
        elif sa is None or sb is None or max(sa, sb) > bound:
            status = "better in every run" if b_wins else "unresolved (spread above bound or under 2 runs)"
        else:
            worse = (ratio - 1) if better == "lower" else (1 - ratio)
            status = "regressed" if worse > bound else "within bound"
        print(f"{workload:<12} {name:<44} {ma:>12.6g} {mb:>12.6g} {ratio:>8.4f}  {status}"
              f"  [base A; n={len(a[key])}/{len(b[key])}]")
    return 0


def run_pin() -> int:
    """Record the output digest of every op of the pinned seeds and passes.

    Verdicts and witnesses may change only when a bug is shown, so rerun this
    only together with such a fix, and say so where the fix is recorded.
    """
    if not _find_sources():
        return 2
    lib = _import_library()
    pins = {}
    bad = 0
    for workload in corpus.WORKLOADS:
        for seed in PIN_SEEDS:
            passes = []
            for index in range(PIN_PASSES):
                batch = [ops.prepare(s, lib) for s in corpus.generate_pass(workload, seed, index)]
                line = ""
                for op in batch:
                    out = run_op(op)
                    problems = judge({}, workload, seed, index, 0, op, out)
                    if problems:
                        bad += 1
                        print(f"{workload} seed {seed} {op.spec['id']}: {problems}", file=sys.stderr)
                    line += ops.digest(out.value)
                passes.append(line)
            pins.setdefault(workload, {})[str(seed)] = passes
            print(f"pinned {workload} seed {seed}", file=sys.stderr)
    if bad:
        print(f"{bad} ops failed their checks; nothing written", file=sys.stderr)
        return 1
    PINS.write_text(json.dumps(pins, sort_keys=True, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full result document to this JSON-lines file")
    p.add_argument("--suite", action="store_true", help="run every workload in turn")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two JSON-lines result files written by --out")
    p.add_argument("--pin", action="store_true", help="re-record pinned output digests")
    args = p.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.pin:
        return run_pin()
    if args.suite:
        return run_suite(args)
    if args.workload is None:
        p.error("give --workload, --suite, --compare or --pin")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
