"""docfootprint benchmark harness.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: invoice-batch, scenario-grid, report-bundle, cli-oneshot (see
BENCHMARK.json and perfbench/README.md). The package is copied from
src/docfootprint into a work directory and byte-compiled there, so every
import, in this process and in the fresh interpreters, is paid as an
installed user pays it, and the source tree gains no __pycache__.

--trace 0 measures for S seconds and prints the end-to-end metrics.
--trace 1 measures S/2 seconds untraced and S/2 seconds with every public
function of the package wrapped, and prints the per-layer metrics with
the tracing overhead. The last line of stdout is the JSON result.
"""

import sys

sys.dont_write_bytecode = True  # the harness's own modules stay uncompiled

import argparse  # noqa: E402
import compileall  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import Speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "docfootprint"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 15
CLI_LAYER_REPEATS = 7
MAX_REPORTED_FAILURES = 5

# Each workload's own names for its end-to-end metrics, printed beside
# the workload-neutral ones.
ALIASES = {
    "invoice-batch": {"units_per_s": ("invoice_items_per_s", "items/s"),
                      "input_mb_per_s": ("invoice_mb_per_s", "MB/s"),
                      "op_p50_ms": ("invoice_doc_p50_ms", "ms"),
                      "op_tail_ms": ("invoice_doc_tail_ms", "ms")},
    "scenario-grid": {"units_per_s": ("scenario_evals_per_s", "points/s")},
    "report-bundle": {"units_per_s": ("report_scenarios_per_s", "scenarios/s"),
                      "op_p50_ms": ("report_bundle_p50_ms", "ms")},
    "cli-oneshot": {"op_p50_ms": ("cli_p50_ms", "ms"), "op_tail_ms": ("cli_tail_ms", "ms")},
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * pct / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


@dataclass
class Failures:
    count: int = 0
    messages: list = field(default_factory=list)

    def add(self, where: str, errors: list[str]) -> None:
        self.count += 1
        if len(self.messages) < MAX_REPORTED_FAILURES:
            self.messages.append(f"{where}: {'; '.join(errors[:3])}")


@dataclass
class Phase:
    """What one timed phase measured."""

    metrics: dict
    passes: int
    ops: int
    op_time_s: float        # raw wall time of the operations
    tail_samples: int
    speed_factor: float     # median reference-speed factor


def run_op(w, i: int):
    """Time operation i; return (seconds, outcome)."""
    w.prepare(i)
    start = perf_counter()
    try:
        raw = w.run(i)
    except Exception as exc:  # an error the workload did not expect is an outcome to check
        return perf_counter() - start, exc
    elapsed = perf_counter() - start
    try:
        return elapsed, w.collect(i, raw)
    except Exception as exc:
        return elapsed, exc


def first_pass(w, failures: Failures) -> tuple[list, list]:
    """Untimed pass checked in full against the oracles; its outcomes are
    the reference every later pass must reproduce."""
    reference, bad = [], []
    for i in range(len(w)):
        _elapsed, outcome = run_op(w, i)
        try:
            errors = w.check(i, outcome)
        except Exception as exc:  # malformed output can break the oracle's parsing
            errors = [f"oracle could not read the output: {exc!r}"]
        if errors:
            failures.add(f"{w.name}[{i}]", errors)
        reference.append(outcome)
        bad.append(bool(errors))
    return reference, bad


@dataclass
class Pass:
    """One timed pass, at reference speed. Passes long enough to hold a tail
    keep only their percentiles, so memory does not grow with the pass
    count; the others keep their latencies for percentiles over the run."""

    total: float
    raw_total: float
    p50: float = 0.0
    tail: float = 0.0
    latencies: list | None = None


def reduce_pass(w, scaled: list[float], raw_total: float) -> Pass:
    if w.per_pass_tail:
        return Pass(sum(scaled), raw_total, percentile(scaled, 50), percentile(scaled, w.tail_pct))
    return Pass(sum(scaled), raw_total, latencies=scaled)


def one_pass(w, reference: list, bad: list, failures: Failures, speed: Speed,
             tracer=None) -> Pass:
    """Time every operation of a pass once, scaling the latencies to
    reference speed per operation when the workload asks for it, else per
    pass."""
    n = len(w)
    latencies, factors = [0.0] * n, [1.0] * n
    for i in range(n):
        if tracer is not None:
            tracer.op = i
        latencies[i], outcome = run_op(w, i)
        if w.probe_each_op:
            factors[i] = speed.factor()
        if bad[i] or not same(outcome, reference[i]):
            failures.add(f"{w.name}[{i}]", ["outcome differs from the checked first pass"])
    if tracer is not None:
        tracer.flush()
    if not w.probe_each_op:
        factors = [speed.factor()] * n
    return reduce_pass(w, [x * f for x, f in zip(latencies, factors)], sum(latencies))


def summarize(w, passes: list[Pass], speed: Speed) -> Phase:
    """End-to-end metrics over timed passes. Rates are medians over passes;
    latency percentiles are medians of per-pass percentiles, or taken over
    the whole run when a pass is too short to hold a tail."""
    units, nbytes = sum(w.units), sum(w.nbytes)
    if w.per_pass_tail:
        p50 = statistics.median(p.p50 for p in passes)
        tail = statistics.median(p.tail for p in passes)
        samples = len(w)
    else:
        every = [x for p in passes for x in p.latencies]
        p50, tail, samples = percentile(every, 50), percentile(every, w.tail_pct), len(every)
    metrics = {"units_per_s": statistics.median(units / p.total for p in passes),
               "input_mb_per_s": statistics.median(nbytes / p.total / 1e6 for p in passes),
               "op_p50_ms": p50 * 1e3, "op_tail_ms": tail * 1e3,
               "peak_rss_mb": w.peak_rss_mb()}
    return Phase(metrics, len(passes), len(passes) * len(w), sum(p.raw_total for p in passes),
                 samples, statistics.median(speed.factors))


def measure(w, seconds: float, reference: list, bad: list, failures: Failures) -> Phase:
    """Repeat whole passes until `seconds` have gone by, and at least until
    the tail percentile has ten samples beyond it."""
    beyond = 1 - w.tail_pct / 100
    min_passes = 3 if w.per_pass_tail else math.ceil(10 / beyond / len(w))
    passes = []
    speed = Speed()
    deadline = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() < deadline:
        passes.append(one_pass(w, reference, bad, failures, speed))
    return summarize(w, passes, speed)


# ----------------------------------------------------------- fresh processes

def warm_site(work: Path) -> Path:
    """Copy the package into work/site and byte-compile it there."""
    site = work / "site"
    shutil.copytree(PACKAGE, site / "docfootprint", ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(site, quiet=1):
        fail("could not byte-compile the package copy")
    return site


def wall_s(argv: list[str], env: dict, cwd: Path) -> float:
    start = perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def setup_s(site: Path, env: dict, cwd: Path) -> float:
    """Median wall time, at reference speed, of a fresh interpreter that
    imports the package and loads the bundled config."""
    config = site / "docfootprint" / "data" / "config.json"
    code = f"import docfootprint; docfootprint.load_config({str(config)!r})"
    speed = Speed()
    return statistics.median(wall_s([sys.executable, "-c", code], env, cwd) * speed.factor()
                             for _ in range(SETUP_REPEATS))


def import_ms(env: dict, cwd: Path) -> float:
    """`-X importtime` cumulative time of docfootprint.cli, in ms."""
    samples = []
    for _ in range(CLI_LAYER_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import docfootprint.cli"],
                              env=env, cwd=cwd, check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "docfootprint.cli":
                samples.append(int(parts[1]) / 1e3)
    if not samples:
        fail("-X importtime did not report docfootprint.cli")
    return statistics.median(samples)


# ------------------------------------------------------------------ tracing

def traced_metrics(w, pkg, seconds: float, reference, bad, failures, env, work,
                   directions: dict) -> tuple:
    """Alternate untraced and traced passes; return the per-layer metrics,
    with the tracing overhead as the percentage by which tracing worsened
    each end-to-end metric the passes measure (directions: name -> better)."""
    import layers

    tracer = layers.Tracer(pkg)
    plain, traced_passes = [], []
    speed = Speed()
    deadline = perf_counter() + seconds
    # Traced and untraced passes alternate, so drift in machine load
    # reaches both sides of the overhead comparison alike.
    while len(traced_passes) < 2 or perf_counter() < deadline:
        plain.append(one_pass(w, reference, bad, failures, speed))
        if w.name == "cli-oneshot":
            w.trace_child, w.tracer = HERE / "cli_child.py", tracer
        else:
            tracer.install()
        try:
            traced_passes.append(one_pass(w, reference, bad, failures, speed, tracer))
        finally:
            tracer.uninstall()
            w.trace_child = None
    untraced, traced = summarize(w, plain, speed), summarize(w, traced_passes, speed)
    totals = tracer.totals()
    out = layers.layer_metrics(totals, traced.ops)
    if w.name == "cli-oneshot":
        for name, calls in totals["calls"].items():
            if name.startswith("cli.main."):
                out[f"{name}.ms"] = totals["total_s"][name] / calls * 1e3
        out["cli.interp_start_ms"] = statistics.median(
            wall_s([sys.executable, "-c", "pass"], env, work) for _ in range(CLI_LAYER_REPEATS)) * 1e3
        out["cli.import_ms"] = import_ms(env, work)
    op_us = traced.op_time_s / traced.ops * 1e6
    self_sum = sum(totals["self_s"].values()) / traced.ops * 1e6
    out.update({
        "trace.op_us": op_us,
        "trace.untraced_op_us": untraced.op_time_s / untraced.ops * 1e6,
        "trace.self_sum_us": self_sum,
        "trace.unaccounted_us": op_us - self_sum,
        "trace.spans_per_op": totals["spans"] / traced.ops,
    })
    for name, better in directions.items():
        before, after = untraced.metrics[name], traced.metrics[name]
        worse = after - before if better == "lower" else before - after
        out[f"trace.overhead.{name}"] = worse / before * 100
    return out, untraced, traced


# --------------------------------------------------------------------- main

def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the repository root")
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import workloads

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choices: {', '.join(workloads.WORKLOADS)}")
    if not (PACKAGE / "__init__.py").is_file():
        fail(f"package source not found: {PACKAGE.relative_to(ROOT)}")

    # A terminated run still removes its work directory and children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, spec, workloads.WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def run(args, spec: dict, workload_cls, work: Path) -> int:
    site = warm_site(work)
    env = dict(os.environ, PYTHONPATH=str(site))
    sys.path.insert(0, str(site))
    pkg = importlib.import_module("docfootprint")

    w = workload_cls(pkg, args.seed, site, work, env)
    failures = Failures()
    reference, bad = first_pass(w, failures)
    planted = w.planted_check(w.planted_index, reference[w.planted_index])
    self_check_ok = bool(planted) and not bad[w.planted_index]

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))},"
          f" {platform.system()} {platform.machine()}")
    if args.trace:
        directions = {m["name"]: m["better"] for m in spec["end_to_end"]
                      if m["name"] not in ("setup_s", "peak_rss_mb")}
        values, untraced, traced = traced_metrics(w, pkg, args.seconds, reference, bad,
                                                  failures, env, work, directions)
        names = spec["per_layer"]
        measured_ops = untraced.ops + traced.ops
        print(f"traced: {traced.ops} operations in {traced.passes} passes;"
              f" untraced: {untraced.ops} in {untraced.passes}")
        slack = values["trace.op_us"] - values["trace.untraced_op_us"]
        if w.name == "cli-oneshot":
            print(f"self-time accounting: wrapped self times {values['trace.self_sum_us']:.2f} us"
                  f" of {values['trace.op_us']:.2f} us per invocation; interpreter start and"
                  f" import (cli.interp_start_ms, cli.import_ms) lie outside the spans")
        else:
            within = abs(values["trace.unaccounted_us"]) <= slack
            print(f"self-time accounting: op {values['trace.op_us']:.2f} us, wrapped self times"
                  f" {values['trace.self_sum_us']:.2f} us, unaccounted"
                  f" {values['trace.unaccounted_us']:.2f} us, tracing overhead {slack:.2f} us"
                  f" -> {'within' if within else 'NOT within'} the overhead")
    else:
        setup = setup_s(site, env, work)
        phase = measure(w, args.seconds, reference, bad, failures)
        values = dict(phase.metrics, setup_s=setup)
        measured_ops = phase.ops
        names = spec["end_to_end"]
        print(f"{phase.ops} operations in {phase.passes} passes of {len(w)};"
              f" tail p{w.tail_pct:g} over {phase.tail_samples} samples"
              f" ({'median over passes' if w.per_pass_tail else 'whole run'});"
              f" times at reference speed, median factor {phase.speed_factor:.3f}")
        aliases = ALIASES[w.name]
        for m in names:
            alias, unit = aliases.get(m["name"], (None, m["unit"]))
            label = f" ({alias}, {unit})" if alias else ""
            print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}{label}")
    attempted = len(w) + measured_ops
    print(f"  error_rate = {failures.count / attempted:.6g} ratio"
          f" ({failures.count} of {attempted} operations failed the oracle)")
    for message in failures.messages:
        print(f"  failure: {message}")
    print("oracle self-check: planted mismatch "
          + ("reported as a failure" if self_check_ok else "NOT reported - oracle is broken"))

    result = {
        "correct": failures.count == 0 and self_check_ok,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
