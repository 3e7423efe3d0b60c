"""End-to-end and per-layer benchmark of the dunklweyl exact verifier.

One client in one thread sends requests in a closed loop: the next request
goes out only after the previous answer has been checked.  Requests are
argv lists for ``dunklweyl.cli.main`` (stdout captured) and parametric
``dunklweyl.states.ladder_norm_coefficients`` calls.  Every answer is
checked against a known answer (see workloads.py) and repeated argv must
give byte-identical stdout.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one table

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate traced run.  The
run record and, for traced runs, the spans and self-time table go to
``perfbench/out/``.  The exit code is 1 if any answer was wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speed import REFERENCE_S, SpeedProbe
from workloads import Plan, Request, setup_argvs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("verify", "scaling", "spectrum")
SETUP_REPEATS = 5

END_TO_END = {
    "throughput_rps": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {"calls": "count", "self_s": "s", "pairs": "count",
               "terms_out": "count", "yield": "ratio", "max_terms": "count",
               "coeff_bits_max": "bits", "bytes": "bytes", "misses": "count",
               "identities": "count", "residual_terms": "count",
               "overhead": "ratio"}

PER_LAYER = (
    ["kernel.op_mul." + m for m in ("calls", "self_s", "pairs", "terms_out",
                                    "yield", "max_terms", "coeff_bits_max")]
    + [f"{layer}.{m}" for layer in (
        "kernel.op_linear", "kernel.poly", "kernel.bn", "scalars",
        "opalg.mul", "opalg.substitute", "opalg.laurent", "opalg.render",
        "opalg.other", "builders.build", "relations.check", "states.apply",
        "states.fock", "states.eigencheck", "states.other",
        "dsl.parse_eval", "cli.main") for m in ("calls", "self_s")]
    + ["opalg.render.bytes", "builders.build.misses",
       "relations.identities", "relations.residual_terms", "trace.overhead"]
)


def import_program():
    """The package from the checkout's src/, or exit 2 if there is none."""
    if not (SRC / "dunklweyl" / "__init__.py").is_file():
        print(f"error: no dunklweyl package in {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from dunklweyl import cli, states
    return cli, states


def call_cli(cli, argv) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


class Tally:
    """Attempted and failed requests, and the time spans of timed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.spans: List[Tuple[float, float]] = []
        self.correct: List[bool] = []
        self.problems: List[str] = []

    def record(self, req: Request, start: float, end: float,
               problem: Optional[str], timed: bool) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{req.kind}: {problem}")
        if timed:
            self.spans.append((start, end))
            self.correct.append(problem is None)


class Client:
    """Sends one request at a time and checks the answer."""

    def __init__(self, cli, states, tracer=None) -> None:
        self.cli = cli
        self.states = states
        self.tracer = tracer
        self.seen: Dict[Tuple[str, ...], str] = {}
        self.sent = 0

    def _send(self, req: Request):
        if req.argv is not None:
            return call_cli(self.cli, req.argv)
        func, arg = req.call
        return 0, getattr(self.states, func)(arg)

    def serve(self, req: Request, tally: Tally, timed: bool,
              traced: bool = False) -> float:
        """Send, check and record one request; return its seconds."""
        send = self._send
        if traced:
            self.tracer.request_id = self.sent
            send = self.tracer.span("bench.request", send)
        self.sent += 1
        start = time.perf_counter()
        try:
            code, out = send(req)
        except Exception as exc:  # a raising request is a failed request
            end = time.perf_counter()
            tally.record(req, start, end,
                         f"raised {type(exc).__name__}: {exc}", timed)
            return end - start
        end = time.perf_counter()
        try:
            problem = req.check(code, out)
        except (KeyError, IndexError, TypeError, ValueError,
                AttributeError, ArithmeticError) as exc:
            problem = f"unreadable answer ({type(exc).__name__}: {exc})"
        if problem is None and req.argv is not None:
            first = self.seen.setdefault(req.argv, out)
            if first != out:
                problem = "stdout differs from an earlier identical request"
        tally.record(req, start, end, problem, timed)
        return end - start

    def run_pass(self, reqs: List[Request], tally: Tally, timed: bool,
                 traced: bool = False) -> float:
        """Serve every request; return the seconds spent in requests."""
        return sum(self.serve(req, tally, timed, traced) for req in reqs)


def measure_setup(workload: str) -> Tuple[float, float]:
    """Median over fresh processes of import plus cold registry builds,
    normalised and raw."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-child", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr[-500:]}")
        times.append([float(v) for v in proc.stdout.split()[-2:]])
    return (statistics.median(t[0] for t in times),
            statistics.median(t[1] for t in times))


def setup_child(workload: str) -> None:
    argvs = setup_argvs(workload)
    with SpeedProbe() as probe:
        time.sleep(0.05)
        start = time.perf_counter()
        cli, _ = import_program()
        for argv in argvs:
            code, out = call_cli(cli, argv)
            if code != 0 or out.strip() != "0":
                print(f"set-up request {argv} gave exit {code}",
                      file=sys.stderr)
                sys.exit(1)
        end = time.perf_counter()
    seconds = probe.adjust(start, end)[0]
    # Probe runs inside set-up share its cold caches, so only those just
    # before and after it gauge the machine.
    around = [d for t, d in zip(probe.starts, probe.durations)
              if not start <= t < end]
    print(repr(seconds * REFERENCE_S / statistics.fmean(around)),
          repr(seconds))


def run_record(workload: str, seed: int, trace: int) -> dict:
    import dunklweyl
    backend = getattr(dunklweyl, "BACKEND", None)
    if backend is None:
        compiled = any(
            name.startswith("dunklweyl") and str(getattr(mod, "__file__", "")
                                                 ).endswith((".so", ".pyd"))
            for name, mod in list(sys.modules.items()))
        backend = "compiled" if compiled else "python"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"workload": workload, "seed": seed, "trace": trace,
            "backend": backend, "python": platform.python_version(),
            "commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def self_test(client: Client, plan: Plan) -> Optional[str]:
    """Feed the checker one wrong expectation; it must count a failure."""
    scratch = Tally()
    client.serve(plan.sabotaged, scratch, timed=False)
    if scratch.attempted != 1 or scratch.failed != 1:
        return "the checker accepted a deliberately wrong expectation"
    return None


def prepare(client: Client, plan: Plan) -> None:
    """Expected answers that need the program, computed before timing."""
    if plan.scaling is None:
        return
    for k, argv in plan.scaling.prepare_argv().items():
        code, out = call_cli(client.cli, argv)
        if code != 0:
            raise RuntimeError(f"{argv} gave exit {code}")
        plan.scaling.negated[k] = json.loads(out)["results"][0]["normal_form"]


def end_to_end(plan: Plan, client: Client, tally: Tally, seconds: float
               ) -> Dict[str, float]:
    client.run_pass(plan.pass_requests(0), tally, timed=False)
    start = time.perf_counter()
    passes = 0
    # Whole cycles through the value pools keep the request mix the same
    # from run to run.
    with SpeedProbe() as probe:
        while (passes % plan.cycle or time.perf_counter() - start < seconds
               or len(tally.spans) < plan.min_samples()):
            passes += 1
            client.run_pass(plan.pass_requests(passes), tally, timed=True)
    adjusted = [probe.adjust(a, b) for a, b in tally.spans]
    values = {"probe_median_s": statistics.median(probe.durations)}
    for label, lat in (("", [x[1] for x in adjusted]),
                       ("raw.", [x[0] for x in adjusted])):
        pct = statistics.quantiles(lat, n=100, method="inclusive")
        # Throughput counts request time only: the checks are the
        # client's work, not the program's.
        values[label + "throughput_rps"] = sum(tally.correct) / sum(lat)
        values[label + "req_p50_ms"] = statistics.median(lat) * 1e3
        values[label + "req_tail_ms"] = pct[plan.tail - 1] * 1e3
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    values["passes"] = passes
    return values


def traced(plan: Plan, client: Client, tally: Tally, seconds: float
           ) -> Tuple[Dict[str, float], dict]:
    tracer = client.tracer
    info = tracer.build_cache_info
    # Cold pass: the registry builds that set-up pays happen here.
    misses0 = info().misses if info else 0
    tracer.install()
    try:
        client.run_pass(plan.pass_requests(0), tally, False, traced=True)
    finally:
        tracer.uninstall()
    cold = {"builders.build.calls": tracer.calls["builders.build"],
            "builders.build.self_s": tracer.self_s["builders.build"]}
    if info:
        cold["builders.build.misses"] = info().misses - misses0
    tracer.reset()

    # Alternate untraced and traced passes of the same requests, in whole
    # cycles through the value pools, so per-pass counts repeat exactly.
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while (passes % plan.cycle or passes == 0
           or time.perf_counter() - start < seconds):
        passes += 1
        plain_s += client.run_pass(plan.pass_requests(passes), tally, True)
        tracer.install()
        try:
            traced_s += client.run_pass(plan.pass_requests(passes), tally,
                                        True, traced=True)
        finally:
            tracer.uninstall()

    metrics: Dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = tracer.calls[layer] / passes
        elif field == "self_s":
            metrics[name] = tracer.self_s[layer] / passes
    c = tracer.counts
    for field in ("pairs", "terms_out"):
        metrics[f"kernel.op_mul.{field}"] = c[f"kernel.op_mul.{field}"] / passes
    pairs = c["kernel.op_mul.pairs"]
    metrics["kernel.op_mul.yield"] = (
        c["kernel.op_mul.terms_out"] / pairs if pairs else 0.0)
    for field in ("max_terms", "coeff_bits_max"):
        metrics[f"kernel.op_mul.{field}"] = c[f"kernel.op_mul.{field}"]
    for name in ("opalg.render.bytes", "relations.identities",
                 "relations.residual_terms"):
        metrics[name] = c[name] / passes
    metrics.update(cold)
    metrics["trace.overhead"] = traced_s / plain_s
    for layer in tracer.absent:
        for name in list(metrics):
            if name == layer or name.startswith(layer + "."):
                del metrics[name]

    total = sum(tracer.self_s.values())
    table = [{"layer": name, "calls_per_pass": tracer.calls[name] / passes,
              "self_s_per_pass": tracer.self_s[name] / passes,
              "share": tracer.self_s[name] / total if total else 0.0}
             for name in sorted(tracer.self_s, key=tracer.self_s.get,
                                reverse=True)]
    detail = {"traced_passes": passes, "absent": tracer.absent,
              "table": table, "spans_dropped": tracer.dropped,
              "span_fields": ["id", "parent", "name", "start", "end",
                              "request"],
              "spans": tracer.spans}
    return metrics, detail


def run_workload(args) -> int:
    plan = Plan(args.workload, args.seed)
    cli, states = import_program()
    record = run_record(args.workload, args.seed, args.trace)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    client = Client(cli, states, tracer)
    tally = Tally()
    problem = self_test(client, plan)
    prepare(client, plan)

    if args.trace:
        values, detail = traced(plan, client, tally, args.seconds)
        units = {n: LAYER_UNITS[n.rpartition(".")[2]] for n in values}
    else:
        setup_s, raw_setup_s = measure_setup(args.workload)
        values = end_to_end(plan, client, tally, args.seconds)
        detail = {"passes": values.pop("passes"),
                  "samples": len(tally.spans),
                  "tail_percentile": plan.tail,
                  "reference_s": REFERENCE_S,
                  "probe_median_s": values.pop("probe_median_s"),
                  "raw.setup_s": raw_setup_s}
        for name in [n for n in values if n.startswith("raw.")]:
            detail[name] = values.pop(name)
        values["setup_s"] = setup_s
        units = END_TO_END

    correct = problem is None and tally.failed == 0
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in values.items()}}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(
        {"record": record, "result": result, "detail": detail,
         "problems": ([problem] if problem else []) + tally.problems}))

    print(json.dumps(record), file=sys.stderr)
    for msg in ([problem] if problem else []) + tally.problems:
        print(f"FAILED {msg}", file=sys.stderr)
    if args.trace:
        print(f"{'layer':<20} {'calls/pass':>12} {'self s/pass':>12} share",
              file=sys.stderr)
        for row in detail["table"]:
            print(f"{row['layer']:<20} {row['calls_per_pass']:>12.1f} "
                  f"{row['self_s_per_pass']:>12.4f} {row['share']:6.1%}",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of metrics."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{workload}: no result (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_ratio={result['failed'] / result['attempted']:.4g}")
        for name, m in result["metrics"].items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_child:
        setup_child(args.setup_child)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
