"""discforge benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload rank2 --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src``.
The workload is a closed loop: one client, sequential, no threads, and
for the ``cli`` workload one child process per op, started after the
previous one exits.  Ops are made from the seed (``workloads.py``), and
every output is checked (``verify.py``).  Passes over the op list
repeat until ``--seconds`` have been measured.  Times are calibrated
against the host's current speed (``calibrate.py``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run
(``spans.py``) and the tracing overhead.  A run record with per-op ids,
outcomes and times is written to ``bench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run stops starting ops after this many seconds, so that it ends well
# inside the 180 s a run may take; ops it did not reach count as failed.
HARD_LIMIT_S = 150.0
# Per-op budgets, several times the slowest op of each workload on the
# seed code (cayley(2,2,3) at about 6 s).
BUDGET_S = {"rank2": 60.0, "defect": 60.0, "checks": 30.0, "cli": 30.0}
SETUP_PROBES = 9
SPAWN_PROBES = 5
# ops whose per-op times are the ROADMAP baseline rows
BASELINE_ROWS = {
    "rank2/000/c1/disc": "discriminant, C1 (implicitize)",
    "rank2/001/seven-point/disc": "discriminant, seven-point (glue)",
    "rank2/002/twisted-cubic/disc": "discriminant, twisted cubic",
    "defect/014/cayley-2-2-2/defect": "is_dual_defect, cayley(2,2,2)",
    "defect/015/cayley-2-2-2/dualdim": "dual_variety_dim, cayley(2,2,2)",
}

sys.path.insert(0, str(SRC))

import verify  # noqa: E402
from calibrate import Calibration  # noqa: E402
from verify import BudgetExceeded, CheckFailed  # noqa: E402
from workloads import PROBES, WORKLOADS, generate  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- building inputs ----------------------------------------------------------


def prepare(ops: list[dict]) -> list:
    """Program input objects for every op: a zero-argument callable for a
    library op (plus the dual rows a defect witness refers to), or the
    argv of a CLI op.  Repeated inputs share one object."""
    from discforge import config, defect, disc

    cache: dict[str, object] = {}

    def shared(key, make):
        if key not in cache:
            cache[key] = make()
        return cache[key]

    def cfg_of(args):
        key = verify.canonical([args["side"], args["matrix"], args.get("labels")])
        if args["side"] == "a":
            return shared(key, lambda: config.PointConfiguration(args["matrix"]))
        return shared(key, lambda: config.GaleConfiguration(args["matrix"], labels=args.get("labels")))

    prepared = []
    for op in ops:
        kind, args = op["kind"], op["args"]
        gale_rows = None
        if kind == "cli":
            call = args["argv"]
        elif kind == "disc":
            cfg = cfg_of(args)
            call = lambda cfg=cfg: disc.discriminant(cfg)
        elif kind == "member":
            cfg, point = cfg_of(args), [Fraction(x) for x in args["point"]]
            call = lambda cfg=cfg, point=point: disc.membership(cfg, point)
        elif kind == "spec":
            cfg = cfg_of(args)
            call = lambda cfg=cfg, j=args["j"]: disc.check_specialization(cfg, j)
        elif kind == "group":
            cfg = cfg_of(args)
            call = lambda cfg=cfg, k=args["k"], l=args["l"]: disc.check_restriction_grouping(cfg, k, l)
        elif kind == "defect":
            key = verify.canonical(["gale", args["matrix"]])
            b = shared(key, lambda: config.gale_dual(config.PointConfiguration(args["matrix"])))
            gale_rows = b.matrix.to_lists()
            call = lambda b=b: defect.is_dual_defect(b)
        elif kind == "dualdim":
            a = cfg_of(dict(args, side="a"))
            call = lambda a=a: defect.dual_variety_dim(a)
        else:
            raise ValueError(f"unknown op kind {kind}")
        prepared.append((call, gale_rows))
    return prepared


# -- running ops ----------------------------------------------------------------


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def _timed(fn, budget: float):
    """(seconds, value, exception) of one call, interrupted after budget s."""
    value = exc = None
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (Exception, BudgetExceeded) as e:
        exc = e
    return perf_counter() - t0, value, exc


def _cli_child(argv, budget: float):
    """(seconds, exit code, stdout, stderr) of one CLI child process."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "discforge.cli", *argv],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, None, "", "over budget"
    return perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def _cli_inprocess(argv, budget: float):
    """The same call through ``cli.main`` inside this process."""
    from discforge import cli

    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects malformed arguments
                return exc.code
            except Exception:
                traceback.print_exc()
                return 1

    secs, code, exc = _timed(call, budget)
    if exc is not None:
        return secs, None, "", "over budget"
    return secs, code, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes over one workload's ops and keeps every result."""

    def __init__(self, workload: str, ops: list[dict], goldens: dict, start: float) -> None:
        self.workload = workload
        self.ops = ops
        self.goldens = goldens
        self.deadline = start + HARD_LIMIT_S
        self.digests = verify.load_digests()
        self.keys = [verify.op_key(op) for op in ops]
        self.prepared = prepare(ops)
        self.tracer = None
        self.calibration = Calibration()
        self.passes: list[list[dict]] = []

    def run_pass(self, in_process: bool = False) -> list[dict]:
        results = []
        for op, key, (call, gale_rows) in zip(self.ops, self.keys, self.prepared):
            res = {"id": op["id"], "key": key, "outcome": "ok", "reason": None,
                   "raw_seconds": 0.0, "output": None, "digest": None}
            budget = min(BUDGET_S[self.workload], self.deadline - perf_counter())
            if self.tracer is not None:
                self.tracer.op_id = op["id"]
            if budget <= 0:
                res.update(outcome="failed", reason="run time limit reached")
            elif op["kind"] == "cli":
                self._run_cli(op, call, budget, res, in_process)
            else:
                self._run_library(op, call, gale_rows, budget, res)
            if res["outcome"] == "ok":
                res["digest"] = verify.digest(res["output"])
            self.calibration.add(res)
            results.append(res)
        self.calibration.flush()
        verify.check_pairs(self.ops, results)
        for res in results:
            verify.check_digest(res, self.digests)
        self.passes.append(results)
        return results

    def _run_library(self, op, call, gale_rows, budget, res) -> None:
        secs, value, exc = _timed(call, budget)
        res["raw_seconds"] = secs
        if isinstance(exc, BudgetExceeded):
            res.update(outcome="failed", reason=f"over its {budget:.0f} s budget")
        elif exc is not None:
            outcome, code = verify.classify(exc)
            res.update(outcome=outcome, reason=f"{type(exc).__name__}: {exc}", exit=code)
        else:
            try:
                res["output"] = verify.check_library(op, value, self.goldens, gale_rows)
            except CheckFailed as e:
                res.update(outcome="failed", reason=str(e))

    def _run_cli(self, op, argv, budget, res, in_process: bool) -> None:
        run = _cli_inprocess if in_process else _cli_child
        secs, code, stdout, stderr = run(argv, budget)
        res.update(raw_seconds=secs, exit=code)
        if code is None:
            res.update(outcome="failed", reason=f"over its {budget:.0f} s budget")
        elif code in (3, 4) and 0 in op["expect"]["exit"] and "Traceback" not in stderr:
            res.update(outcome="refused", reason=stderr.strip()[:200])
        else:
            try:
                res["output"] = verify.check_cli(op, code, stdout, stderr, self.goldens)
            except CheckFailed as e:
                res.update(outcome="failed", reason=f"{e}: {stderr.strip()[-200:]}")

    def wall(self, in_process: bool = False, key: str = "seconds") -> float:
        """One pass; its wall time is the sum of its op latencies, calibrated
        or, with key="raw_seconds", as measured."""
        return sum(r[key] for r in self.run_pass(in_process))

    def out_of_time(self, t0: float, seconds: float) -> bool:
        now = perf_counter()
        return now - t0 >= seconds or now >= self.deadline - 1


# -- side measurements --------------------------------------------------------


def _calibrated(fn, count: int) -> list[dict]:
    """``count`` timings of fn, calibrated by a loop run after each."""
    calibration = Calibration(every=0)
    items = []
    for _ in range(count):
        t0 = perf_counter()
        fn()
        items.append({"raw_seconds": perf_counter() - t0})
        calibration.add(items[-1])
    calibration.flush()
    return items


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Fresh process to first timed op: interpreter start, ``import
    discforge`` and building the workload's inputs, in probe children."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]

    def probe():
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")

    return _calibrated(probe, SETUP_PROBES)


def measure_spawn() -> list[dict]:
    """Latency of a child process that only imports discforge.cli."""
    return _calibrated(lambda: subprocess.run(
        [sys.executable, "-c", "import discforge.cli"], cwd=ROOT, env=_child_env(), check=True,
    ), SPAWN_PROBES)


def run_probes() -> list[dict]:
    """Known-defect CLI probes, reported beside the scored ops."""
    out = []
    for probe in PROBES:
        secs, code, stdout, stderr = _cli_child(probe["argv"], BUDGET_S["cli"])
        out.append({"id": probe["id"], "argv": probe["argv"], "exit": code,
                    "expected_exit": probe["exit"], "passes": code in probe["exit"]})
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# -- metrics ---------------------------------------------------------------------


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(runner: Runner, walls: list[float], setup: list[dict]) -> dict:
    lat = [r["seconds"] * 1000 for p in runner.passes for r in p]
    results = [r for p in runner.passes for r in p]
    failed = sum(r["outcome"] == "failed" for r in results)
    return {
        "setup_s": (statistics.median(s["seconds"] for s in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (_p90(lat), "ms"),
        "settled_frac": ((len(results) - failed) / len(results), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


PER_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "distinct_ratio": "ratio",
    "max_cells": "count",
    "sylvester_max": "count",
    "coeff_bits_max": "bits",
    "curve_degree_max": "degree",
}


def per_layer(tracer, traced: list[float], untraced: list[float], spawn: list[dict]) -> dict:
    out = {}
    for name, value in tracer.metrics(len(traced)).items():
        out[name] = (value, PER_LAYER_UNITS[name.rsplit(".", 1)[1]])
    out["cli.spawn_ms"] = (statistics.median(s["seconds"] for s in spawn) * 1000, "ms")
    out["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    out["trace.traced_wall_s"] = (statistics.median(traced), "s")
    out["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return out


# -- main ------------------------------------------------------------------------------


def probe_main(workload: str, seed: int) -> int:
    import discforge  # noqa: F401

    prepare(generate(workload, seed))
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true",
                    help="add the digests of answered, unrecorded ops to bench/digests.json")
    args = ap.parse_args(argv)
    if args.probe:
        return probe_main(args.workload, args.seed)

    if not (SRC / "discforge").is_dir():
        print(f"discforge sources not found under {SRC}", file=sys.stderr)
        return 2
    start = perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    goldens = verify.load_goldens()
    ops = generate(args.workload, args.seed)
    runner = Runner(args.workload, ops, goldens, start)
    in_process = args.workload == "cli" and args.trace == 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    if args.trace == 0:
        setup = measure_setup(args.workload, args.seed)
        walls = []
        t0 = perf_counter()
        while not walls or not runner.out_of_time(t0, args.seconds):
            walls.append(runner.wall())
        metrics = end_to_end(runner, walls, setup)
        record["setup_s_samples"] = setup
        if args.workload == "cli":
            record["known_defect_probes"] = run_probes()
    else:
        from spans import Tracer

        # untraced and traced passes alternate, so that both see the same
        # machine and the overhead is a paired measurement; walls are raw,
        # like the span times they are compared with
        runner.tracer = Tracer()
        untraced, traced = [], []
        t0 = perf_counter()
        while not traced or not runner.out_of_time(t0, args.seconds):
            untraced.append(runner.wall(in_process, "raw_seconds"))
            runner.tracer.install()
            try:
                traced.append(runner.wall(in_process, "raw_seconds"))
            finally:
                runner.tracer.remove()
        spawn = measure_spawn()
        metrics = per_layer(runner.tracer, traced, untraced, spawn)
        record["spans"] = f"spans-{args.workload}-{args.seed}.json"
        OUT.mkdir(exist_ok=True)
        (OUT / record["spans"]).write_text(json.dumps(runner.tracer.span_records()))

    results = [r for p in runner.passes for r in p]
    counts = {k: sum(r["outcome"] == k for r in results) for k in ("ok", "refused", "failed")}
    record.update(
        passes=len(runner.passes),
        samples=len(results),
        outcomes=counts,
        fail_frac=counts["failed"] / len(results),
        refused_frac=counts["refused"] / len(results),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        calibration_loop_ms=[t * 1000 for t in runner.calibration.loops],
        baseline_ms={label: [r["seconds"] * 1000 for r in results if r["id"] == op_id]
                     for op_id, label in BASELINE_ROWS.items() if op_id.startswith(args.workload)},
        ops=[{"id": op["id"], "key": key,
              "outcome": [p[i]["outcome"] for p in runner.passes],
              "reason": next((p[i]["reason"] for p in runner.passes if p[i]["reason"]), None),
              "ms": [round(p[i]["seconds"] * 1000, 3) for p in runner.passes],
              "raw_ms": [round(p[i]["raw_seconds"] * 1000, 3) for p in runner.passes]}
             for i, (op, key) in enumerate(zip(ops, runner.keys))],
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    if args.record_digests:
        recorded = verify.load_digests()
        for r in results:
            if r["outcome"] == "ok":
                recorded.setdefault(r["key"], r["digest"])
        verify.DIGESTS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    for r in results:
        if r["outcome"] == "failed":
            print(f"failed {r['id']}: {r['reason']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(runner.passes)} passes, {len(results)} ops, "
          f"ok {counts['ok']}, refused {counts['refused']}, failed {counts['failed']}",
          file=sys.stderr)
    for probe in record.get("known_defect_probes", []):
        state = "passes" if probe["passes"] else "FAILS"
        print(f"known-defect probe {probe['id']} {state}: exit {probe['exit']}, "
              f"expected {probe['expected_exit']}", file=sys.stderr)
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": len(results),
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
