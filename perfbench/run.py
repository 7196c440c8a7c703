"""troplog benchmark: run one workload and print its metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload moduli --seed 1 --seconds 25 --trace 0

Workloads: moduli, subdivide-line, subdivide-plane, cli (see NOTES.md).
The run repeats passes of the workload, each in a fresh interpreter and one
at a time, until the next pass would end after --seconds. With --trace 0
it reports the end-to-end metrics; with --trace 1 it alternates untraced
and traced passes and reports the per-layer metrics. Every output is
checked. Times are reported at a fixed reference host speed (see
hostspeed.py). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402

PASS_TIMEOUT_S = 120
MIN_SETUP_SAMPLES = 11
STARTUP_PROBES = 5

class BenchError(Exception):
    pass


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(argv: list[str], timeout: float = PASS_TIMEOUT_S) -> tuple[str, float]:
    """Run a child in its own process group; return its stdout and start time.

    On a timeout the whole group is killed, so CLI processes that a pass
    started end with it.
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:  # a timeout, or this run being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:]} did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited with {proc.returncode}:\n{err[-2000:]}")
    return out, started


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, workdir: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir = workdir
        self.passes: dict[str, list[dict]] = {}
        self.setup_s: list[float] = []

    def one_pass(self, mode: str) -> None:
        out, started = run_child([
            sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed),
            os.path.join(self.workdir, f"pass{len(self.setup_s):03d}"), mode,
        ])
        result = json.loads(out.splitlines()[-1])
        self.setup_s.append(result["ready"] - started)
        if mode != "setup":
            result["measured_s"] = sum(op["s"] for op in result["ops"])
            result["wall_s"] = result["measured_s"] * result["speed"]
            self.passes.setdefault(mode, []).append(result)

    def speed(self) -> float:
        """Median over the passes of the factor to reference host speed."""
        return statistics.median(p["speed"] for ps in self.passes.values() for p in ps)

    def repeat(self, modes: list[str], min_rounds: int) -> None:
        """Rounds of passes until the next round would overrun the time."""
        start, rounds = time.monotonic(), 0
        while True:
            for mode in modes:
                self.one_pass(mode)
            rounds += 1
            elapsed = time.monotonic() - start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > self.seconds:
                return

    def outcome(self) -> tuple[bool, int, int, list[str]]:
        ops = [op for ps in self.passes.values() for p in ps for op in p["ops"]]
        bad = [op for op in ops if op["result"] != "ok"]
        notes = sorted({f"{op['result']}: {op['name']}: {op['detail']}" for op in bad})
        correct = not any(op["result"] == "wrong" for op in ops)
        return correct, len(ops), len(bad), notes


def end_to_end(run: Run) -> tuple[dict, dict]:
    passes = run.passes["e2e"]
    while len(run.setup_s) < MIN_SETUP_SAMPLES:
        run.one_pass("setup")
    # Times are at reference host speed (hostspeed.py): each pass's by its
    # own factor, set-up times by the median factor of the run.
    # A request is one CLI command, or one whole pass of a library workload:
    # its few calls differ in size by up to three orders of magnitude, so a
    # percentile over calls would sit on a millisecond call or on the step
    # between two calls, and follow noise instead of the code. A command's
    # latency is its median over the passes: a shared host can run slower for
    # seconds at a time, and a percentile of single samples would follow
    # those spells rather than the sizes of the commands.
    if run.workload == "cli":
        by_command: dict[str, list[float]] = {}
        for p in passes:
            for op in p["ops"]:
                by_command.setdefault(op["name"], []).append(op["s"] * p["speed"] * 1000)
        latencies = [statistics.median(v) for v in by_command.values()]
    else:
        latencies = [p["wall_s"] * 1000 for p in passes]
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(run.setup_s) * run.speed(),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "op_p50_ms": cuts[4],
        "op_p90_ms": cuts[8],
        "ops_per_s": statistics.median(len(p["ops"]) / p["wall_s"] for p in passes),
    }, {
        "passes": len(passes),
        "latency samples": len(latencies),
        "setup samples": len(run.setup_s),
        "speed samples": sum(p["speed_samples"] for p in passes),
        "measured wall_s": round(statistics.median(p["measured_s"] for p in passes), 4),
        "host speed factor": round(run.speed(), 4),
    }


def startup_ms() -> float:
    """Median time of a process that only imports troplog.cli, at reference
    host speed, probed like the CLI commands of a pass (see worker.run_cli).
    Call it after the last pass: it keeps this process to one CPU."""
    times, sampler = [], hostspeed.Sampler()
    hostspeed.pin_to_one_cpu()
    sampler.take(hostspeed.GAP_PROBES)
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "import troplog.cli"], timeout=60)
        times.append((time.perf_counter() - start) * 1000)
        sampler.take(hostspeed.GAP_PROBES)
    return statistics.median(times) * hostspeed.factor(sampler.samples)


def per_layer(run: Run) -> tuple[dict, dict]:
    traced, baseline = run.passes["traced"], run.passes["baseline"]
    layers = [p["layers"] for p in traced]
    out = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):  # at reference speed, like the pass
            out[name] = statistics.median(v * p["speed"] for v, p in zip(values, traced))
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
    out["cli.startup_ms"] = startup_ms()
    untraced = statistics.median(p["wall_s"] for p in baseline)
    out["trace.overhead_share"] = statistics.median(p["wall_s"] for p in traced) / untraced - 1
    return out, {"traced passes": len(traced), "untraced passes": len(baseline),
                 "host speed factor": round(run.speed(), 4)}


def units(section: str) -> dict[str, str]:
    """Units of the metrics that BENCHMARK.json lists in ``section``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so children are stopped

    if not (ROOT / "src" / "troplog" / "__init__.py").is_file():
        print(f"error: no troplog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        if args.trace:
            run.repeat(["baseline", "traced"], min_rounds=1)
            metrics, samples = per_layer(run)
            unit = units("per_layer")
        else:
            run.repeat(["e2e"], min_rounds=2)
            metrics, samples = end_to_end(run)
            unit = units("end_to_end")
        correct, attempted, failed, notes = run.outcome()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            tmp_root.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          + ", ".join(f"{v} {k}" for k, v in samples.items()))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit[name]}")
    print(f"  {'fail_rate':48s} {failed / attempted:>16.6g} ratio ({failed} of {attempted} ops)")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
