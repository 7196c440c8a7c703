"""One pass of a workload, in a fresh interpreter.

Usage: worker.py WORKLOAD SEED WORKDIR MODE

MODE is one of
  e2e       time the operations as a user runs them (CLI: one subprocess each)
  baseline  like e2e, but the CLI commands run in this process through main()
  traced    like baseline, with spans around the library's public functions
  setup     stop after set-up

Each distinct input is computed once per pass, so nothing one pass caches
reaches another. The pass prints one JSON line: the monotonic time at which
set-up ended, one record per operation, the factor that scales the pass's
times to reference host speed (see hostspeed.py), and for traced passes the
layer metrics. Outputs are checked after the timed part. Measured times
leave out the host-speed probes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 60


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024


def run_library(ops, sampler: hostspeed.Sampler) -> list[dict]:
    """Time each call, then check its output outside the timed part.

    An output is kept only while a later operation or check needs it, and
    garbage is collected before each call, so no call pays for the objects
    of another.
    """
    done, records = {}, []
    for op in ops:
        gc.collect()
        start = sampler.clock()
        try:
            with sampler:
                output = op.run(done)
        except Exception as exc:  # a crash of the code under test is a failed op
            records.append({"name": op.name, "s": sampler.clock() - start,
                            "result": "failed", "detail": f"{type(exc).__name__}: {exc}"})
            continue
        records.append({"name": op.name, "s": sampler.clock() - start})
        try:
            problems = op.check(output, done)
        except Exception as exc:  # an output too malformed to check is wrong
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        records[-1].update(result="wrong" if problems else "ok", detail="; ".join(problems[:3]))
        if op.keep:
            done[op.name] = output
        del output
    return records


def _cli_subprocess(argv, out_path: str) -> int:
    """Run one CLI process with its stdout in ``out_path``; return its exit code.

    A child's peak RSS includes that of the process which starts it (the
    child shares its parent's memory until exec), so the output goes to a
    file rather than into this process, which stays smaller than the
    largest CLI process. Stderr stays a pipe: its end of file marks the
    exit at once, where a wait with a timeout alone polls every 50 ms.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out_path, "w") as out:
        try:
            return subprocess.run(
                [sys.executable, "-m", "troplog.cli", *argv],
                stdout=out, stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S, env=env,
            ).returncode
        except subprocess.TimeoutExpired:  # a hung command fails with no envelope
            out.truncate(0)
            return -1


def _cli_in_process(argv) -> tuple[int, str]:
    import troplog.cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = troplog.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # what would be a traceback in a subprocess
        code = 1
    return code, out.getvalue()


def run_cli(ops, in_process: bool, sampler: hostspeed.Sampler):
    """Run the commands one after another. Return the (exit code, stdout) of
    each command and its record.

    In process, the sampler probes while the commands run. CLI processes run
    on another CPU than a probe in this process would, and the CPUs of a
    shared host differ in speed, so this process and its children keep to
    one CPU, where the probes run between two commands. Subprocess outputs
    are read once all have run.
    """
    outputs, records = [], []
    if in_process:
        with sampler:
            for op in ops:
                start = sampler.clock()
                outputs.append(_cli_in_process(op.argv))
                records.append({"name": op.name, "s": sampler.clock() - start})
        return outputs, records
    hostspeed.pin_to_one_cpu()
    sampler.take(hostspeed.GAP_PROBES)
    for k, op in enumerate(ops):
        path = f"cli-out-{k:03d}.txt"
        start = time.perf_counter()
        outputs.append((_cli_subprocess(op.argv, path), path))
        records.append({"name": op.name, "s": time.perf_counter() - start})
        sampler.take(hostspeed.GAP_PROBES)
    return [(code, Path(path).read_text()) for code, path in outputs], records


def check_cli(ops, outputs, records) -> int:
    """Classify every envelope; return the payload bytes printed."""
    payload_bytes = 0
    for op, rec, (code, out) in zip(ops, records, outputs):
        result, detail = checks.classify_envelope(code, out, op.expect)
        rec.update(result=result, detail=detail)
        with contextlib.suppress(ValueError, KeyError, TypeError):
            payload_bytes += len(json.dumps(json.loads(out)["payload"], sort_keys=True))
    return payload_bytes


def main(argv) -> int:
    workload, seed, workdir, mode = argv[0], int(argv[1]), argv[2], argv[3]
    os.makedirs(workdir, exist_ok=True)
    if workload == "cli":
        # Commands name their input files relative to the pass directory.
        os.chdir(workdir)
        with open(Path(__file__).with_name("digests.json")) as fh:
            digests = json.load(fh)
        if mode in ("baseline", "traced"):
            import troplog.cli  # noqa: F401  (import in set-up, not in the first command)
        ops = inputs.cli_ops(seed, workdir, digests)
    else:
        ops = inputs.library_ops(workload, seed)
    ready = time.monotonic()
    result = {"ready": ready}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    sampler = hostspeed.Sampler()
    tracer = spans.Tracer(clock=sampler.clock)
    if mode == "traced":
        spans.install(tracer)
    if workload == "cli":
        outputs, records = run_cli(ops, mode != "e2e", sampler)
        rss = _rss_mb(resource.RUSAGE_CHILDREN if mode == "e2e" else resource.RUSAGE_SELF)
        tracer.restore()
        payload_bytes = check_cli(ops, outputs, records)
    else:
        records = run_library(ops, sampler)
        rss = _rss_mb()
        tracer.restore()
        payload_bytes = 0
    result.update(ops=records, rss_mb=rss, speed=hostspeed.factor(sampler.samples),
                  speed_samples=len(sampler.samples))
    if mode == "traced":
        result["layers"] = spans.layer_metrics(tracer)
        result["layers"]["cli.payload_bytes"] = payload_bytes
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
