"""bakerlab benchmark: end-to-end and per-layer metrics of three CLI-driven
workloads (see ``workloads.py`` for what each one stresses).

    python3 benchmarks/run.py --workload mc_xy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each repetition runs the workload's command sequence in a fresh interpreter
(``worker.py``), with artifacts in a scratch directory under
``.bench_work/`` that is removed afterwards.  Repetitions continue until the
next one would overrun ``--seconds`` (but at least three, or two traced
cycles); the reported value of each metric is the median over the
repetitions.

``--trace 0`` reports the end-to-end metrics, with tracing off:

    wall_s       command sequence, from after the import to the last return
    setup_s      fresh interpreter start until ``bakerlab.cli`` is imported
    peak_rss_mb  ``ru_maxrss`` of the workload process

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (``tracing.py``), the import time of
numpy, scipy and bakerlab from ``-X importtime``, and the tracing overhead
(median traced minus median untraced ``wall_s``).

A command fails when it exits non-zero or a check of its artifacts fails;
``failed`` / ``attempted`` is the error rate.  The line before the result
holds the environment, every repetition's raw figures (with the wall time of
each command) and the SHA-256 of every CSV artifact, for information only.
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

import workloads
from tracing import import_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_CYCLES = {False: 3, True: 2}  # by --trace; a traced cycle is one untraced plus one traced repetition
# the program is single-threaded: one thread per native pool (at most nproc)
# keeps BLAS and OpenMP from contending with it
PINNED_THREADS = {
    var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "setup.numpy_s": "s",
    "setup.scipy_s": "s",
    "setup.bakerlab_s": "s",
    "cli.self_s": "s",
    "cli.commands": "count",
    "cli.bytes_written": "bytes",
    "mapcore.self_s": "s",
    "mapcore.step_arrays_s": "s",
    "mapcore.step_arrays_calls": "count",
    "ensemble.self_s": "s",
    "ensemble.calls": "count",
    "ensemble.member_steps": "count",
    "ensemble.ns_per_member_step": "ns",
    "ensemble.kept_step_ratio": "ratio",
    "ensemble.working_set_bytes": "bytes",
    "markov.dp_s": "s",
    "markov.dp_calls": "count",
    "markov.dp_atoms": "count",
    "markov.dp_state_bytes": "bytes",
    "markov.other_s": "s",
    "fluctuation.self_s": "s",
    "fluctuation.values_binned": "count",
    "fluctuation.admissible_pairs": "count",
    "transport.self_s": "s",
    "transport.member_steps": "count",
    "transport.ns_per_member_step": "ns",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def spawn(argv: list[str], env: dict[str, str], deadline: float) -> tuple[str, str]:
    """Run a child interpreter to completion; (stdout, stderr)."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1:3]} did not finish within the run's time limit") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: never leave the child running
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:4])} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return stdout, stderr


def repetition(workload: str, seed: int, traced: bool, env: dict[str, str], deadline: float) -> dict:
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        flags = ["-X", "importtime"] if traced else []
        argv = [sys.executable, *flags, str(HERE / "worker.py"), workload, str(seed), str(work)]
        spawned_at = time.monotonic()
        stdout, stderr = spawn(argv + [repr(spawned_at), "1" if traced else "0"], env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker printed no result: {stdout[-500:]!r} {stderr[-2000:]!r}")
    record["traced"] = traced
    if traced:
        record["layers"].update(import_times(stderr))
    return record


def environment(record: dict) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = int(size.rstrip("K")) * 1024 if size.endswith("K") else size
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    ws = record["working_set_bytes"]
    l2 = caches.get("L2")
    return {
        **record["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_bytes": caches,
        "working_set_bytes": ws,
        "working_set_over_l2": ws / l2 if isinstance(l2, int) else None,
        "threads": PINNED_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bakerlab" / "cli.py").is_file():
        print(f"run.py: no bakerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    traced_run = bool(args.trace)
    # a terminated run unwinds, so that spawn() stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    started = time.monotonic()
    deadline, limit = started + args.seconds, started + RUN_LIMIT_S
    env = {**os.environ, **PINNED_THREADS}
    reps, cycle_s = [], []
    WORK.mkdir(exist_ok=True)
    try:
        while True:
            t0 = time.monotonic()
            for traced in (False, True) if traced_run else (False,):
                reps.append(repetition(args.workload, args.seed, traced, env, limit))
            cycle_s.append(time.monotonic() - t0)
            next_end = time.monotonic() + statistics.median(cycle_s)
            if next_end > limit or (len(cycle_s) >= MIN_CYCLES[traced_run] and next_end > deadline):
                break
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()

    plain = [r for r in reps if not r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    if traced_run:
        layered = [r for r in reps if r["traced"]]
        for r in layered:
            r["layers"]["trace.wall_s"] = r["wall_s"]
        values = {
            name: statistics.median(r["layers"][name] for r in layered)
            for name in PER_LAYER_UNITS
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
        units = PER_LAYER_UNITS
    else:
        values = {name: statistics.median(r[name] for r in plain) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(reps[0]),
        "error_rate": failed / attempted,
        "failures": sorted({f for r in reps for f in r["failures"]}),
        "repetitions": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "command_s", "peak_rss_mb")} for r in reps],
        "sha256": reps[0]["sha256"],
        "run_s": time.monotonic() - started,
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
