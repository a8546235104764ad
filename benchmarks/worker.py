"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition:

    python3 benchmarks/worker.py WORKLOAD SEED WORKDIR SPAWNED_AT TRACE

It imports ``bakerlab.cli`` from the checkout's ``src`` before anything
else (``setup_s`` runs from SPAWNED_AT, the parent's monotonic clock just
before the spawn, to the end of that import), runs the workload's commands
in-process through ``bakerlab.cli.main`` with artifacts below WORKDIR, then
checks them outside the timed region.  With TRACE = 1 the commands run under
the span tracer.  The last line of stdout is one JSON record.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import bakerlab.cli  # noqa: E402  (first import: it ends the setup interval)

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_command(argv: list[str]) -> tuple[object, str, str]:
    """(exit code or crash reason, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = bakerlab.cli.main(argv)  # looked up per call, so the tracer's wrapper is used
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing command is a failed command, not a failed benchmark
            code = "raised " + traceback.format_exception_only(exc)[-1].strip()
    return code, out.getvalue(), err.getvalue()


def check(command: workloads.Command, code, stdout: str, stderr: str) -> str | None:
    if code != 0:
        return f"exit {code}: {stderr.strip()[-300:]}"
    try:
        return command.check(stdout)
    except Exception as exc:  # a check that cannot read its artifact fails the command
        return "check raised " + traceback.format_exception_only(exc)[-1].strip()


def main() -> int:
    workload, seed, workdir, spawned_at, trace = sys.argv[1:6]
    src = Path(ROOT, "src").resolve()
    if Path(bakerlab.cli.__file__).resolve().parents[1] != src:
        print(f"worker: bakerlab was imported from {bakerlab.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = Path(workdir)
    cmds = workloads.commands(workload, int(seed), work)
    tracer = tracing.Tracer() if trace == "1" else None

    with tracer.installed() if tracer else contextlib.nullcontext():
        outcomes, command_s = [], []
        start = time.perf_counter()
        for cmd in cmds:
            t0 = time.perf_counter()
            outcomes.append(run_command([str(a) for a in cmd.argv]))
            command_s.append(time.perf_counter() - t0)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for cmd, (code, stdout, stderr) in zip(cmds, outcomes):
        reason = check(cmd, code, stdout, stderr)
        if reason is not None:
            failures.append(f"{' '.join(map(str, cmd.argv[:3]))}: {reason}")
    files = sorted(p for p in work.rglob("*") if p.is_file())
    record = {
        "setup_s": IMPORTED_AT - float(spawned_at),
        "wall_s": wall_s,
        "command_s": command_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(cmds),
        "failures": failures,
        "sha256": {
            str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files
            if p.suffix == ".csv"
        },
        "working_set_bytes": workloads.working_set_bytes(workload),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "bakerlab": bakerlab.__version__,
        },
    }
    if tracer:
        record["layers"] = tracer.metrics() | {"cli.bytes_written": sum(p.stat().st_size for p in files)}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
