"""End-to-end benchmark of the twoclosure CLI.

Run from the root of a twoclosure checkout:

    python3 perfbench/run.py --workload classify-lattice --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every invocation is a fresh ``python -m twoclosure``
process, one at a time, as a user runs it; the batch of invocations repeats
while the next one still fits in ``--seconds``.  With ``--trace 1`` the same
invocations run in this process through ``cli.main``, once untraced and once
with spans and counts, and the per-layer numbers are reported.  Every answer
is checked by `oracle.check`.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import spans  # noqa: E402
from launcher import Launcher  # noqa: E402
from workloads import WORKLOADS, Invocation, Workload, build_workload, write_specs  # noqa: E402

SETUPS = 3
# A hung invocation is killed after this long and counts as failed.
INVOCATION_TIMEOUT_S = 120.0
# Stop starting work this long after launch, so a run ends within 180 s.
RUN_DEADLINE_S = 170.0


@dataclass
class Outcome:
    wall: float
    cpu: float
    maxrss_kb: int
    problems: list[str]


def set_up(workload: str, seed: int, root: Path, directory: Path) -> tuple[Workload, dict, float]:
    """Generate the inputs and make one warm-up call.

    The warm-up compiles every module the CLI imports into a fresh bytecode
    cache, which the timed calls then read, so each set-up pays the whole
    compile and no timed call does.
    """
    started = time.perf_counter()
    work = build_workload(workload, seed)
    directory.mkdir()
    write_specs(work, directory)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=str(directory / "pycache"))
    subprocess.run(
        [sys.executable, "-m", "twoclosure", "catalog", "--list"],
        cwd=directory, env=env, stdout=subprocess.DEVNULL, check=True, timeout=INVOCATION_TIMEOUT_S,
    )
    return work, env, time.perf_counter() - started


def invoke(launcher: Launcher, inv: Invocation, directory: Path, env: dict, timeout: float) -> Outcome:
    """One fresh CLI process, checked by the oracle."""
    out_path = directory / "stdout.json"
    usage = launcher.run([sys.executable, "-m", "twoclosure", *inv.args], directory, env, timeout, out_path)
    if usage["timed_out"]:
        problems = [f"timed out after {timeout:.0f} s"]
    else:
        problems = oracle.check(inv, usage["returncode"], out_path.read_text())
    return Outcome(usage["wall"], usage["cpu"], usage["maxrss_kb"], problems)


def run_untraced(args, root: Path, scratch: Path, launcher: Launcher) -> dict:
    launched = time.perf_counter()
    setups = [set_up(args.workload, args.seed, root, scratch / f"setup{i}") for i in range(SETUPS)]
    work, env, _ = setups[-1]
    directory = scratch / f"setup{SETUPS - 1}"

    batches: list[dict[str, Outcome]] = []
    measuring = time.perf_counter()
    while True:
        batch = {}
        for inv in work.invocations:
            remaining = RUN_DEADLINE_S - (time.perf_counter() - launched)
            batch[inv.name] = invoke(launcher, inv, directory, env, max(1.0, min(INVOCATION_TIMEOUT_S, remaining)))
        batches.append(batch)
        batch_wall = sum(o.wall for o in batch.values())
        elapsed = time.perf_counter() - measuring
        if elapsed + batch_wall > args.seconds or time.perf_counter() - launched + batch_wall > RUN_DEADLINE_S:
            break

    attempted = failed = 0
    for number, batch in enumerate(batches):
        for name, outcome in batch.items():
            attempted += 1
            if outcome.problems:
                failed += 1
                print(f"FAIL batch {number} {name}: {'; '.join(outcome.problems)}", file=sys.stderr)
        print(f"batch {number}: " + " ".join(f"{n}={o.wall:.3f}s" for n, o in batch.items()))
    print(f"{args.workload}: {len(batches)} batches, error_rate {failed}/{attempted}")
    metrics = {
        "setup_s": (statistics.median(s[2] for s in setups), "s"),
        "wall_s": (statistics.median(sum(o.wall for o in b.values()) for b in batches), "s"),
        "cpu_s": (statistics.median(sum(o.cpu for o in b.values()) for b in batches), "s"),
        "largest_s": (statistics.median(b[work.largest].wall for b in batches), "s"),
        "peak_rss_mb": (statistics.median(max(o.maxrss_kb for o in b.values()) / 1024 for b in batches), "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run_in_process(work: Workload, directory: Path) -> tuple[float, int]:
    """Every invocation through cli.main in this process; (wall seconds, failures)."""
    from twoclosure import cli

    wall = 0.0
    failed = 0
    for inv in work.invocations:
        stdout = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.chdir(directory):
                code = cli.main(list(inv.args))
        except Exception as exc:  # a defect in the program is a failed call, not a crash here
            code = f"raised {exc!r}"
        wall += time.perf_counter() - started
        problems = oracle.check(inv, code, stdout.getvalue())
        if problems:
            failed += 1
            print(f"FAIL {inv.name}: {'; '.join(problems)}", file=sys.stderr)
    return wall, failed


def run_traced(args, root: Path, scratch: Path) -> dict:
    work = build_workload(args.workload, args.seed)
    directory = scratch / "specs"
    directory.mkdir()
    write_specs(work, directory)
    sys.path.insert(0, str(root / "src"))

    untraced_wall, untraced_failed = run_in_process(work, directory)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_wall, traced_failed = run_in_process(work, directory)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    print(f"{args.workload}: traced {traced_wall:.3f}s, untraced {untraced_wall:.3f}s in process")
    return {
        "attempted": 2 * len(work.invocations),
        "failed": untraced_failed + traced_failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "twoclosure" / "__main__.py").is_file():
        print(f"error: {root} is not a twoclosure checkout (no src/twoclosure)", file=sys.stderr)
        return 2
    (root / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=root / ".perfbench"))
    try:
        if args.trace:
            result = run_traced(args, root, scratch)
        else:
            with Launcher() as launcher:
                result = run_untraced(args, root, scratch, launcher)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
