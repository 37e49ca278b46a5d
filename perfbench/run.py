"""permsnake benchmark: end-to-end and per-layer cost of certified codes.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Each command of the workload runs as its own ``python3 -m permsnake.cli``
process, one at a time, in a closed loop with one client.  A run repeats
the workload's command sequence until ``--seconds`` have passed, always
finishing at least one full pass.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass
time), ``peak_rss_mb`` (median over passes of the largest child peak RSS,
from ``os.wait4``) and ``setup_s`` (median time for a fresh interpreter to
import ``permsnake.cli`` and exit, over several starts).

``--trace 1`` first runs one untraced pass, then runs the commands through
``traced_cli.py`` and reports the per-layer metrics (medians over traced
passes) and ``trace.overhead_s``, the traced minus the untraced pass time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a JSON
report with the seed, the environment, per-command times and the checks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_STARTS = 9  # interpreter starts per run; setup_s is their median
RUN_LIMIT_S = 150.0  # start no pass that would end past this
KILL_AFTER_S = 170.0  # a command still running this far into the run is killed

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Command, check_output  # noqa: E402


@dataclass
class Outcome:
    """One finished command: what it cost and whether its output was right."""

    cmd: Command
    wall_s: float
    rss_mb: float
    rc: int
    problems: list[str]
    verdicts: int
    inexact_verdicts: int
    trace: dict | None = None


def run_process(argv: list[str], cwd: Path, env: dict, timeout: float) -> tuple[int, float, float, str]:
    """Run argv to completion: (exit code, wall s, peak RSS MB, stdout)."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout


def _first_line(path: Path) -> str | None:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return fh.readline().rstrip("\n")
    except OSError:
        return None


class Runner:
    def __init__(self, work: Path, env: dict, started: float) -> None:
        self.work = work
        self.env = env
        self.started = started

    def remaining(self) -> float:
        return KILL_AFTER_S - (time.monotonic() - self.started)

    def command(self, cmd: Command, traced: bool) -> Outcome:
        trace_path = self.work / ".trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), *cmd.args]
        else:
            argv = [sys.executable, "-m", "permsnake.cli", *cmd.args]
        rc, wall, rss, stdout = run_process(argv, self.work, self.env, self.remaining())
        header = _first_line(self.work / cmd.out_file) if cmd.out_file else None
        checked = check_output(cmd, rc, stdout, header)
        trace = None
        if traced:
            try:
                trace = json.loads(trace_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                checked.problems.append(f"no trace written: {exc}")
        return Outcome(cmd, wall, rss, rc, checked.problems, checked.verdicts,
                       checked.inexact_verdicts, trace)

    def passes(self, commands: tuple[Command, ...], seconds: float, traced: bool) -> list[list[Outcome]]:
        """Repeat the command sequence until ``seconds`` pass (at least once)."""
        t0 = time.monotonic()
        done: list[list[Outcome]] = []
        while True:
            t_pass = time.monotonic()
            done.append([self.command(c, traced) for c in commands])
            now = time.monotonic()
            if now - t0 >= seconds or now - self.started + (now - t_pass) > RUN_LIMIT_S:
                return done

    def setup_times(self, starts: int) -> list[float]:
        argv = [sys.executable, "-c", "import permsnake.cli"]
        run_process(argv, self.work, self.env, 60.0)  # writes bytecode caches
        times = []
        for _ in range(starts):
            rc, wall, _, _ = run_process(argv, self.work, self.env, 60.0)
            if rc != 0:
                raise RuntimeError(f"importing permsnake.cli failed with exit code {rc}")
            times.append(wall)
        return times


def environment() -> dict:
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev,
    }


def _pass_wall(one: list[Outcome]) -> float:
    return sum(o.wall_s for o in one)


def _median_metrics(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "permsnake" / "cli.py").is_file():
        print(f"error: no permsnake sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])

    env_info = environment()
    import permsnake

    if Path(permsnake.__file__).resolve().parent != (SRC / "permsnake").resolve():
        print(f"error: permsnake imported from {permsnake.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        prepared = workload.prepare(args.seed)
        for name, data in prepared.files.items():
            (work / name).write_bytes(data)
        runner = Runner(work, env, started)
        if args.trace:
            setup = []
            baseline = runner.passes(prepared.commands, 0.0, traced=False)
            runs = runner.passes(prepared.commands, args.seconds, traced=True)
        else:
            setup = runner.setup_times(SETUP_STARTS)
            baseline = []
            runs = runner.passes(prepared.commands, args.seconds, traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    every = [o for one in baseline + runs for o in one]
    failed = [o for o in every if o.problems]
    walls = [_pass_wall(one) for one in runs]
    inexact = statistics.median(sum(o.inexact_verdicts for o in one) for one in runs)
    trace_problems = sorted({p for o in every if o.trace for p in o.trace.get("problems", [])})
    if args.trace:
        per_pass = []
        for one in runs:
            traces = [o.trace for o in one if o.trace is not None]
            total = tracing.sum_metrics([tracing.command_metrics(t) for t in traces])
            per_pass.append(tracing.finish_metrics(total))
        layer = _median_metrics(per_pass)
        layer["trace.overhead_s"] = statistics.median(walls) - _pass_wall(baseline[0])
        metrics = {name: _metric(layer[name], unit) for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(statistics.median(max(o.rss_mb for o in one) for one in runs), "MB"),
            "setup_s": _metric(statistics.median(setup), "s"),
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env_info,
        "passes": len(runs),
        "failed_ops": len(failed) / len(every),
        "inexact_verdicts": inexact,
        "setup_samples_s": setup,
        "pass_walls_s": walls,
        "commands": [
            {
                "command": o.cmd.label,
                "wall_s": statistics.median(one[i].wall_s for one in runs),
                "peak_rss_mb": max(one[i].rss_mb for one in runs),
                "exit_code": o.rc,
                "verdicts": o.verdicts,
                "inexact_verdicts": o.inexact_verdicts,
            }
            for i, o in enumerate(runs[-1])
        ],
        "problems": [f"{o.cmd.label}: {p}" for o in failed for p in o.problems],
        "trace_problems": trace_problems,
    }
    for p in trace_problems:
        print(f"TRACE {p}", file=sys.stderr)
    for o in failed:
        for p in o.problems:
            print(f"FAILED {o.cmd.label}: {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {args.workload} failed_ops = {report['failed_ops']:.6g} share")
    print(f"# {args.workload} inexact_verdicts = {inexact:g} count")
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
