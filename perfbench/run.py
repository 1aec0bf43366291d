"""Benchmark of the ellstab CLI: end-to-end metrics, and per-layer ones from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload per_curve --seed 20240101 --seconds 55 --trace 0

With ``--trace 0`` it runs the workload's command sequence (see
workloads.py) over and over, one child process at a time (a closed loop with
one client): at least three sequences, and more while the next one is
expected to end within ``--seconds`` seconds.  It reports:

- ``wall_s``: wall time of one command sequence, as the sum over its
  commands of each command's median wall time in the run;
- ``cpu_s``: user plus system CPU time of its child processes, summed the
  same way;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of any child process in the run;
- ``setup_s``: interpreter start plus ``import ellstab.cli``, the median of
  three spawns before each sequence.

With ``--trace 1`` it runs every workload once as child processes (for the
``cli.<subcommand>_s`` metrics), then replays the same argv in-process
through ``ellstab.cli.main`` with spans around the package's public
functions, then runs the layer probes and oracle cross-checks (inprocess.py).
It covers every workload whatever ``--workload`` names, so one traced run
gives every per-layer metric.  ``--seconds`` does not apply to it.  Spans go
to ``.perfbench_out/``.

Every command's stdout is checked: exit status 0, no traceback, and the
sha256 in golden.json.  The ``sieve`` output depends on the seed; away from
the default seed its seed-independent columns are checked against
golden.json, its full output must repeat exactly within a run, and in the
traced run it must equal the in-process replay byte for byte.  The
``stability`` summary on stderr depends on the seeded rank CSV and is
checked the same way (digest at the default seed, repeat within a run,
replay equality).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it records the run context.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads as wl
from workloads import Command, Inputs

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
OUT_DIR = Path(".perfbench_out")

MIN_SEQUENCES = 3
SETUP_REPEATS = 9  # bare imports before a traced run
SETUP_PER_SEQUENCE = 3
CHILD_TIMEOUT_S = 120
TRACEBACK = b"Traceback (most recent call last)"


@dataclass
class Invocation:
    cmd: Command
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    stdout: bytes
    stderr: bytes
    problem: str | None = None


def spawn(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path):
    """Run one child to completion; (wall_s, cpu_s, maxrss_kb, exit_code) from its own rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, proc.returncode


def run_command(cmd: Command, env: dict, tmp: Path) -> Invocation:
    out, err = tmp / "stdout", tmp / "stderr"
    wall, cpu, rss, code = spawn([sys.executable, "-m", "ellstab.cli", *cmd.argv], env, out, err)
    return Invocation(cmd, wall, cpu, rss, code, out.read_bytes(), err.read_bytes())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Decides whether one invocation's output is correct."""

    def __init__(self, golden: dict, seed: int):
        self.golden = golden
        self.at_default_seed = seed == golden["seed"]
        self.first_stdout: dict[str, bytes] = {}
        self.first_stderr: dict[str, bytes] = {}

    def problem(self, inv: Invocation) -> str | None:
        cmd = inv.cmd
        if inv.exit_code != 0:
            return f"exit status {inv.exit_code}"
        if TRACEBACK in inv.stderr:
            return "traceback on stderr"
        if not cmd.seeded or self.at_default_seed:
            if sha256(inv.stdout) != self.golden["stdout_sha256"][cmd.key]:
                return "stdout differs from the golden digest"
        if cmd.seeded:
            fixed = sha256(wl.seed_independent(cmd, inv.stdout))
            if fixed != self.golden["seed_independent_sha256"][cmd.key]:
                return "seed-independent stdout differs from the golden digest"
            first = self.first_stdout.setdefault(cmd.key, inv.stdout)
            if inv.stdout != first:
                return "stdout differs between repetitions of the same seed"
        if cmd.check_stderr:
            if self.at_default_seed and sha256(inv.stderr) != self.golden["stderr_sha256"][cmd.key]:
                return "stderr differs from the golden digest"
            first = self.first_stderr.setdefault(cmd.key, inv.stderr)
            if inv.stderr != first:
                return "stderr differs between repetitions of the same seed"
        return None

    def check(self, inv: Invocation) -> Invocation:
        inv.problem = self.problem(inv)
        return inv


def failed_fraction(invocations: list[Invocation]) -> float:
    return sum(inv.problem is not None for inv in invocations) / len(invocations)


def run_sequence(cmds: list[Command], env: dict, tmp: Path, checker: Checker) -> list[Invocation]:
    invs = [run_command(cmd, env, tmp) for cmd in cmds]
    return [checker.check(inv) for inv in invs]


def measure(cmds, env, tmp, checker, seconds: float, setup: list[float]) -> list[list[Invocation]]:
    """Closed loop: whole sequences back to back, at least MIN_SEQUENCES of them,
    and more only while the next one is expected to end within ``seconds``.

    Before each sequence it spawns SETUP_PER_SEQUENCE bare imports into
    ``setup``, so set-up time is sampled across the whole run.
    """
    seqs = []
    t0 = time.perf_counter()
    while True:
        setup.extend(setup_times(env, tmp, SETUP_PER_SEQUENCE))
        seqs.append(run_sequence(cmds, env, tmp, checker))
        elapsed = time.perf_counter() - t0
        if len(seqs) >= MIN_SEQUENCES and elapsed * (len(seqs) + 1) / len(seqs) > seconds:
            return seqs


def sum_of_medians(seqs: list[list[Invocation]], attr: str) -> float:
    """A sequence's typical total: each command's median repetition, summed.

    On a 2-vCPU VM shared with other tenants, the CPU's speed drifts by up
    to 1.6x, in phases from under a second to several minutes; CPU time
    drifts with it.  A run of about a minute holds three sequences, and a
    single fast one moves a per-command minimum a long way: over ten
    back-to-back per_curve runs that crossed a slow-to-fast phase change, the
    run-to-run spread (IQR/median) was 0.26 with per-command minima and 0.20
    with medians; in a calm stretch both were about 0.07.  Timing a reference
    loop, between commands or on the other vCPU during them, and dividing by
    it made the spread worse, not better, so the times are reported as
    measured.
    """
    return sum(statistics.median(getattr(seq[i], attr) for seq in seqs) for i in range(len(seqs[0])))


# -- set-up ----------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_program(root: Path, env: dict) -> None:
    """Exit 2 unless the checkout's own src/ellstab is what a child imports."""
    if not (root / "src" / "ellstab" / "cli.py").is_file():
        sys.exit("perfbench: src/ellstab/cli.py not found; run from the root of an ellstab checkout")
    probe = subprocess.run(
        [sys.executable, "-c", "import ellstab.cli, ellstab; print(ellstab.__file__)"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if probe.returncode != 0:
        sys.exit(f"perfbench: cannot import ellstab.cli:\n{probe.stderr}")
    where = Path(probe.stdout.strip()).resolve()
    if (root / "src") not in where.parents:
        sys.exit(f"perfbench: ellstab imports from {where}, not from this checkout")


def setup_times(env: dict, tmp: Path, repeats: int) -> list[float]:
    argv = [sys.executable, "-c", "import ellstab.cli"]
    times = []
    for _ in range(repeats):
        wall, _, _, code = spawn(argv, env, tmp / "stdout", tmp / "stderr")
        if code != 0:
            sys.exit("perfbench: import ellstab.cli failed during set-up")
        times.append(wall)
    return times


def make_inputs(seed: int, tmp: Path) -> Inputs:
    ranks = wl.write_rank_csv(seed, tmp / "ranks.csv")
    return Inputs(seed, tmp / "ranks.csv", tmp / "traces.etrc", ranks)


def run_context(root: Path, args) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = rev.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "peak_rss_source": "largest ru_maxrss of the child processes, each from os.wait4",
        "sandbox": "no page-cache dropping and no CPU pinning are possible; runs share 2 cores "
                   "with whatever else the machine runs",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- modes -----------------------------------------------------------------


def untraced(args, env, tmp, checker, inp):
    cmds = wl.WORKLOADS[args.workload](inp)
    setup: list[float] = []
    seqs = measure(cmds, env, tmp, checker, args.seconds, setup)
    invs = [inv for seq in seqs for inv in seq]
    metrics = {
        "wall_s": metric(sum_of_medians(seqs, "wall_s"), "s"),
        "cpu_s": metric(sum_of_medians(seqs, "cpu_s"), "s"),
        "peak_rss_mb": metric(max(i.maxrss_kb for i in invs) / 1024, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    info = {
        "sequence_wall_s": [round(sum(i.wall_s for i in seq), 4) for seq in seqs],
        "command_wall_s": {c.key: [round(seq[i].wall_s, 4) for seq in seqs]
                           for i, c in enumerate(cmds)},
        "setup_samples": len(setup),
        "failed_frac": failed_fraction(invs),
    }
    return invs, {}, metrics, info


def traced(args, env, tmp, checker, inp):
    setup = setup_times(env, tmp, SETUP_REPEATS)
    # every child runs before this process imports numpy and ellstab, so
    # its ru_maxrss cannot include a large parent image
    cli_invs = {name: run_sequence(make(inp), env, tmp, checker) for name, make in wl.WORKLOADS.items()}
    import inprocess

    run_id = uuid.uuid4().hex[:12]
    result = inprocess.traced_run(run_id, inp, cli_invs, statistics.median(setup))
    invs = [inv for seq in cli_invs.values() for inv in seq]
    OUT_DIR.mkdir(exist_ok=True)
    result.tracer.write_jsonl(OUT_DIR / f"spans-{run_id}.jsonl")
    per_cli: dict[str, float] = {}
    for inv in invs:
        per_cli[inv.cmd.sub] = per_cli.get(inv.cmd.sub, 0.0) + inv.wall_s
    metrics = {f"cli.{sub}_s": metric(v, "s") for sub, v in sorted(per_cli.items())}
    metrics.update(result.metrics)
    info = {"run_id": run_id, "failed_frac": failed_fraction(invs)}
    return invs, result.checks, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    env = child_env(root)
    check_program(root, env)
    golden = json.loads(GOLDEN_PATH.read_text())
    checker = Checker(golden, args.seed)

    tmp = root / f".perfbench-tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        inp = make_inputs(args.seed, tmp)
        mode = traced if args.trace else untraced
        invs, checks, metrics, info = mode(args, env, tmp, checker, inp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for inv in invs:
        if inv.problem:
            print(f"FAILED {inv.cmd.key}: {inv.problem}", file=sys.stderr)
    for name, ok in checks.items():
        if not ok:
            print(f"FAILED check: {name}", file=sys.stderr)
    failed = sum(inv.problem is not None for inv in invs) + sum(not ok for ok in checks.values())
    attempted = len(invs) + len(checks)
    context = run_context(root, args)
    context.update(info)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
