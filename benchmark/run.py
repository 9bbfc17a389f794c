"""driftsched benchmark: run one workload from one seed and print its metrics.

    python3 benchmark/run.py --workload td_chain --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations through
``driftsched.cli.main`` in this process, as many as fit in ``--seconds``,
checks every output, and prints as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, the round times
divided by the host slowdown that ``hostprobe.py`` samples all through
each round; with ``--trace 1`` rounds alternate between untraced and
traced and the metrics are the per-layer ones from ``tracer.py``. The
line before it is a JSON record of the machine, the versions and the
SHA-256 of every output file.
Everything the run writes goes to ``.bench_work/`` in the checkout and
is removed at exit.
"""

from __future__ import annotations

import os

# one thread for BLAS and OpenMP, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HELPER = os.path.join(HERE, "helper.py")
N_SETUPS = 9
HELD_OUT_SEED = 4242  # never run while the bounds were set; kept for checking claims


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, HELPER, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)


def time_setups(workload: str, seed: int) -> list:
    """One record per set-up: seconds from spawning a fresh interpreter to
    its exit ("wall_s"), and the host probe's record from inside it."""
    setups = []
    for _ in range(N_SETUPS):
        start = time.perf_counter()
        proc = child("setup", ROOT, workload, str(seed))
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        setups.append({"wall_s": wall, "probe": json.loads(proc.stdout.splitlines()[-1])})
    return setups


def build_reference(workload: str, seed: int, work_dir: str) -> dict:
    path = os.path.join(work_dir, "reference.json")
    proc = child("reference", ROOT, workload, str(seed), path)
    if proc.returncode == 3:
        raise SystemExit(f"{workload}: {proc.stderr.strip()}")
    if proc.returncode != 0:
        raise RuntimeError(f"reference failed: {proc.stderr.strip()}")
    with open(path) as fh:
        return json.load(fh)


def run_round(cli, argv: list, tracer=None, probe=None):
    """One timed call of the CLI, probed for host speed when `probe` is
    given; returns (wall seconds, exit code, stdout, probe record)."""
    buf = io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.install()
    section = None
    try:
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            if probe is not None:
                probe.start()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the round's operations all count as failed
                traceback.print_exc()
                code = 1
            finally:
                if probe is not None:
                    section = probe.stop()
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, code, buf.getvalue(), section


def git_commit():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    import driftsched

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "driftsched": driftsched.__version__,
        "git_commit": git_commit(),
        "held_out_seed": HELD_OUT_SEED,
    }


def measure(w, cli, work_dir: str, ref: dict, deadline: float, trace: bool, probe):
    """Whole rounds that end by `deadline` (a perf_counter time), and at
    least two, so that a median never rests on one round; in trace mode
    they alternate untraced, traced, untraced, ... Without tracing the
    host probe samples every round."""
    from tracer import Tracer

    out_dir = os.path.join(work_dir, "out")
    rounds, problems = [], []
    while True:
        traced = trace and len(rounds) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        tracer = Tracer() if traced else None
        wall, code, stdout, section = run_round(cli, w.argv(work_dir, out_dir),
                                                tracer, probe)
        out = w.collect(code, stdout, out_dir)
        if not rounds:
            problems += w.check(stdout, out_dir, ref)
        elif out.failed == 0 and rounds[0]["failed"] == 0 \
                and out.hashes != rounds[0]["hashes"]:
            problems.append(f"round {len(rounds) + 1} wrote other bytes than round 1")
        rounds.append({"traced": traced, "wall_s": wall, "exit_code": code,
                       "failed": out.failed, "elementary": out.elementary,
                       "hashes": out.hashes, "probe": section,
                       "layers": tracer.metrics() if tracer else None})
        if tracer is not None and tracer.missing:
            print(f"not traced (absent): {tracer.missing}", file=sys.stderr)
        # stop once the next round, as long as the median one so far,
        # would end past the measuring window
        typical = statistics.median(r["wall_s"] for r in rounds)
        if time.perf_counter() + typical > deadline and len(rounds) >= 2:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    return rounds, problems


def host_corrected(section: dict) -> float:
    """A section's time less the time spent in the probe, divided by the
    slowdown the probe saw during it."""
    return (section["wall_s"] - section["probe"]["spent_s"]) / section["probe"]["slowdown"]


def end_to_end(rounds: list, setups: list) -> dict:
    """Medians over the run of host-corrected set-ups and rounds."""
    walls = [host_corrected(r) for r in rounds]
    rates = [r["elementary"] / wall for r, wall in zip(rounds, walls)]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median([host_corrected(s) for s in setups]), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "rounds_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }


def per_layer(rounds: list, problems: list) -> dict:
    from tracer import metric_units

    units = metric_units()
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    first = traced[0]["layers"]
    metrics = {}
    for name, unit in units.items():
        if unit == "s":
            value = statistics.median(r["layers"][name] for r in traced)
        else:
            value = first[name]
            if any(r["layers"][name] != value for r in traced):
                problems.append(f"{name} differs between traced rounds")
        metrics[name] = {"value": value, "unit": unit}
    wall_plain = statistics.median(r["wall_s"] for r in plain)
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    metrics["bench.wall_untraced_s"] = {"value": wall_plain, "unit": "s"}
    metrics["bench.wall_traced_s"] = {"value": wall_traced, "unit": "s"}
    metrics["bench.trace_overhead_s"] = {"value": wall_traced - wall_plain, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "driftsched", "__init__.py")):
        print(f"no driftsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from hostprobe import ArrayProbe
    from workloads import WORKLOADS

    # the measuring window holds the set-up timings and the rounds
    deadline = time.perf_counter() + args.seconds
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    probe = None if args.trace else ArrayProbe()
    setups = []
    try:
        if probe is not None:
            setups = time_setups(args.workload, args.seed)
        ref = build_reference(args.workload, args.seed, work_dir)
        import driftsched
        from driftsched import cli

        if not os.path.abspath(driftsched.__file__).startswith(SRC + os.sep):
            print(f"driftsched imported from {driftsched.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        w = WORKLOADS[args.workload](args.seed)
        w.prepare(work_dir)
        rounds, problems = measure(w, cli, work_dir, ref, deadline, bool(args.trace), probe)
        metrics = (per_layer(rounds, problems) if args.trace
                   else end_to_end(rounds, setups))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **provenance(),
        "setup_s": setups,
        "rounds": [{k: r.get(k) for k in ("traced", "wall_s", "probe", "exit_code", "failed")}
                   for r in rounds],
        "sha256": rounds[0]["hashes"],
        "problems": problems,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": w.ops_per_round * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
