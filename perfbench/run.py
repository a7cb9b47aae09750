"""Benchmark of the ``nlprob`` CLI, end to end and layer by layer.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

A run starts one fresh worker interpreter that calls ``nlprob.cli.main`` in
a closed loop for ``--seconds`` and times set-up (fresh interpreters
importing ``nlprob.cli``) between repetitions (see ``worker.py``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit, the
machine facts and the seed.

``--workload all`` runs every workload in turn and prints their metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

IMPORTTIME_SAMPLES = 5
RUN_LIMIT_S = 170.0        # a run must end within 180 s
# at most two threads: the CLI's --jobs 2 pool, and no BLAS threads beside it
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

IMPORTS = "import sys; sys.path.insert(0, sys.argv[1]); import numpy; import nlprob.cli"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def import_seconds(src: Path) -> dict[str, float]:
    """Median cumulative import time of numpy and of nlprob (without numpy)."""
    numpy_s, nlprob_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               IMPORTS, str(src)], capture_output=True,
                              text=True, env=child_env(), timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr[-500:]}")
        top = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            # top-level modules carry no indentation in the last column
            if len(parts) == 3 and parts[2][1:2] != " " and parts[1].strip().isdigit():
                top[parts[2].strip()] = int(parts[1]) / 1e6
        numpy_s.append(top.get("numpy", 0.0))
        nlprob_s.append(sum(v for k, v in top.items()
                            if k == "nlprob" or k.startswith("nlprob.")))
    return {"setup.import_numpy_s": statistics.median(numpy_s),
            "setup.import_nlprob_s": statistics.median(nlprob_s)}


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine is now.

    Recorded beside the results, never used to adjust them; on a shared
    host it tells a slow period from a slow commit.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def machine_facts() -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "speed_probe_s": speed_probe(),
    }


def run_worker(args, src: Path, work: Path, budget: float) -> dict:
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(src), "--work", str(work), "--result", str(result)]
    # its own session, so a timeout also ends the interpreters it spawns
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded {budget:.0f} s")
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"worker exited {proc.returncode}: {err[-2000:]}")
    return json.loads(result.read_text())


def end_to_end(worker: dict) -> dict:
    """{name: (value, unit)} of the end-to-end metrics."""
    return {
        "setup_s": (statistics.median(worker["setup_s"]), "s"),
        # the fastest repetition, not the median: on a shared host the
        # machine's speed shifts for seconds to minutes at a time, and the
        # median follows the share of slow time in the run (see README.md)
        "wall_s": (min(worker["wall_s"]), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        # 1 - failed_frac: an end-to-end metric must never be 0
        "ok_frac": (1.0 - worker["failed"] / worker["attempted"], "fraction"),
    }


def per_layer(worker: dict, imports: dict) -> dict:
    """{name: (value, unit)} of the per-layer metrics."""
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in {**worker["trace"], **imports}.items()}
    metrics["cli.bytes_written"] = (worker["bytes_written"], "bytes")
    return metrics


def run_workload(args, root: Path) -> dict:
    started = time.perf_counter()
    src = root / "src"
    if not (src / "nlprob" / "cli.py").is_file():
        raise BenchError(f"no nlprob sources under {src}; run from a checkout root")
    facts = machine_facts()
    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        imports = import_seconds(src) if args.trace else {}
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        worker = run_worker(args, src, work, budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = per_layer(worker, imports) if args.trace else end_to_end(worker)
    facts["numpy"] = worker["numpy"]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": facts, "calls_per_rep": worker["calls_per_rep"],
        "reps": worker["reps"], "setup_s_samples": worker["setup_s"],
        "wall_s_samples": worker["wall_s"],
        "wall_jobs2_s_samples": worker["wall_jobs2_s"],
        "failed_frac": worker["failed"] / worker["attempted"],
        "incorrect": worker["incorrect"],
        "unreferenced": worker["unreferenced"],
        "problems": worker["problems"],
    }
    return {
        "details": details,
        "result": {
            "correct": worker["incorrect"] == 0,
            "attempted": worker["attempted"],
            "failed": worker["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def print_table(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:12s} {name:45s} {m['value']:>16.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            out = run_workload(one, Path.cwd())
            print(json.dumps(out["details"]))
            print_table(name, out["result"])
            results[name] = out["result"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
