"""``python -m bench.run`` — the benchmark of record's one command.

Two modes:

* ``--workload NAME [--seed N] [--seconds S] [--trace 0|1]`` runs one workload
  in this process and prints, as the **last line** of standard output, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
  end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1``.  This is what ``BENCHMARK.json``'s ``command`` invokes.
* without ``--workload`` it runs every workload, untraced then traced, each in
  its own fresh subprocess, one after the other, prints every metric by name
  with its unit and writes the whole record (noise fingerprint included) to
  ``--out``.

Exit code 0 when every correctness check passed, 1 when one failed, 2 when
the program under test (``src/repro``) is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: Pinned before NumPy is imported, so there is never more than one busy
#: thread: the reference box has two cores and one belongs to the neighbours.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT_DIR = ROOT / "bench" / "out"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench.run", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of measurement per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced pass and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the run's full record to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (what bench/test_bench_smoke.py runs)")
    return parser


def declared() -> dict:
    """``BENCHMARK.json``: the declared names, units, bounds and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fingerprint() -> dict:
    """What a reader needs to judge whether two records are comparable."""
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"   # the driver's checkout is not a git repository
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def _warn_if_loaded() -> None:
    load, cores = os.getloadavg()[0], os.cpu_count() or 1
    if load > cores - 0.5:
        print(f"warning: 1-minute load average {load:.2f} exceeds nproc - 0.5 "
              f"({cores - 0.5}); expect noisy numbers", file=sys.stderr)


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        if not metric["value"]:
            continue   # a layer this workload never enters
        per_pass = metric.get("per_pass")
        detail = ""
        if per_pass:
            detail = "   per pass: " + " ".join(f"{value:.6g}" for value in per_pass)
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']:6s}{detail}")


def _print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  passes={record['passes']}  "
          f"samples/pass={record['samples_per_pass']}  "
          f"load {record['loadavg_start']:.2f}->{record['loadavg_end']:.2f}")
    _print_metrics("end to end:", record["end_to_end"])
    for name, metric in record["extra"].items():
        print(f"  {name:44s} {metric['value']:14.6g}")
    print(f"  {'failed_fraction':44s} {record['failed_fraction']:14.6g} ratio  "
          f"({record['failed']} of {record['attempted']}; "
          f"{record['oracle_sampled']} answers re-derived)")
    if "per_layer" in record:
        _print_metrics("per layer (traced pass):", record["per_layer"])
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")


def _final_line(record: dict) -> str:
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()},
    })


#: Fresh interpreters that do nothing but import the program and the harness;
#: with this process's own import they give three samples of the import time,
#: whose median goes into ``setup_s``.  One sample swings 0.9-1.5 s on a busy box.
IMPORT_SAMPLES_IN_CHILDREN = 2
_IMPORT_PROBE = ("import time; start = time.perf_counter(); import bench.session; "
                 "print(time.perf_counter() - start)")


def _import_seconds_in_child() -> float:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), environment.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=environment,
                           capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout)


def _run_one(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    from bench.session import run_workload
    from bench.workloads import WORKLOADS

    import_samples = [time.perf_counter() - started]
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    _warn_if_loaded()
    import_samples += [_import_seconds_in_child() for _ in range(IMPORT_SAMPLES_IN_CHILDREN)]
    seconds = args.seconds if args.seconds is not None else declared()["run_seconds"]
    record = run_workload(args.workload, seed=args.seed, seconds=seconds,
                          trace=bool(args.trace), scale="smoke" if args.smoke else "full",
                          out_dir=DEFAULT_OUT_DIR, import_samples=import_samples)
    record["fingerprint"] = fingerprint()
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1))
    _print_record(record)
    print(_final_line(record))
    return 0 if record["correct"] else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh subprocess."""
    names = [workload["name"] for workload in declared()["workloads"]]
    DEFAULT_OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"seed": args.seed, "workloads": {}}
    exit_code = 0
    for name in names:
        merged: Optional[dict] = None
        for trace in (0, 1):
            part = DEFAULT_OUT_DIR / f"part_{os.getpid()}_{name}_{trace}.json"
            command = [sys.executable, "-m", "bench.run", "--workload", name,
                       "--seed", str(args.seed), "--trace", str(trace), "--out", str(part)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
            exit_code = max(exit_code, completed.returncode)
            if not part.exists():
                print(f"{name} (trace {trace}) produced no record", file=sys.stderr)
                continue
            run = json.loads(part.read_text())
            part.unlink()
            if merged is None:
                merged = run
            else:   # the traced run contributes the per-layer half
                merged["per_layer"] = run["per_layer"]
                merged["correct"] = merged["correct"] and run["correct"]
                merged["problems"] += run["problems"]
                merged["traced_run"] = {key: run[key] for key in
                                        ("attempted", "failed", "passes", "loadavg_start",
                                         "loadavg_end")}
        if merged is not None:
            record.setdefault("fingerprint", merged.pop("fingerprint"))
            record["workloads"][name] = merged
            _print_record(merged)
    out = args.out if args.out is not None else DEFAULT_OUT_DIR / f"record_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"record written to {out}")
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"nothing to measure: {source / 'repro'} does not exist", file=sys.stderr)
        return 2
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    return _run_one(args) if args.workload is not None else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
