"""Time-to-verdict benchmark for uefiforensics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all``, which runs
every workload in the same run and alternates between them in slices of
ALTERNATE_SLICE_S seconds, so that host drift spreads across workloads.

For each workload the run

1. forges the corpus at the seed SETUP_REPEATS times, each in a fresh
   set-up process (``bench/corpus.py``), and reports the median as setup_s;
2. starts one analyzer process (``bench/worker.py``), which brings each
   dump to a verdict in a closed loop with one client for S seconds and
   checks every verdict against the dump's truth manifest;
3. prints every metric by name and unit, then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
   the end-to-end metrics with ``--trace 0``, the per-layer metrics with
   ``--trace 1``. The metric names and units come from BENCHMARK.json.

It exits 1 when any verdict differs from the truth, when the truth-gate
self-check does not fail every mismatched manifest, or when a traced run
leaves an expected span at zero calls; it exits 2 when the package source
is missing. Each run's full record (host, samples, CPU steal, spans) goes
under ``bench/.work/``.
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
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_REPEATS = 3
ALTERNATE_SLICE_S = 2.0
# A tail needs at least ten samples beyond it; below this many samples it
# would fall under the median, so the maximum is reported instead.
MIN_TAIL_SAMPLES = 20


class BenchError(Exception):
    pass


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, or None if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def set_up(workload: str, seed: int) -> dict:
    """Forge the corpus SETUP_REPEATS times, each in its own process."""
    out = WORK / "corpus" / workload
    runs = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "corpus.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up of {workload} exited {proc.returncode}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    # Flush the kept corpus now, untimed: its writeback would otherwise
    # start about 30 s after the write, in the middle of the measurement.
    for path in out.iterdir():
        with path.open("rb") as fh:
            os.fsync(fh.fileno())
    median = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    return {"dir": out, "runs": runs, **median}


class Worker:
    """One analyzer process and the line protocol to it."""

    def __init__(self, workload: str, corpus_dir: Path, trace: int):
        scratch = WORK / "scratch" / workload
        shutil.rmtree(scratch, ignore_errors=True)
        self.workload = workload
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(corpus_dir), str(scratch), str(trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ready = self._read()["ready"]
        self.samples: list[dict] = []
        self.measured_s = 0.0
        self.steal = self.jiffies = 0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"analyzer for {self.workload} exited {self.proc.wait()}")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def run(self, seconds: float) -> None:
        before, t0 = cpu_jiffies(), time.perf_counter()
        self.samples += self.ask({"run_s": seconds})["samples"]
        self.measured_s += time.perf_counter() - t0
        after = cpu_jiffies()
        if before and after:
            self.steal += after[0] - before[0]
            self.jiffies += after[1] - before[1]

    def stop(self) -> dict:
        summary = self.ask({"stop": True})["summary"]
        self.proc.wait(timeout=60)
        return summary

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(names, seconds: float, trace: int, setups: dict) -> dict:
    workers: dict[str, Worker] = {}
    try:
        for name in names:
            workers[name] = Worker(name, setups[name]["dir"], trace)
        slice_s = seconds if len(names) == 1 else ALTERNATE_SLICE_S
        while any(w.measured_s < seconds for w in workers.values()):
            for w in workers.values():
                if w.measured_s < seconds:
                    w.run(min(slice_s, seconds - w.measured_s))
        return {name: (w, w.stop()) for name, w in workers.items()}
    finally:
        for w in workers.values():
            w.kill()


def evaluate(name: str, worker: Worker, summary: dict, setup: dict, trace: int) -> dict:
    """Metric values and gate outcome of one workload."""
    samples = worker.samples
    failed = sum(1 for s in samples if s["errors"])
    ok_times = [s["s"] for s in samples if not s["errors"] and not s["traced"]]
    if not ok_times:
        raise BenchError(f"{name}: no verdict matched its truth")
    tail_s, tail_pct = tail(ok_times)
    check = summary["self_check"]  # None when the first verdict raised
    values = {
        "verdict_s_p50": statistics.median(ok_times),
        "verdict_s_tail": tail_s,
        "dumps_per_s": len(ok_times) / sum(ok_times),
        "peak_rss_mib": summary["peak_rss_mib"],
        "setup_s": setup["setup_s"],
        "forge.build_s": setup["build_s"],
        "forge.write_s": setup["write_s"],
    }
    notes = {
        "verdict_s_tail": f"p{tail_pct:.1f} of {len(ok_times)} samples",
        "dumps_per_s": f"at {statistics.fmean(worker.ready['dump_bytes']) / 2**20:.1f} MiB"
                       f" mean per dump, {worker.ready['dumps']} dump(s)",
        "setup_s": f"median of {SETUP_REPEATS} set-up processes",
    }
    if trace:
        traced = [s["s"] for s in samples if not s["errors"] and s["traced"]]
        if not traced:
            raise BenchError(f"{name}: no traced verdict matched its truth")
        values.update(summary["layers"])
        values["trace.verdict_s_p50"] = statistics.median(traced)
        values["trace.untraced_verdict_s_p50"] = values["verdict_s_p50"]
        values["trace.overhead_ratio"] = values["trace.verdict_s_p50"] / values["verdict_s_p50"]
        notes["trace.verdict_s_p50"] = (
            f"{len(traced)} traced, {len(ok_times)} untraced; {summary['spans']} spans"
        )
    values["failed_ratio"] = failed / len(samples)
    notes["failed_ratio"] = f"{failed} of {len(samples)} dumps"
    correct = (
        failed == 0
        and check is not None
        and check["failed"] == check["manifests"]
        and not summary.get("missing_spans")
    )
    return {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "values": values,
        "notes": notes,
        "self_check": check,
        "steal_share": worker.steal / worker.jiffies if worker.jiffies else None,
        "summary": summary,
        "samples": samples,
        "setup_runs": setup["runs"],
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "uefiforensics" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]
    names = workloads if args.workload == "all" else (args.workload,)

    try:
        setups = {name: set_up(name, args.seed) for name in names}
        measured = measure(names, args.seconds, args.trace, setups)
        results = {
            name: evaluate(name, worker, summary, setups[name], args.trace)
            for name, (worker, summary) in measured.items()
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    host = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    print(f"host: python {host['python']}, nproc {host['nproc']}, seed {args.seed}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_ratio"] = "ratio"
    metrics = {}
    for name, r in results.items():
        steal = "n/a" if r["steal_share"] is None else f"{100 * r['steal_share']:.2f} %"
        check = r["self_check"]
        outcome = "not run" if check is None else (
            f"{check['failed']} of {check['manifests']} mismatched truth manifests failed"
            f" (failed_ratio {check['failed'] / check['manifests']:.1f})"
        )
        print(f"[{name}] CPU steal over the run: {steal}; self-check: {outcome}")
        missing = r["summary"].get("missing_spans")
        if missing:
            print(f"[{name}] expected spans with zero calls: {', '.join(missing)}")
        for metric in [m["name"] for m in listed] + ["failed_ratio"]:
            note = r["notes"].get(metric)
            print(f"  {metric:<36} {r['values'][metric]:<14.6g} {units[metric]}"
                  + (f"  ({note})" if note else ""))
        prefix = "" if len(results) == 1 else f"{name}/"
        for m in listed:
            metrics[prefix + m["name"]] = {"value": r["values"][m["name"]], "unit": m["unit"]}

    record_dir = WORK / "results"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {"host": host, "args": vars(args), "results": results}
    record_path = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
