"""Analyzer process of the benchmark: brings forged dumps to a verdict.

Usage: python3 bench/worker.py CORPUS_DIR SCRATCH_DIR TRACE

It speaks one JSON object per line with ``bench/run.py``:

- on start it loads the corpus manifest and answers ``{"ready": ...}``;
- ``{"run_s": S}`` runs verdicts over the corpus in order, at least one,
  until S seconds have passed, and answers with their samples. After the
  first verdict, untimed, the truth gate is fed deliberately mismatched
  manifests (the self-check), each of which it must fail;
- ``{"stop": true}`` answers with its peak RSS (and, when TRACE is 1, the
  per-layer metrics), then exits.

With TRACE 1 each dump is run twice in a row, untraced then traced, so
the traced run also yields the untraced times its overhead is taken
against. Only this process analyzes, so its peak RSS is the analyzer's.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uefiforensics import dump_model, report  # noqa: E402

from spans import CARVE_SPAN, Tracer  # noqa: E402

MAX_DEPTH = report.AnalysisOptions().max_depth


def timed_verdict(entry: dict, carve_dir: Path | None):
    """The user path, timed: load, analyze (and carve), JSON and text reports."""
    t0 = time.perf_counter()
    dump = dump_model.load_dump(entry["dump"], entry["map"])
    rep = report.analyze_dump(
        dump, report.AnalysisOptions(carve_dir=None if carve_dir is None else str(carve_dir))
    )
    doc = report.to_json_dict(rep)
    report.render_text(rep)
    return time.perf_counter() - t0, rep, doc


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def mismatches(truth: dict, rep, doc: dict, carve_dir: Path | None) -> list[str]:
    """Every way the verdict differs from the truth manifest; empty when it matches.

    Checked: the pointer-finding set, the inline (table, service, hook_addr)
    set at MAX_DEPTH, the exit classification and, when carving, the
    SHA-256 of every carved image, as reported and as written to disk.
    """
    found = []
    want_ptr = {(h["table"], h["service"]) for h in truth["pointer_hooks"]}
    got_ptr = {(f.table_kind.value, f.service_name) for f in rep.pointer_findings}
    if got_ptr != want_ptr:
        found.append(f"pointer findings differ: {sorted(got_ptr ^ want_ptr)}")
    want_inline = {
        (h["table"], h["service"], int(h["hook_addr"], 16))
        for h in truth["inline_hooks"]
        if len(h["chain"]) <= MAX_DEPTH
    }
    got_inline = {(f.table_kind.value, f.service_name, f.hook_addr) for f in rep.inline_findings}
    if got_inline != want_inline:
        found.append(f"inline findings differ: {sorted(got_inline ^ want_inline)}")
    want_exit = "findings" if want_ptr or want_inline else "clean"
    if doc["exit_classification"] != want_exit:
        found.append(f"exit classification {doc['exit_classification']} != {want_exit}")
    if carve_dir is not None:
        want = {int(i["base"], 16): i["sha256"] for i in truth["images"]}
        reported = {c.image_base: c.sha256 for c in rep.carved}
        written = {c.image_base: _file_sha256(carve_dir / c.output_name) for c in rep.carved}
        if reported != want or written != want:
            found.append("carved SHA-256 differs from truth")
    return found


def mismatched_truths(truth: dict, carve: bool) -> list[dict]:
    """Copies of ``truth``, each wrong in one field the gate checks."""
    wrong = [
        dict(truth, pointer_hooks=truth["pointer_hooks"]
             + [{"table": "boot", "service": "<self-check>"}]),
        dict(truth, inline_hooks=truth["inline_hooks"]
             + [{"table": "boot", "service": "<self-check>", "hook_addr": "0x0", "chain": []}]),
    ]
    if carve:
        images = [dict(i) for i in truth["images"]]
        images[0]["sha256"] = "0" * 64
        wrong.append(dict(truth, images=images))
    return wrong


class Analyzer:
    def __init__(self, corpus_dir: Path, scratch: Path, trace: bool):
        manifest = json.loads((corpus_dir / "corpus.json").read_text(encoding="utf-8"))
        self.carve = manifest["carve"]
        self.entries = [
            {
                "dump": corpus_dir / d["dump"],
                "map": corpus_dir / d["map"],
                "truth": json.loads((corpus_dir / d["truth"]).read_text(encoding="utf-8")),
                "bytes": d["bytes"],
            }
            for d in manifest["dumps"]
        ]
        self.scratch = scratch
        self.tracer = Tracer() if trace else None
        self.count = 0  # verdicts attempted
        self.self_check: dict | None = None
        self.traced_dump: dict[int, int] = {}  # trace id -> dump index

    def ready(self) -> dict:
        return {
            "dumps": len(self.entries),
            "dump_bytes": [e["bytes"] for e in self.entries],
        }

    def verdict(self) -> dict:
        """One timed verdict on the next dump, checked against its truth."""
        step = 1 if self.tracer is None else 2
        index = (self.count // step) % len(self.entries)
        traced = self.tracer is not None and self.count % 2 == 1
        entry = self.entries[index]
        self.count += 1
        carve_dir = self.scratch / f"carve-{self.count}" if self.carve else None
        gc.collect()
        elapsed = None
        try:
            if traced:
                self.tracer.install(self.count)
                self.traced_dump[self.count] = index
            try:
                elapsed, rep, doc = timed_verdict(entry, carve_dir)
            finally:
                if traced:
                    self.tracer.uninstall()
            errors = mismatches(entry["truth"], rep, doc, carve_dir)
            if self.self_check is None:
                wrong = mismatched_truths(entry["truth"], self.carve)
                self.self_check = {
                    "manifests": len(wrong),
                    "failed": sum(bool(mismatches(t, rep, doc, carve_dir)) for t in wrong),
                }
        except Exception as exc:  # a dump that raises is a failed verdict; keep measuring
            traceback.print_exc(file=sys.stderr)
            errors = [f"{type(exc).__name__}: {exc}"]
        finally:
            if carve_dir is not None:
                shutil.rmtree(carve_dir, ignore_errors=True)
        return {"dump": index, "traced": traced, "s": elapsed, "errors": errors}

    def run(self, seconds: float) -> list[dict]:
        deadline = time.perf_counter() + seconds
        samples = [self.verdict()]
        # With tracing, finish the untraced/traced pair of the current dump.
        while time.perf_counter() < deadline or (self.tracer and self.count % 2):
            samples.append(self.verdict())
        return samples

    def summary(self) -> dict:
        out = {
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "self_check": self.self_check,
        }
        if self.tracer is None:
            return out
        per_trace = self.tracer.per_trace()
        by_dump: dict[int, list[dict]] = {}
        for trace, dump_index in self.traced_dump.items():
            metrics = self.tracer.layer_metrics(trace, per_trace.get(trace, {}))
            by_dump.setdefault(dump_index, []).append(metrics)
        # Median over a dump's repeats, then mean over the corpus: per-verdict
        # figures for one pass, whatever share of the corpus each dump took.
        per_dump = [
            {k: statistics.median(m[k] for m in runs) for k in runs[0]}
            for runs in by_dump.values()
        ]
        out["layers"] = {k: statistics.fmean(d[k] for d in per_dump) for k in per_dump[0]}
        calls = {name: 0 for name in self.tracer.names}
        for spans in per_trace.values():
            for name, stats in spans.items():
                calls[name] += stats["calls"]
        optional = set() if self.carve else {CARVE_SPAN}
        out["span_calls"] = calls
        out["missing_spans"] = sorted(n for n, c in calls.items() if c == 0 and n not in optional)
        spans_path = self.scratch / "spans"
        self.tracer.write(spans_path)
        out["spans_file"] = str(spans_path.with_suffix(".bin"))
        out["spans"] = len(self.tracer.name_ix)
        return out


def main() -> None:
    corpus_dir, scratch, trace = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3] == "1"
    scratch.mkdir(parents=True, exist_ok=True)
    analyzer = Analyzer(corpus_dir, scratch, trace)

    def reply(obj) -> None:
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    reply({"ready": analyzer.ready()})
    for line in sys.stdin:
        request = json.loads(line)
        if "run_s" in request:
            reply({"samples": analyzer.run(request["run_s"])})
        else:
            reply({"summary": analyzer.summary()})
            return


if __name__ == "__main__":
    main()
