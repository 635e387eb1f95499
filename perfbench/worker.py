"""Run one workload's verifications in one process and write the raw results.

    python3 perfbench/worker.py MANIFEST SECONDS TRACE RESULT

A warm-up runs the first verification of each kind (the small baseline
items, for most kinds), so imports and first calls are done before timing
without spending a whole pass on it.  Untraced passes then repeat the whole
batch while another pass still fits in SECONDS (half of them when TRACE is 1;
the other half runs traced passes).  Every pass is checked, and must give the
bytes of the first timed pass.

A ``reference.SpeedSampler`` runs through the warm-up and all passes.  Each
verification's time is scaled to the reference speed by the chunks that ran
during it; per-layer times of a traced pass by all the chunks of the pass.
RESULT receives a JSON document with the scaled and measured times, the
failures, the per-layer numbers of the traced passes and the environment.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy  # noqa: E402
import scipy  # noqa: E402

from heatchern import _kernels  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from tracer import GLUE, Tracer, layer_label  # noqa: E402

def run_pass(items, directory, recorder):
    """One pass: {"span": [start, end], "spans": [[start, end]], "ok": [...],
    "payload": [...]}, one entry per verification in the lists."""
    out = {"spans": [], "ok": [], "payload": []}
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        ok, payload = checks.run_item(item, directory, recorder)
        out["spans"].append((t0, time.perf_counter()))
        out["ok"].append(ok)
        out["payload"].append(payload)
    out["span"] = (start, time.perf_counter())
    return out


def run_passes(items, directory, recorder, budget, make_context=None):
    """Repeat the batch while the last pass would fit again in ``budget``
    seconds (at least once)."""
    passes = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= budget:
        t0 = time.perf_counter()
        if make_context is None:
            passes.append((run_pass(items, directory, recorder), None))
        else:
            with make_context() as ctx:
                result = run_pass(items, directory, recorder)
            passes.append((result, ctx))
        last = time.perf_counter() - t0
    return passes


def git_commit(root: str) -> str:
    """HEAD of a git checkout at ``root``, read from its files, or "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "use_numba": bool(_kernels.USE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_THREADS")},
        "git_commit": git_commit(root),
    }


def layer_numbers(tracer: Tracer, scale: float = 1.0):
    """(times, counts) of one traced pass; times are multiplied by
    ``scale``."""
    times, counts = {}, dict(tracer.counts)
    for key, (calls, incl, self_s) in tracer.stats.items():
        counts[f"{key}.calls"] = calls
        times[f"{key}.s"] = incl * scale
        times[f"{key}.self_s"] = self_s * scale
    layers = tracer.layer_self_s()
    for layer, self_s in layers.items():
        times[f"{layer}.self_s"] = self_s * scale
    times["glue.self_s"] = scale * sum(layers.get(layer_label(m), 0.0)
                                       for m in GLUE)
    return times, counts


def main(argv) -> int:
    manifest_path, seconds, trace, result_path = argv
    seconds, trace = float(seconds), trace == "1"
    directory = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path, encoding="utf-8") as fh:
        items = json.load(fh)["items"]
    first_of_kind = {}
    for i, item in enumerate(items):
        first_of_kind.setdefault(item["kind"], i)
    warm_index = sorted(first_of_kind.values())
    with checks.EmitRecorder() as recorder, \
            reference.SpeedSampler() as sampler:
        warm = run_pass([items[i] for i in warm_index], directory, recorder)
        untraced = [res for res, _ in run_passes(
            items, directory, recorder, seconds / 2 if trace else seconds)]
        traced = (run_passes(items, directory, recorder, seconds / 2, Tracer)
                  if trace else [])

    all_passes = [warm] + untraced + [res for res, _ in traced]
    failed = sum(not ok for res in all_passes for ok in res["ok"])
    # every pass must reproduce the first timed pass's bytes, traced or not
    first = untraced[0]["payload"]
    mismatched = (sum(res["payload"] != first for res in all_passes[1:])
                  + (warm["payload"] != [first[i] for i in warm_index]))
    # times: median over the traced passes; counts must repeat exactly
    numbers = [layer_numbers(ctx, sampler.factor(*res["span"]))
               for res, ctx in traced]
    layers = {}
    for times, counts in numbers[:1]:
        layers.update(counts)
        layers.update({k: statistics.median(t[k] for t, _ in numbers)
                       for k in times})
    result = {
        # per pass, its program seconds, measured and at reference speed
        "pass_s": [sum(sampler.program_seconds(*span)
                       for span in res["spans"]) for res in untraced],
        "scaled_pass_s": [sum(sampler.scaled(*span) for span in res["spans"])
                          for res in untraced],
        "traced_scaled_pass_s": [sum(sampler.scaled(*span)
                                     for span in res["spans"])
                                 for res, _ in traced],
        # per verification, its seconds at reference speed in each pass
        "names": [item["name"] for item in items],
        "verification_s": [[sampler.scaled(*res["spans"][i])
                            for res in untraced] for i in range(len(items))],
        "ref_s": sampler.seconds,
        "attempted": sum(len(res["ok"]) for res in all_passes),
        "failed": failed,
        "failed_names": sorted({items[i]["name"] for res in all_passes
                                for i, ok in enumerate(res["ok"]) if not ok}),
        "mismatched_passes": mismatched,
        "counts_stable": all(c == numbers[0][1] for _, c in numbers),
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(os.getcwd()),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
