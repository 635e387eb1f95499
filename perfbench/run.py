"""heatchern benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/``.  The seed makes the workload's scenario files and API-check inputs
(see ``workloads.py`` for why each workload exists).  The program then runs in
one child process with one thread: the BLAS thread variables are set to 1
there.  Generated files live under ``.perfbench_work/`` in the checkout and
are removed at the end.

Every time below is reported at the reference speed: the program's seconds
times a nominal chunk time over the mean time of a fixed reference chunk
that a signal handler runs every few milliseconds in the same process,
during the timed stretch (see ``reference.py`` and ``setup_child.py``).
The machine's speed drifts by about a factor of 1.5 from second to second
and from minute to minute; the scaled time follows the program, not the
drift.  The measured seconds are printed above the result line.

End-to-end metrics (``--trace 0``, untraced):

``wall_s``
    Seconds to finish the whole batch of verifications, in the fastest of
    the untraced passes, which repeat while another pass fits in
    ``--seconds`` after a warm-up of one verification of each kind.  The
    fastest, not the median: what the reference does not catch of the other
    tenants' load only ever adds time, by up to a third of a pass.  Over
    five seeds per workload on a 2-vCPU machine the middle half of the runs
    spread 11-17% with the median pass and 5-17% with the fastest; over ten
    seeds at ``--seconds 35``, with the fastest, 8% (sweep-default), 12%
    (fixed-point-exact, whose three or four passes a run holds at that
    length) and 10% (numeric-kernels).
``verification_s.p50``
    Median over the batch's verifications of each one's fastest seconds over
    the passes, printed with its sample count but left out of the result
    line: the benchmark gates only metrics that hold still on the same code.
    On fixed-point-exact and numeric-kernels it is the time of one short
    verification (0.05-0.1 s), which the reference scales least well; over
    ten seeds its middle half spread up to 27% there, past the largest bound
    allowed (25%).  A run holds only tens
    of verifications, so no percentile above the median has ten samples
    beyond it: no tail percentile is named.
``setup_s``
    Median, over several fresh interpreters, of ``import heatchern`` plus the
    parse of the workload's first scenario (``setup_child.py``).
``peak_rss_mb``
    Peak resident memory of the child process.
``passed_ratio``
    Passed verifications over attempted ones.  It stands for the failed
    ratio, which reads 0 when nothing fails; the failure count itself is the
    ``failed`` field of the result line.

Per-layer metrics (``--trace 1``) come from traced passes in the same child,
after untraced passes of the same length; ``trace.overhead_ratio`` is the
fastest traced pass over the fastest untraced pass.  Per-layer times are
medians over the traced passes, each scaled by the reference chunks of its
pass (they include the signal handler's time, about 2%); ``.self_s`` is a
span's time minus its child spans, ``.s`` inclusive time.  Each group should move an end-to-end metric
on one workload, and stay put on the others:

* glue (``scenario.parse_scenario.s``, ``report.emit.s``,
  ``suites.run_suite.self_s``, ``cli.main.self_s``, ``glue.self_s``):
  ``setup_s`` on all workloads, ``verification_s.p50`` on sweep-default.
* ``multivector`` (wedge and exp_even self time and calls, ``terms_peak``):
  ``wall_s`` and ``peak_rss_mb`` on fixed-point-exact.
* ``clifford`` (clifford_multiply, represent, supertrace): ``wall_s`` on
  fixed-point-exact; ``verification_s.p50`` on sweep-default, through the
  n=4 supertrace table (256 words, both routes).
* ``equivariant`` (local_index_density, euler_form, equivariant_supertrace,
  lambda_pushforward_oracle, fiber_integral, module self time): ``wall_s`` on
  fixed-point-exact.
* ``getzler`` (volterra_compose, compose, lichnerowicz_split): ``wall_s`` on
  sweep-default.
* ``kernels`` (the ``_kernels`` module: Gauss-Hermite, torus and sphere mode
  sums, ``gh_points``), ``spectral`` (heat_supertrace, tail_bound,
  log_finite_torsion, ``modes``) and ``duhamel`` (duhamel_series,
  remainder_operator, ``simplex_nodes``): ``wall_s`` on numeric-kernels.

Exit status: 0 with a result line, 2 on bad arguments or when the program's
source is missing, 1 when the child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
RUN_LIMIT_S = 170      # every child is killed by then; a run must end in 180 s
WORK_DIR = ".perfbench_work"
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}

PER_LAYER = (
    "scenario.parse_scenario.s", "report.emit.s", "suites.run_suite.self_s",
    "cli.main.self_s", "glue.self_s",
    "multivector.wedge.self_s", "multivector.wedge.calls",
    "multivector.exp_even.self_s", "multivector.exp_even.calls",
    "multivector.terms_peak", "multivector.self_s",
    "clifford.clifford_multiply.self_s", "clifford.represent.self_s",
    "clifford.supertrace.self_s", "clifford.supertrace.calls",
    "clifford.self_s",
    "equivariant.local_index_density.s", "equivariant.euler_form.s",
    "equivariant.equivariant_supertrace.s",
    "equivariant.lambda_pushforward_oracle.s", "equivariant.fiber_integral.s",
    "equivariant.self_s",
    "getzler.volterra_compose.self_s", "getzler.volterra_compose.calls",
    "getzler.compose.self_s", "getzler.lichnerowicz_split.s",
    "getzler.self_s",
    "kernels.gauss_hermite_gaussian_integral.s", "kernels.gh_points",
    "kernels.torus_supertrace.s", "kernels.sphere_supertrace.s",
    "kernels.self_s",
    "spectral.heat_supertrace.s", "spectral.tail_bound.s", "spectral.modes",
    "spectral.log_finite_torsion.s", "spectral.self_s",
    "duhamel.duhamel_series.s", "duhamel.remainder_operator.s",
    "duhamel.simplex_nodes", "duhamel.self_s",
    "scalars.self_s",
)
COUNT_SUFFIXES = (".calls", ".terms_peak", ".gh_points", ".modes",
                  ".simplex_nodes")


def unit_of(name: str) -> str:
    return "count" if name.endswith(COUNT_SUFFIXES) else "s"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def measure_setup(scenario: str, env: dict, deadline: float) -> list:
    """(measured, scaled) seconds of each fresh interpreter's set-up."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), scenario],
            env=env, capture_output=True, text=True,
            timeout=remaining(deadline), check=True)
        measured, scaled = (float(x) for x in proc.stdout.split())
        samples.append((measured, scaled))
    return samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def metrics_of(args, raw: dict, setup: list) -> dict:
    if args.trace:
        overhead = (min(raw["traced_scaled_pass_s"])
                    / min(raw["scaled_pass_s"]))
        values = {name: raw["layers"][name] for name in PER_LAYER}
        values["trace.overhead_ratio"] = overhead
        return {name: {"value": v, "unit": "ratio" if name.startswith("trace.")
                       else unit_of(name)} for name, v in values.items()}
    return {
        "wall_s": {"value": min(raw["scaled_pass_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(s for _, s in setup),
                    "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        "passed_ratio": {"value": 1 - raw["failed"] / raw["attempted"],
                         "unit": "ratio"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "heatchern", "__init__.py")):
        print("error: run from a heatchern checkout; src/heatchern is missing",
              file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    env = child_env(root)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        manifest = workloads.write_inputs(args.workload, args.seed, work)
        setup = measure_setup(workloads.first_scenario(manifest), env, deadline)
        result_path = os.path.join(work, "result.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), manifest,
             repr(args.seconds), str(args.trace), result_path],
            env=env, timeout=remaining(deadline))
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    metrics = metrics_of(args, raw, setup)
    correct = (raw["failed"] == 0 and raw["mismatched_passes"] == 0
               and raw["counts_stable"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(raw["env"], sort_keys=True))
    print(f"samples: {len(raw['pass_s'])} untraced passes of "
          f"{len(raw['verification_s'])} verifications, "
          f"{len(raw['traced_scaled_pass_s'])} traced passes, "
          f"{len(setup)} setup runs")
    print("measured pass seconds: " + " ".join(f"{t:.4g}" for t in raw["pass_s"])
          + "; at reference speed: "
          + " ".join(f"{t:.4g}" for t in raw["scaled_pass_s"])
          + "; traced, at reference speed: "
          + " ".join(f"{t:.4g}" for t in raw["traced_scaled_pass_s"]))
    print(f"reference chunks: {len(raw['ref_s'])}, seconds "
          f"(nominal {reference.NOMINAL_S}): median "
          f"{statistics.median(raw['ref_s']):.4g}, quartiles "
          + " ".join(f"{q:.4g}" for q in statistics.quantiles(raw["ref_s"], n=4)))
    print("measured setup seconds: "
          + " ".join(f"{e:.4g}" for e, _ in setup))
    print("fastest seconds per verification, at reference speed: "
          + " ".join(f"{name}={min(ts):.4g}" for name, ts
                     in zip(raw["names"], raw["verification_s"])))
    print(f"failed {raw['failed']} of {raw['attempted']} "
          f"(failed_ratio {raw['failed'] / raw['attempted']:.6g}); "
          f"failing: {raw['failed_names'] or 'none'}; "
          f"passes differing from the first timed pass: {raw['mismatched_passes']}")
    p50 = statistics.median(min(ts) for ts in raw["verification_s"])
    print(f"verification_s.p50 = {p50:.6g} s (median of "
          f"{len(raw['verification_s'])} verifications' fastest of "
          f"{len(raw['pass_s'])} passes; printed, not in the result line)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
