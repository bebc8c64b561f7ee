"""Request-level benchmark for the ``biperiodic`` CLI.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is used from ``src/`` as it is;
nothing is built or installed. Workloads (see workloads.py):

  verify-grid  ``verify --a --b`` for the 49 default-grid pairs plus 51
               seeded small-height pairs (six with ab = -4)
  deep-term    cold single ``term`` values at n = 10^2..10^4 by every route,
               and ``series --order`` requests
  table-sweep  ``table`` ranges, scalar and matrix, every source and format

One client runs the seeded request list back to back through
``biperiodic.cli.main`` in a fresh worker process (closed loop), repeating
the whole list while another pass still fits in --seconds. Every reply is
then checked against oracle.py, which does not import the package.

--trace 0 prints the end-to-end metrics: setup_s (median of 60 fresh
processes, from spawn to ``import biperiodic`` plus ``cli.build_parser()``
done), run_s (median over passes of the summed request latencies),
lat_p50_ms / lat_p90_ms (over every request of every pass), peak_rss_mb
(the worker's peak RSS), and cli_verify_s / cli_verify_rss_mb (one
``python -m biperiodic verify`` subprocess with default arguments, whose
stdout must match golden_verify.json). Timings are calibrated against the
host's speed while they ran (hostspeed.py); the raw ones are printed too.
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics of tracing.py instead, with the tracing overhead; it writes the
spans to .perfbench-trace/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero, with no result
line, when the harness itself cannot run (for example without src/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# perf_counter is CLOCK_MONOTONIC, shared by every process on the host
SETUP_CODE = ("import time; import biperiodic.cli as c; c.build_parser(); "
              "print(time.perf_counter(), flush=True)")
SETUP_SAMPLES = 60

# Known defect, kept visible: a value with more than 4300 decimal digits
# crashes the CLI with Python's int-to-str limit
# ("ValueError: Exceeds the limit (4300 digits)"). deep-term runs this
# request once per run, untimed, in a process of its own (so its ~20 MB memo
# stays out of peak_rss_mb), and reports whether it still crashes.
DEFECT_PROBE = ["term", "--kind", "fib", "--a", "1", "--b", "1", "--n", "21000"]
DEFECT_TEXT = "Exceeds the limit"

# Per-layer metrics that must read non-zero on a workload, because the
# workload is predicted to do that work. A zero means the traced function
# was renamed or re-bound, or the workload stopped reaching it.
MUST_WORK = {
    "verify-grid": (
        "exact.mat2_mul.calls", "exact.mat2_mul.self_s", "exact.quad_mul.calls",
        "exact.quad_pow.self_s", "exact.max_bits", "sequences.q.calls",
        "sequences.l.calls", "matrixseq.closed.calls", "matrixseq.closed.s",
        "matrixseq.rec_iter.terms", "matrixseq.binet.calls",
        "series.expand_rational.calls", "series.expand_rational.s",
        "series.finite_inverse_sum_mismatch.s", "series.first_generating_mismatch.s",
        "series.first_infinite_mismatch.s", "series.lucas_partial_sum.s",
        "identities.checks", "identities.run_full_suite.s",
        "identities.run_full_suite.self_s", "identities.thm6_suite.s",
        "identities.thm7_suite.s", "cli.main.calls", "cli.main.self_s", "cli.out_bytes",
    ),
    "deep-term": (
        "exact.quad_mul.calls", "exact.quad_pow.self_s", "exact.max_bits",
        "sequences.q.calls", "sequences.l.calls", "sequences.q.s", "sequences.l.s",
        "matrixseq.closed.calls", "matrixseq.closed.s", "matrixseq.rec.calls",
        "matrixseq.rec.steps", "matrixseq.rec.useful_ratio", "matrixseq.rec_iter.terms",
        "matrixseq.binet.calls", "matrixseq.binet.s", "series.expand_rational.calls",
        "series.expand_rational.s", "cli.main.calls", "cli.main.self_s", "cli.out_bytes",
    ),
    "table-sweep": (
        "exact.max_bits", "sequences.q.calls", "sequences.l.calls",
        "matrixseq.closed.calls", "matrixseq.closed.s", "matrixseq.rec.calls",
        "matrixseq.rec.steps", "matrixseq.rec.useful_ratio", "matrixseq.binet.calls",
        "cli.main.calls", "cli.main.self_s", "cli.out_bytes",
    ),
}


# The two layers predicted to take most self time on each workload.
PREDICTED_DOMINANT = {
    "verify-grid": {"identities", "exact"},
    "deep-term": {"sequences", "matrixseq"},
    "table-sweep": {"matrixseq", "cli"},
}
LAYERS = ("exact", "sequences", "matrixseq", "series", "identities", "cli")


def dominance_note(workload: str, layers: dict) -> str:
    """Rank the layers by self time and compare the top two with the
    prediction."""
    own = {layer: layers[f"{layer}.self_s"] for layer in LAYERS[:-1]}
    own["cli"] = layers["cli.main.self_s"]
    total = sum(own.values())
    ranked = sorted(own, key=own.get, reverse=True)
    shares = ", ".join(f"{layer} {own[layer] / total:.0%}" for layer in ranked)
    predicted = PREDICTED_DOMINANT[workload]
    verdict = ("confirmed" if set(ranked[:2]) == predicted else
               f"MISMATCH, measured top two: {'+'.join(ranked[:2])}")
    return (f"layer self time: {shares}; predicted dominant "
            f"{'+'.join(sorted(predicted))}: {verdict}")


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _wait(proc) -> tuple[int, float]:
    """Reap ``proc``; (exit code, its peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def measure_setup(sampler) -> tuple[float, float]:
    """(calibrated, raw) median over fresh processes of the time from spawn
    to ready for the first request. One warm-up process comes first, so
    byte-code compilation is not counted."""
    raw, calibrated = [], []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.stdout.read(), proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        code, _ = _wait(proc)
        try:
            ready = float(out)
        except ValueError:
            ready = None
        if code != 0 or ready is None:
            raise HarnessError(f"set-up process failed: {err.decode(errors='replace')[-500:]}")
        raw.append(ready - start)
        calibrated.append(raw[-1] / hostspeed.slowdown(
            sampler.samples, sampler.NOMINAL, start, ready))
    return statistics.median(calibrated[1:]), statistics.median(raw[1:])


def run_worker(job: dict) -> tuple[dict, float]:
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(json.dumps(job).encode())
        proc.stdin.close()
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        code, rss_mb = _wait(proc)
    if code != 0:
        raise HarnessError(f"worker exited with code {code}")
    return json.loads(out), rss_mb


def run_cli_verify(sampler) -> tuple[float, float, float, str | None, float]:
    """(calibrated s, raw s, peak RSS MB, problem, mean sampler chunk s) of
    one default ``python -m biperiodic verify``, checked against the golden
    digest."""
    golden = json.loads((HERE / "golden_verify.json").read_text())
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "biperiodic", "verify"], cwd=ROOT,
                            env=_env(), stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    code, rss_mb = _wait(proc)
    end = time.perf_counter()
    problem = None
    if code != 0:
        problem = f"exit code {code}"
    elif hashlib.sha256(out).hexdigest() != golden["stdout_sha256"]:
        problem = f"stdout ({len(out)} bytes) differs from the golden report"
    slow = hostspeed.slowdown(sampler.samples, sampler.NOMINAL, start, end, margin=0)
    return (end - start) / slow, end - start, rss_mb, problem, slow * sampler.NOMINAL


def calibrated_latencies(samples, record) -> list[float]:
    return [lat / hostspeed.slowdown(samples, hostspeed.Interleaved.NOMINAL, start, start + lat)
            for start, lat in zip(record["start"], record["lat_s"])]


def check_passes(requests, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems). A request fails if it raised, exited
    non-zero, or printed anything but the reference output. A verify reply
    is judged from the first pass's text; later passes must repeat it."""
    expected = {}
    for i, argv in enumerate(requests):
        if argv[0] == "verify":
            text = passes[0]["verify_outputs"][str(i)]
            problem = oracle.verify_problem(argv, passes[0]["codes"][i], text)
        else:
            text, problem = oracle.expected_stdout(argv), None
        expected[i] = (hashlib.sha256(text.encode()).hexdigest(), problem)
    attempted, problems = 0, []
    for record in passes:
        for i, argv in enumerate(requests):
            attempted += 1
            digest, problem = expected[i]
            code = record["codes"][i]
            if code is None:
                problem = record["errors"][i]
            elif code != 0:
                problem = f"exit code {code}: {record['errors'][i]}"
            elif record["digests"][i] != digest:
                problem = problem or "output differs from the reference"
            if problem:
                problems.append(f"{' '.join(argv)}: {problem}")
    return attempted, len(problems), problems


def run_probe() -> tuple[str, bool]:
    """Send DEFECT_PROBE through ``python -m biperiodic``; (status text,
    whether the reply is acceptable)."""
    proc = subprocess.run([sys.executable, "-m", "biperiodic", *DEFECT_PROBE], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=120)
    error = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
    if proc.returncode != 0 and DEFECT_TEXT in error:
        return f"reproduced ({error[:60]})", True
    sys.set_int_max_str_digits(0)
    if proc.returncode == 0 and proc.stdout == oracle.expected_stdout(DEFECT_PROBE):
        return "fixed (the probe now prints the right value)", True
    return f"wrong reply: code {proc.returncode}, {error[:200]}", False


def provenance(args) -> str:
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
            f"trace {args.trace}; shared host, timings are noisy: compare medians of "
            f"repeated runs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "biperiodic" / "__init__.py").is_file():
        raise HarnessError(f"no package source under {ROOT / 'src'}")

    requests = workloads.requests_for(args.workload, args.seed)
    job = {"requests": requests, "seconds": args.seconds, "trace": bool(args.trace),
           "trace_file": None}
    if args.trace:
        trace_dir = ROOT / ".perfbench-trace"
        trace_dir.mkdir(exist_ok=True)
        job["trace_file"] = str(trace_dir / f"{args.workload}.spans")

    if not args.trace:
        with hostspeed.SpeedSampler() as sampler:
            setup_s, raw_setup_s = measure_setup(sampler)
    result, rss_mb = run_worker(job)
    if not args.trace:
        with hostspeed.SpeedSampler() as sampler:
            verify_s, raw_verify_s, verify_rss, verify_problem, verify_chunk_s = \
                run_cli_verify(sampler)

    passes = result["passes"]
    attempted, failed, problems = check_passes(requests, passes)
    correct = not problems
    notes = [provenance(args)]
    if args.workload == "deep-term":
        status, ok = run_probe()
        correct = correct and ok
        notes.append(f"known defect, int-to-str limit ({' '.join(DEFECT_PROBE)}): {status}")

    lat = [calibrated_latencies(result["calibration"], p) for p in passes]
    pass_s = [sum(p) for p in lat]
    raw_pass_s = [sum(p["lat_s"]) for p in passes]
    if args.trace:
        metrics = {name: (value, "s" if name.endswith("_s") or name.endswith(".s") else
                          "ratio" if name.endswith("ratio") else
                          "bytes" if name.endswith("bytes") else "count")
                   for name, value in result["layers"].items()}
        metrics["trace.untraced_run_s"] = (pass_s[0], "s")
        metrics["trace.run_s"] = (pass_s[1], "s")
        metrics["trace.overhead"] = (pass_s[1] / pass_s[0] - 1, "ratio")
        notes.append(dominance_note(args.workload, result["layers"]))
        idle = [n for n in MUST_WORK[args.workload] if not result["layers"][n]]
        if idle:
            raise HarnessError(f"per-layer metrics read zero on {args.workload}, where "
                               f"work is predicted: {', '.join(idle)}")
    else:
        samples = sorted(x for p in lat for x in p)
        deciles = statistics.quantiles(samples, n=10, method="inclusive")
        if verify_problem:
            correct = False
            problems.append(f"python -m biperiodic verify: {verify_problem}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(pass_s), "s"),
            "lat_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "lat_p90_ms": (deciles[8] * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "cli_verify_s": (verify_s, "s"),
            "cli_verify_rss_mb": (verify_rss, "MB"),
        }
        notes.append(f"{len(passes)} passes of {len(requests)} requests; latency "
                     f"percentiles over {len(samples)} samples; fail_frac "
                     f"{failed}/{attempted} = {failed / attempted:.4f}")
        notes.append(f"raw (uncalibrated): setup_s {raw_setup_s:.4f}, run_s "
                     f"{statistics.median(raw_pass_s):.4f}, cli_verify_s {raw_verify_s:.4f}")
        notes.append(f"host speed: sampler chunks during python -m biperiodic verify, mean "
                     f"{verify_chunk_s * 1e3:.3f} ms against a nominal "
                     f"{hostspeed.SpeedSampler.NOMINAL * 1e3:.3f} ms")
    chunk_s = [d for _, d in result["calibration"]]
    notes.append(f"host speed: {len(chunk_s)} calibration chunks in the worker, mean "
                 f"{statistics.fmean(chunk_s) * 1e3:.3f} ms against a nominal "
                 f"{hostspeed.Interleaved.NOMINAL * 1e3:.3f} ms")

    for note in notes:
        print(f"# {note}")
    for problem in problems[:20]:
        print(f"# FAILED {problem[:300]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
