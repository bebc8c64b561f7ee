"""The workload's own process: one client driving ``biperiodic.cli.main``.

Reads one JSON job from stdin, answers with one JSON document on stdout.
Requests run back to back (closed loop), in-process, with stdout and stderr
captured. Only the ``cli.main`` call is timed; hashing the output and
bookkeeping happen between requests. Start it with the package's source
directory on PYTHONPATH; run.py does that.

Job keys: ``requests`` (argv lists), ``seconds``, ``trace`` (bool) and
``trace_file`` (path or null).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time

import biperiodic.cli as cli
import hostspeed
import tracing


def run_request(argv):
    """(start, seconds, exit code or None if it raised, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed request, not a harness error
            code = None
            error = f"{type(exc).__name__}: {exc}"[:300]
        elapsed = time.perf_counter() - start
    return start, elapsed, code, out.getvalue(), error or err.getvalue()[-300:]


def run_pass(requests, keep_verify_output, calibration, tracer=None, on_reply=None):
    starts, lat, codes, digests, errors, outputs = [], [], [], [], [], {}
    for i, argv in enumerate(requests):
        if tracer:
            tracer.request = i
        start, elapsed, code, stdout, error = run_request(argv)
        calibration.after(elapsed)
        starts.append(start)
        lat.append(elapsed)
        codes.append(code)
        digests.append(hashlib.sha256(stdout.encode()).hexdigest())
        errors.append(error)
        if keep_verify_output and argv[0] == "verify":
            outputs[i] = stdout
        if on_reply:
            on_reply(argv, stdout)
    return {"start": starts, "lat_s": lat, "codes": codes, "digests": digests, "errors": errors,
            "verify_outputs": outputs}


def layer_metrics(tracer, checks, out_bytes):
    t = tracer.totals()

    def calls(*names):
        return sum(t.get(n, (0, 0, 0))[0] for n in names)

    def incl_s(name):
        return t.get(name, (0, 0, 0))[1] / 1e9

    def self_s(name):
        return t.get(name, (0, 0, 0))[2] / 1e9

    c = tracer.counts
    rec_calls = calls("matrixseq.rec")
    return {
        "exact.mat2_mul.calls": calls("exact.mat2_mul"),
        "exact.mat2_mul.self_s": self_s("exact.mat2_mul"),
        "exact.mat2_pow.self_s": self_s("exact.mat2_pow"),
        "exact.quad_mul.calls": calls("exact.quad_mul"),
        "exact.quad_pow.self_s": self_s("exact.quad_pow"),
        "exact.max_bits": c["max_bits"],
        "sequences.q.calls": calls("sequences.q"),
        "sequences.l.calls": calls("sequences.l"),
        "sequences.q.s": incl_s("sequences.q"),
        "sequences.l.s": incl_s("sequences.l"),
        "matrixseq.closed.calls": calls("matrixseq.closed"),
        "matrixseq.closed.s": incl_s("matrixseq.closed"),
        "matrixseq.rec.calls": rec_calls,
        "matrixseq.rec.steps": c["rec_steps"],
        "matrixseq.rec.s": incl_s("matrixseq.rec"),
        "matrixseq.rec.useful_ratio": rec_calls / c["rec_steps"] if c["rec_steps"] else 0.0,
        "matrixseq.rec_iter.terms": c["rec_iter_terms"],
        "matrixseq.binet.calls": calls("matrixseq.binet"),
        "matrixseq.binet.s": incl_s("matrixseq.binet"),
        "series.expand_rational.calls": calls("series.expand_rational"),
        "series.expand_rational.s": incl_s("series.expand_rational"),
        "series.finite_inverse_sum_mismatch.s": incl_s("series.finite_inverse_sum_mismatch"),
        "series.first_generating_mismatch.s": incl_s("series.first_generating_mismatch"),
        "series.first_infinite_mismatch.s": incl_s("series.first_infinite_mismatch"),
        "series.lucas_partial_sum.s": incl_s("series.lucas_partial_sum"),
        "identities.checks": checks,
        "identities.run_full_suite.s": incl_s("identities.run_full_suite"),
        "identities.run_full_suite.self_s": self_s("identities.run_full_suite"),
        "identities.thm6_suite.s": incl_s("identities.thm6_suite"),
        "identities.thm7_suite.s": incl_s("identities.thm7_suite"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.out_bytes": out_bytes,
        "trace.spans": len(tracer.span_start),
        # self time summed over each layer's spans; cli's is cli.main.self_s
        **{f"{layer}.self_s": sum(own for n, (_, _, own) in t.items()
                                   if n.startswith(layer + ".")) / 1e9
           for layer in ("exact", "sequences", "matrixseq", "series", "identities")},
    }


def main() -> None:
    job = json.load(sys.stdin)
    requests = job["requests"]
    cli.build_parser()
    result = {"passes": []}
    calibration = hostspeed.Interleaved()
    if job["trace"]:
        result["passes"].append(run_pass(requests, True, calibration))
        tracer = tracing.Tracer()
        tracer.install()
        totals = {"checks": 0, "out_bytes": 0}

        def on_reply(argv, stdout):
            totals["out_bytes"] += len(stdout.encode())
            if argv[0] == "verify":
                with contextlib.suppress(ValueError, KeyError, TypeError):
                    totals["checks"] += json.loads(stdout)["checks_run"]

        result["passes"].append(run_pass(requests, False, calibration, tracer, on_reply))
        result["layers"] = layer_metrics(tracer, totals["checks"], totals["out_bytes"])
        if job["trace_file"]:
            tracer.write(job["trace_file"])
    else:
        started = time.perf_counter()
        while True:
            record = run_pass(requests, not result["passes"], calibration)
            result["passes"].append(record)
            spent = time.perf_counter() - started
            if spent + sum(record["lat_s"]) > job["seconds"]:
                break
    result["calibration"] = calibration.samples
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
