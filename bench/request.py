"""One benchmark request, in a fresh interpreter.

    python3 bench/request.py RESULT TRACE REQUEST_ID -- morphlie-argv...

Imports ``morphlie.cli`` from the checkout's ``src``, calls ``main(argv)``
with stdout and stderr captured, and writes a JSON result to RESULT: the
exit code, the captured text, any traceback, the monotonic clock (in ns)
once the imports are done, at the call of ``main`` and at its return, and
two samples of ``calibrate`` taken right before and right after ``main``.
With TRACE=1 the layers of ``layers.json`` are wrapped first and the spans
go into the result as well.
"""

import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """Seconds this machine takes, right now, for 3000 Fraction additions."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 3001):
        acc += Fraction(i % 7, i % 5 + 1)
    return time.perf_counter() - t


def run() -> int:
    result_path, trace, request_id = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]

    import contextlib
    import io
    import json
    import os
    import traceback

    bench = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench), "src")
    sys.path.insert(0, src)
    result = {"argv": argv}
    spans = None
    if trace:
        sys.path.append(bench)
        import tracer
        spans = tracer.Tracer()
        try:
            spans.install()
        except tracer.LayerMapError as exc:
            result["harness_error"] = str(exc)
            with open(result_path, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
            return 3

    import morphlie
    import morphlie.cli as cli

    if not os.path.abspath(morphlie.__file__).startswith(src + os.sep):
        result["harness_error"] = f"morphlie imported from {morphlie.__file__}, not {src}"
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 3

    t_ready = time.monotonic_ns()
    cal_before = calibrate()
    out, err = io.StringIO(), io.StringIO()
    code, tb = None, None
    t_call = time.monotonic_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # any other escape from main is a failed request
        tb = traceback.format_exc()
    t_ret = time.monotonic_ns()
    cal_after = calibrate()
    result.update(code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                  traceback=tb, t_ready=t_ready, t_call=t_call, t_ret=t_ret,
                  cal=[cal_before, cal_after])
    if spans is not None:
        result["trace"] = spans.report(request_id)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(run())
