"""The morphlie benchmark: one command, seeded inputs, checked outputs.

    python3 bench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each workload is a fixed list of request
kinds (see ``gen.py``), served as a closed loop with one client: every
request is a fresh ``python3 -I bench/request.py`` process that calls
``morphlie.cli.main``, and the next one starts when it has been reaped.
Whole passes over the list run until the next pass would end after
``--seconds`` (at least one pass).  Every output is checked (``check.py``).

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
every request runs twice, once with the layers of ``layers.json`` traced
and once plain, and the per-layer metrics are reported.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# The percentile reported as request_tail_s, fixed so that it means the same
# on every commit: the highest of p50, p75, p90 that leaves at least ten
# samples beyond it in every 40-second run of the seed commit (two passes of
# each list at least, each list at least 21 requests long).
TAIL_PCT = 75

# Seconds ``calibrate`` in request.py takes on the reference machine.
# Every time the benchmark reports is scaled to that speed; see normalize().
CAL_REF_S = 0.010

# No single request may outlive this; the run as a whole stays under 180 s.
RUN_LIMIT_S = 170.0


class HarnessError(Exception):
    pass


def execute(argv, traced, request_id, workdir, deadline):
    """Spawn one request process, reap it with wait4, return its record."""
    result_path = workdir / f"r{request_id}.json"
    log_path = workdir / f"r{request_id}.log"
    cmd = [sys.executable, "-I", str(BENCH / "request.py"), str(result_path),
           "1" if traced else "0", str(request_id), "--"] + argv
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(log_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    budget = deadline - time.monotonic()
    if budget <= 1:
        raise HarnessError("no time left for another request")
    t_spawn = time.monotonic_ns()
    pid = os.posix_spawn(sys.executable, cmd, dict(os.environ), file_actions=actions)

    def kill(_sig, _frame):
        os.kill(pid, signal.SIGKILL)

    old = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    t_reaped = time.monotonic_ns()
    result = None
    if result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
    log = log_path.read_text(encoding="utf-8", errors="replace") if log_path.exists() else ""
    log_path.unlink(missing_ok=True)
    if os.waitstatus_to_exitcode(status) != 0 and result is not None:
        if result.get("harness_error"):
            raise HarnessError(result["harness_error"])
    if result is None:
        if time.monotonic() >= deadline:
            raise HarnessError("a request ran past the run's time limit and was killed")
        result = {"traceback": log or f"request process ended with status {status}"}
    return {
        "wall": (t_reaped - t_spawn) / 1e9 - sum(result.get("cal", ())),
        "setup": (result["t_ready"] - t_spawn) / 1e9 if "t_ready" in result else None,
        "req": (result["t_ret"] - result["t_call"]) / 1e9 if "t_ret" in result else None,
        "rss_kb": usage.ru_maxrss,
        "cal": result.get("cal"),
        "result": result,
    }


def run_workload(name, seed, seconds, trace, expected):
    # Imported here, not at the top: gen needs tests/oracles.py, and main()
    # must first be able to report a checkout that lacks it.
    import check
    import gen
    import tracer

    slots = gen.plan(name, seed)
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    records, pass_walls = [], []
    request_id = 0
    try:
        while True:
            p = len(pass_walls)
            t_pass = time.monotonic()
            outputs = {}
            for i, slot in enumerate(slots):
                argv, ctx = gen.make_request(name, slot, seed, p, i, workdir, outputs)
                what = " ".join([ctx["kind"], ctx["obj"]] + slot.get("flags", []))
                modes = [False] if not trace else (
                    [True, False] if (p + i) % 2 == 0 else [False, True])
                ok = True
                for traced in modes:
                    request_id += 1
                    rec = {"wall": 0.0, "setup": None, "req": None, "rss_kb": 0,
                           "cal": None, "result": None}
                    if argv is None:
                        why = "the request whose output it reads failed"
                    else:
                        rec = execute(argv, traced, request_id, workdir, deadline)
                        why = check.judge(ctx, rec["result"], expected)
                    ok = ok and why is None
                    layers = None
                    if traced and rec["result"] and "trace" in rec["result"]:
                        layers = tracer.request_layers(rec["result"]["trace"])
                    records.append(dict(rec, slot=i, pass_no=p, traced=traced, why=why,
                                        layers=layers, what=what, result=None))
                if ok:
                    outputs[i] = ctx
            pass_walls.append(time.monotonic() - t_pass)
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(pass_walls) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return slots, records, len(pass_walls)


def normalize(records):
    """Scale every request's times to the reference machine speed.

    On a shared machine the speed drifts by tens of percent from one
    second to the next.  Each request process runs the
    calibration loop right before and right after ``main``; the request's
    times are multiplied by CAL_REF_S over the mean of those two samples.
    Returns the median calibration time of the run.
    """
    samples = []
    for r in records:
        r["raw_wall"] = r["wall"]
        if not r["cal"]:
            continue
        samples += r["cal"]
        f = CAL_REF_S / statistics.mean(r["cal"])
        r["wall"] *= f
        for key in ("setup", "req"):
            if r[key] is not None:
                r[key] *= f
        if r["layers"]:
            r["layers"]["self"] = {g: v * f for g, v in r["layers"]["self"].items()}
            r["layers"]["rank_max_call_s"] *= f
    return statistics.median(samples) if samples else CAL_REF_S


def slot_medians(records, traced, key):
    """For each slot of the list, the median of ``key`` over its requests."""
    by_slot: dict[int, list[float]] = {}
    for r in records:
        if r["traced"] == traced and r[key] is not None:
            by_slot.setdefault(r["slot"], []).append(r[key])
    return [statistics.median(v) for v in by_slot.values()]


def slot_pass_s(records, traced, key="wall"):
    """One pass: the sum over the list's slots of their median wall time."""
    return sum(slot_medians(records, traced, key))


def end_to_end(records):
    plain = [r for r in records if not r["traced"] and r["req"] is not None]
    if not plain:
        raise HarnessError("no request completed")
    # Every slot runs once per pass, so percentiles over the slots' median
    # times describe the request mix without depending on how many passes
    # fitted in the run, and each rests on a median rather than one sample.
    typical = slot_medians(records, False, "req")
    tail = statistics.quantiles(typical, n=100, method="inclusive")[TAIL_PCT - 1]
    beyond = sum(1 for r in plain if r["req"] > tail)
    metrics = {
        "setup_s": (statistics.median(r["setup"] for r in plain), "s"),
        "request_p50_s": (statistics.median(typical), "s"),
        "request_tail_s": (tail, "s"),
        "pass_s": (slot_pass_s(records, False), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in plain) / 1024, "MB"),
    }
    note = (f"request_tail_s is p{TAIL_PCT} over {len(typical)} requests' medians; "
            f"{beyond} of {len(plain)} samples lie beyond it")
    return metrics, note


def run(name, seed, seconds, trace):
    import expect
    import tracer

    expected = expect.load()
    slots, records, passes = run_workload(name, seed, seconds, trace, expected)
    cal = normalize(records)
    attempted = len(records)
    failures = [r for r in records if r["why"] is not None]
    for r in failures:
        print(f"FAILED pass {r['pass_no']} slot {r['slot']} ({r['what']}): {r['why']}")
    print(f"workload {name}, seed {seed}: {passes} pass(es) of {len(slots)} requests, "
          f"{attempted} attempted, {len(failures)} failed, "
          f"failed_frac {len(failures) / attempted:.4f}")
    if trace:
        layered = [r["layers"] for r in records if r["traced"] and r["layers"]]
        metrics = tracer.per_layer_metrics(layered, passes, slot_pass_s(records, True),
                                           slot_pass_s(records, False))
        note = "per-layer values are per pass; times are self times"
    else:
        metrics, note = end_to_end(records)
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:14.6f} {unit}")
    print(f"  ({note}; times scaled to a calibration loop of {CAL_REF_S * 1e3:.1f} ms, "
          f"which took {cal * 1e3:.2f} ms here; unscaled pass "
          f"{slot_pass_s(records, bool(trace), 'raw_wall'):.3f} s)")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["ladder", "conjugated", "structure", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    for need in (ROOT / "src" / "morphlie" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} is missing; run from the root of a "
                  "morphlie checkout", file=sys.stderr)
            return 2
    names = ["ladder", "conjugated", "structure"] if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run(name, args.seed, args.seconds, args.trace))
            if len(names) > 1:
                print(json.dumps(results[-1]))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
