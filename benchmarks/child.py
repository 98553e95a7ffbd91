"""Child processes of the benchmark: set-up, API round, traced run.

    python3 benchmarks/child.py setup --workload W --seed N --rundir DIR
    python3 benchmarks/child.py api   --workload W --seed N --rundir DIR --round R
    python3 benchmarks/child.py trace --workload W --seed N --rundir DIR --seconds S --spans FILE

Each prints one JSON object as its last line of standard output. The
package import is timed before anything else imports numpy, so it is the
import a user pays for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import time
from pathlib import Path

import peak  # noqa: F401  (writes this process's peak RSS at exit)


def _import_trendlet() -> float:
    start = time.perf_counter()
    import trendlet  # noqa: F401
    import trendlet.cli  # noqa: F401

    return time.perf_counter() - start


def cmd_setup(args) -> dict:
    import_s = _import_trendlet()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    workloads.build_inputs(wl, args.seed, args.rundir)
    return {"setup_s": import_s + time.perf_counter() - start}


def cmd_api(args) -> dict:
    _import_trendlet()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    problems, pool = workloads.build_api_inputs(wl, args.seed, args.round)
    return workloads.api_round(problems, pool, wl.fit_reps, args.seed)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir()) if path.is_dir() else 0


def _cli_round_in_process(wl, rundir: Path, meta: dict, z) -> tuple[int, int, list[str], list[str], int]:
    """The CLI walkthrough through ``trendlet.cli.main`` in this process.

    Returns (attempted, failed, errors, unexpected failures, bytes written).
    """
    import shutil

    from trendlet import cli

    import workloads

    ops = workloads.cli_ops(wl, rundir, meta)
    ok, unexpected, written = set(), [], 0
    for op in ops:
        outdir = rundir / op.tag
        shutil.rmtree(outdir, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        if code == 0:
            ok.add(op.tag)
            if op.metric:  # as in run.py, the known failure stays out of the figures
                written += _dir_bytes(outdir)
        elif not (op.known_failure and op.known_failure in err.getvalue()):
            unexpected.append(f"{op.tag} exited {code}: {err.getvalue().strip()}")
    errors = workloads.check_cli_outputs(rundir, ops, ok, meta, z)
    return len(ops), len(ops) - len(ok), errors, unexpected, written


def cmd_trace(args) -> dict:
    """Untraced and traced rounds in turn, in this process, for at most ``--seconds``
    (no pair of rounds is started that, at the pace of the slowest pair, would end past them)."""
    import_s = _import_trendlet()
    import checks
    import tracing
    import workloads
    from trendlet import filterbank

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    tracer.install()
    with tracer.span(tracing.SETUP):
        workloads.build_inputs(wl, args.seed, args.rundir)
    tracer.uninstall()
    meta = json.loads((args.rundir / "meta.json").read_text(encoding="utf-8"))
    z = checks.zscore(checks.panel_column(args.rundir / "panel.csv", workloads.reconstruct_entity(wl, meta)))

    totals = {"attempted": 0, "failed": 0, "errors": [], "failures": []}
    walls = {False: [], True: []}
    lookups = written = 0
    start, slowest = time.perf_counter(), 0.0
    while not walls[True] or time.perf_counter() - start + slowest <= args.seconds:
        pair_start = time.perf_counter()
        pair = len(walls[True])
        problems, pool = workloads.build_api_inputs(wl, args.seed, pair)
        # alternate which of the pair runs first, so warm-up does not favour one side
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            if traced:
                tracer.install()
                before = tracer.lookups
            t0 = time.perf_counter()
            with tracer.span(tracing.ROUND) if traced else contextlib.nullcontext():
                attempted, failed, errors, unexpected, nbytes = _cli_round_in_process(wl, args.rundir, meta, z)
                api = workloads.api_round(problems, pool, wl.fit_reps, args.seed)
            walls[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
                lookups += tracer.lookups - before
                written += nbytes
            totals["attempted"] += attempted + api["attempted"]
            totals["failed"] += failed + api["failed"]
            totals["errors"] += errors + api["errors"]
            totals["failures"] += unexpected + api["failures"]
        slowest = max(slowest, time.perf_counter() - pair_start)

    def bank_of(name):
        wf = filterbank.get_filter(name)
        return tuple(tuple(f) for f in (wf.dec_lo, wf.dec_hi, wf.rec_lo, wf.rec_hi))

    rounds = len(walls[True])
    metrics = tracing.layer_metrics(tracer.spans, rounds, import_s, lookups, written, bank_of)
    untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "rounds": rounds,
        "untraced_round_s": untraced,
        "traced_round_s": traced,
        "overhead": traced / untraced - 1.0,
        "layer_self_s": {k: v / rounds for k, v in tracing.layer_self_times(tracer.spans).items()},
        "metrics": metrics,
    }
    tracer.write(args.spans, summary)
    return {**totals, "metrics": metrics, "trace": {k: summary[k] for k in summary if k != "metrics"}}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "api", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rundir", type=Path, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    run = {"setup": cmd_setup, "api": cmd_api, "trace": cmd_trace}[args.mode]
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
