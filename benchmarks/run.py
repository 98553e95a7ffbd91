"""trendlet benchmark: CLI walkthrough and API operations at paper and large scale.

    python3 benchmarks/run.py [--workload paper|large|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` each workload sets up its inputs several times
(reporting the median set-up time), then runs whole rounds for at most
``--seconds``: it starts no round that, at the pace of the slowest round so
far, would end past them (the first round always runs). Every command and API
call runs in a child process that reports its own peak RSS at exit (peak.py).
With ``--trace 1`` one child process runs the same rounds in-process,
alternately untraced and traced, under the same deadline, and reports
per-layer metrics derived from the spans. Every output is checked (see
checks.py). The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170
CLI_MAIN = "import sys\nimport peak\nfrom trendlet.cli import main\nsys.exit(main())"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "cluster_s": "s",
    "stability_s": "s",
    "pca_s": "s",
    "reconstruct_s": "s",
    "output_mb": "MB",
    "peak_rss_mb": "MB",
    "run_single_s": "s",
    "reconstructions_per_s": "1/s",
}


@dataclass
class Child:
    """A finished child process: wall seconds, exit code, own peak RSS in bytes, output."""

    wall: float
    code: int
    rss: int
    stdout: str
    stderr: str

    def result(self) -> dict:
        """The JSON object a benchmark child prints last."""
        if self.code != 0:
            raise RuntimeError(f"benchmark child exited {self.code}:\n{self.stderr}")
        return json.loads(self.stdout.strip().splitlines()[-1])


def run_child(argv: list[str], log_stem: Path) -> Child:
    """Run ``argv`` from the checkout root and wait for it; a child that runs past
    CHILD_TIMEOUT_S is killed and counts as failed.

    The child imports ``peak``, which writes its own peak RSS to the file named
    in BENCH_HWM_FILE (see peak.py for why not ``ru_maxrss``).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    hwm = log_stem.with_suffix(".hwm")
    hwm.unlink(missing_ok=True)
    env["BENCH_HWM_FILE"] = str(hwm)
    out, err = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    note = ""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        try:
            code = subprocess.run(argv, stdout=fo, stderr=fe, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code, note = -9, f"\nkilled after {CHILD_TIMEOUT_S} s"
        wall = time.perf_counter() - start
    return Child(
        wall=wall,
        code=code,
        rss=int(hwm.read_text(encoding="ascii")) * 1024 if hwm.exists() else 0,
        stdout=out.read_text(encoding="utf-8", errors="replace"),
        stderr=err.read_text(encoding="utf-8", errors="replace") + note,
    )


def child(mode: str, wl, seed: int, rundir: Path, *extra: str) -> Child:
    argv = [sys.executable, str(HERE / "child.py"), mode, "--workload", wl.name,
            "--seed", str(seed), "--rundir", str(rundir), *extra]
    return run_child(argv, rundir / f"_{mode}")


def dir_digest(path: Path) -> tuple[int, str]:
    digest, size = hashlib.sha256(), 0
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        size += len(data)
        digest.update(f.name.encode() + b"\0" + data)
    return size, digest.hexdigest()


def measure(wl, seed: int, seconds: float, rundir: Path) -> dict:
    import checks
    import workloads

    setups = [child("setup", wl, seed, rundir).result()["setup_s"] for _ in range(SETUP_REPS)]
    meta = json.loads((rundir / "meta.json").read_text(encoding="utf-8"))
    ops = workloads.cli_ops(wl, rundir, meta)
    z = checks.zscore(checks.panel_column(rundir / "panel.csv", workloads.reconstruct_entity(wl, meta)))
    times = {name: [] for name in END_TO_END}
    out = {"attempted": 0, "failed": 0, "errors": [], "failures": [], "known": set()}
    peak_rss, written, digests, rounds, slowest = 0, None, None, 0, 0.0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start + slowest <= seconds:
        round_start = time.perf_counter()
        rounds += 1
        ok, sizes = set(), {}
        for op in ops:
            shutil.rmtree(rundir / op.tag, ignore_errors=True)
            proc = run_child([sys.executable, "-c", CLI_MAIN, *op.argv], rundir / f"_{op.tag}")
            out["attempted"] += 1
            peak_rss = max(peak_rss, proc.rss)
            if proc.code != 0:
                out["failed"] += 1
                if op.known_failure and op.known_failure in proc.stderr:
                    out["known"].add(f"{op.tag} exits {proc.code}: {proc.stderr.strip()}")
                else:
                    out["failures"].append(f"{op.tag} exited {proc.code}: {proc.stderr.strip()}")
                continue
            ok.add(op.tag)
            if op.metric:  # the known failure stays out of the figures once it succeeds
                times[op.metric].append(proc.wall)
            sizes[op.tag] = dir_digest(rundir / op.tag)
        out["errors"] += workloads.check_cli_outputs(rundir, ops, ok, meta, z)
        if digests is None:
            digests = sizes
            written = sum(sizes[op.tag][0] for op in ops if op.metric and op.tag in sizes)
        out["errors"] += [f"{tag}: output differs from round 1" for tag in sizes
                          if tag in digests and sizes[tag] != digests[tag]]

        api_proc = child("api", wl, seed, rundir, "--round", str(rounds - 1))
        peak_rss = max(peak_rss, api_proc.rss)
        api = api_proc.result()
        for key in ("attempted", "failed", "errors", "failures"):
            out[key] += api[key]
        times["run_single_s"] += api["run_single_s"]
        if api["reconstructions_per_s"] is not None:
            times["reconstructions_per_s"].append(api["reconstructions_per_s"])
        slowest = max(slowest, time.perf_counter() - round_start)

    values = {
        "setup_s": statistics.median(setups),
        "output_mb": written / 1e6,
        "peak_rss_mb": peak_rss / 1e6,
        # the mean, not the median: single timings on a shared host are bimodal, and with
        # a few samples per run the median jumps between the two modes
        **{name: statistics.fmean(times[name]) for name in END_TO_END if times[name]},
    }
    out["rounds"] = rounds
    out["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    out["samples"] = {name: len(times[name]) for name in END_TO_END if times[name]}
    samples = {"setup_s": setups, **{name: times[name] for name in END_TO_END if times[name]}}
    (RUNS / f"samples-{wl.name}-{seed}.json").write_text(json.dumps(samples), encoding="utf-8")
    return out


def traced(wl, seed: int, seconds: float, rundir: Path) -> dict:
    import tracing

    spans = RUNS / f"spans-{wl.name}-{seed}.jsonl"
    out = child("trace", wl, seed, rundir, "--seconds", str(seconds), "--spans", str(spans)).result()
    out["metrics"] = {name: {"value": out["metrics"][name], "unit": unit}
                      for name, (unit, _) in tracing.PER_LAYER.items()}
    out["spans_file"] = str(spans.relative_to(ROOT))
    return out


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    rundir = RUNS / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        return (traced if trace else measure)(wl, seed, seconds, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def report(name: str, res: dict) -> dict:
    """Print a workload's figures; return its result object."""
    correct = not res["errors"]
    print(f"workload {name}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {str(correct).lower()}, rounds {res.get('rounds', res.get('trace', {}).get('rounds'))}")
    for name_, m in res["metrics"].items():
        n = res.get("samples", {}).get(name_)
        print(f"  {name_:32s} {m['value']:.6g} {m['unit']}" + (f"  (mean of {n})" if n else ""))
    if "trace" in res:
        t = res["trace"]
        print(f"  tracing overhead: traced round {t['traced_round_s']:.3f} s against untraced "
              f"{t['untraced_round_s']:.3f} s ({100 * t['overhead']:+.1f}%); spans in {res['spans_file']}")
        print("  layer self time per round: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in sorted(t["layer_self_s"].items(), key=lambda kv: -kv[1])))
    for line in sorted(res.get("known", ())):
        print(f"  known failure: {line}")
    for line in res["failures"]:
        print(f"  FAILED: {line}")
    for line in res["errors"]:
        print(f"  WRONG: {line}")
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": res["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trendlet" / "__init__.py").is_file():
        print(f"error: no trendlet sources at {SRC / 'trendlet'}; run from a source checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))} or all")
    results = {n: report(n, run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)))
               for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
