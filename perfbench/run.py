"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload compile|run|serve --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the ``end_to_end`` metrics of ``BENCHMARK.json``, measured untraced;
with ``--trace 1`` its ``per_layer`` metrics, from a run whose ops are
timed untraced and then traced.  Per-layer metrics the workload cannot
produce (the service layers outside ``serve``, say) are listed as
missing on standard error, never reported as zero.

Set-up times, and the times and rates of the closed-loop workloads
(``compile``, ``run``), are rescaled to a reference host speed
calibrated around every round of work (``perfbench/speed.py``), because
the shared host's speed drifts by up to a factor of two.  Served
latencies and rates, and per-layer times, are as measured.

A full report (environment, samples, ladder, every layer, failures) is
written to ``perfbench/out/<workload>-seed<N>-trace<T>.json``, and a
traced run writes its spans next to it as ``.spans.jsonl``.  The exit
status is 0 only when every output matched the reuse=False oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# per-layer metrics named for the benchmark that only some workloads
# can produce (BENCHMARK.json lists those every workload produces)
EXTRA_LAYERS = {
    "api.session_self_s": "s",
    "service.server_ms": "ms",
    "service.transport_ms": "ms",
    "service.wait_ms": "ms",
    "service.rejected": "count",
    "loadgen.gen_lag_ms": "ms",
}


def pin_environment() -> list:
    """Drop every ``REPRO_*`` variable (backend, VM engine, tracing,
    cache directory) so each commit is measured on its defaults."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision() -> str:
    """The git revision, or a digest of the package sources when the
    checkout is not a git repository."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(args, cleared: list) -> dict:
    from repro.runtime.machine import Machine

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "revision": _revision(),
        "seed": args.seed,
        "seconds": args.seconds,
        "backend": Machine().backend,
        "cleared_env": cleared,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("compile", "run", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fast", action="store_true", help="the small configuration the tests use"
    )
    args = parser.parse_args(argv)
    # a terminated run unwinds normally, so every server it started stops
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    cleared = pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    from perfbench.workloads import WORKLOADS, Config

    if args.fast:
        config = Config.fast(args.seed)
    else:
        config = Config(seconds=args.seconds, seed=args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    outcome = WORKLOADS[args.workload](config, trace, OUT)

    if trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        produced = outcome.layers
        named = dict(wanted, **EXTRA_LAYERS)
        if args.workload == "compile":
            named.update({k: "s" for k in produced if k.startswith("compile.")})
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        produced = {name: value for name, (value, _unit) in outcome.metrics.items()}
        named = wanted
    missing = sorted(set(named) - set(produced))
    absent = sorted(set(wanted) - set(produced))
    if absent:
        print(f"workload {args.workload} did not produce {absent}", file=sys.stderr)
        return 3

    correct = outcome.failed == 0 and not outcome.problems
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "environment": environment(args, cleared),
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_ratio": outcome.failed / max(1, outcome.attempted),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in outcome.metrics.items()},
        "layers": {
            name: {"value": value, "unit": named.get(name, "")}
            for name, value in sorted(outcome.layers.items())
        },
        "missing": missing,
        "details": outcome.details,
        "problems": outcome.problems,
    }
    stem.with_suffix(".json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )
    if trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in outcome.spans:
                fh.write(json.dumps(span, sort_keys=True, default=str) + "\n")
    if missing:
        print(f"missing per-layer metrics on {args.workload}: {', '.join(missing)}", file=sys.stderr)
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"report: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": produced[name], "unit": unit}
                    for name, unit in wanted.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
