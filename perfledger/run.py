"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfledger/run.py --workload cold-fuse --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports per-layer metrics (see
``spans.py``).  The metric names, units and bounds are those of
``BENCHMARK.json``.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result record --
parameters, seed, git SHA, schema version, per-phase counts, every check
and the detail metrics with quartiles -- is appended as one JSON line
to ``--out`` (default ``.perfledger/results.jsonl``), which
``compare.py`` reads.  Traced runs also write their spans to
``.perfledger/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import percentile, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"perfledger: {message}", file=sys.stderr)
    raise SystemExit(2)


def _git_sha() -> "str | None":
    # Only ask git about a checkout that is itself a repository: git would
    # otherwise search the parent directories.
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of every file under ``src/``, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def detail_metrics(workload: str, outcome, failed_frac: float) -> dict:
    """The detail metrics of one workload, each with its summary."""
    s = outcome.samples
    rows: dict = {
        "setup_s": {"unit": "s", **summary(outcome.setup_s)},
        "op_ms_p50": {"unit": "ms", **summary([1e3 * x for x in outcome.op_s])},
    }
    if workload == "cold-fuse":
        rows["fuse_s_p50"] = {"unit": "s", **summary(s["fuse_s"])}
        rows["fuse_f1"] = {"unit": "ratio", **summary(s["fuse_f1"])}
    elif workload == "serve-stream":
        latencies = s["serve_latency_ms"]
        rows["serve_p50_ms"] = {"unit": "ms", **summary(latencies)}
        rows["serve_p95_ms"] = {
            "unit": "ms", "median": percentile(latencies, 95), "n": len(latencies),
        }
        rows["serve_max_qps"] = {
            "unit": "1/s", "median": outcome.values["serve_max_qps"], "n": 1,
        }
    else:
        rows["refit_ms_p50"] = {"unit": "ms", **summary(s["refit_ms"])}
        rows["fresh_score_s_p50"] = {"unit": "s", **summary(s["fresh_score_s"])}
        rows["recover_s_p50"] = {"unit": "s", **summary(s["recover_s"])}
        rows["recover_only_ms"] = {"unit": "ms", **summary(s["recover_only_ms"])}
        rows["cold_refit_s"] = {"unit": "s", **summary(s["cold_refit_s"])}
    rows["failed_frac"] = {"unit": "ratio", "median": failed_frac, "n": outcome.attempted}
    rows["peak_rss_mb"] = {
        "unit": "MB", "median": outcome.values["peak_rss_mb"], "n": 1,
    }
    return rows


def end_to_end(outcome) -> dict:
    """The ``end_to_end`` metrics of ``BENCHMARK.json`` for one run.

    ``op_ms_p50`` is the median latency of the workload's operation: one
    ``fuse`` call (cold-fuse), one request from its scheduled send time
    at the reference rate (serve-stream), one refit step with its full
    score on the new generation (refit-stream).  ``peak_rss_mb`` is the
    process's peak resident memory up to the end of the measured phase;
    the output checks run after it and are not counted.
    """
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "op_ms_p50": 1e3 * statistics.median(outcome.op_s),
        "peak_rss_mb": outcome.values["peak_rss_mb"],
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--params", type=json.loads, default={},
        help="JSON object overriding generator parameters (default: the "
        "48-source x 4000-triple cell)",
    )
    parser.add_argument(
        "--out", type=Path, default=ROOT / ".perfledger" / "results.jsonl",
        help="result records are appended here, one JSON line per run",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import workloads  # noqa: E402  (needs the paths above)
    from generator import BOOK_PARAMS, PLANTED_GROUPS, SCHEMA_VERSION, input_key
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}")
    started = time.time()
    tracer = Tracer() if args.trace else None
    if not isinstance(args.params, dict):
        _fail("--params must be a JSON object")
    unknown = set(args.params) - set(BOOK_PARAMS)
    if unknown:
        _fail(f"unknown generator parameters {sorted(unknown)}")
    params = {**BOOK_PARAMS, **args.params}
    cfg = workloads.Config(
        seed=args.seed, seconds=args.seconds,
        params=params, scratch=ROOT / ".perfledger" / "tmp",
    )
    outcome = workloads.WORKLOADS[args.workload](cfg, tracer)
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    correct = all(check["ok"] for check in outcome.checks) and outcome.failed == 0

    if args.trace:
        layer = {m["name"]: float(outcome.layer.get(m["name"], 0.0))
                 for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        spans_path = (ROOT / ".perfledger" / "spans"
                      / f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        chosen = layer
    else:
        e2e = end_to_end(outcome)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        chosen = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in chosen.items()}
    detail = detail_metrics(args.workload, outcome, failed_frac)

    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generator": PLANTED_GROUPS,
        "params": params,
        "input_key": input_key(PLANTED_GROUPS, params, args.seed),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "started_at": started,
        "wall_s": time.time() - started,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "detail_metrics": detail,
        "phases": outcome.phases,
        "checks": outcome.checks,
        "values": outcome.values,
        "datasets": outcome.datasets,
        "layer_all": outcome.layer,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {record['git_sha'] or '-'}  schema {SCHEMA_VERSION}")
    for name, phase in outcome.phases.items():
        print(f"  phase {name:<22} sent {phase['sent']:>5}  "
              f"succeeded {phase['succeeded']:>5}  failed {phase['failed']:>5}")
    worst = max((c["max_abs_diff"] for c in outcome.checks), default=0.0)
    passed = sum(1 for c in outcome.checks if c["ok"])
    print(f"  checks {passed}/{len(outcome.checks)} passed, "
          f"max |diff| {worst!r}")
    for name, row in detail.items():
        quart = (f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}]"
                 if "q1" in row else "")
        median = row.get("median", float("nan"))
        print(f"  {name:<34} {median:>12.6g} {row['unit']:<6} n={row['n']}{quart}")
    for name, metric in metrics.items():
        print(f"  metric {name:<34} {metric['value']:>12.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
