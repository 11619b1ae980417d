"""Steadiness check: run every workload on several seeds and report spreads.

    python3 perfbench/steady.py [--out perfbench/seed_numbers.json]

For each workload, ten untraced runs (seeds 1..10) give each
end-to-end metric's median, quartiles and spread, the distance between the
quartiles as a share of the median; every spread should stay below a third
of the metric's bound in BENCHMARK.json. The process CPU time per round
(`round_cpu_s.p50`, from the manifest) is summarised the same way, to compare
with the wall-time spreads. Two traced runs (seeds 1 and 2) give the
per-layer medians and each command's layer shares. Runs are sequential, so
they never compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import WORKLOADS  # noqa: E402
from run import ROOT, invoke  # noqa: E402

RUNS = 10
TRACED_RUNS = 2


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        cpu: list[float] = []
        attempted = failed = 0
        manifest = None
        for seed in range(1, RUNS + 1):
            manifest, result = invoke(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            cpu.append(manifest["round_cpu_s.p50"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        entry = {"end_to_end": {k: summary(v) for k, v in values.items()},
                 "round_cpu_s.p50": summary(cpu),
                 "fail_frac": failed / attempted if attempted else None,
                 "manifest": manifest}
        layers: dict[str, list[float]] = {}
        shares: dict[str, dict[str, list[float]]] = {}
        for seed in range(1, TRACED_RUNS + 1):
            traced_manifest, result = invoke(workload, seed, seconds, 1)
            for name, metric in result["metrics"].items():
                layers.setdefault(name, []).append(metric["value"])
            for command, table in traced_manifest["shares"].items():
                for layer, share in table.items():
                    shares.setdefault(command, {}).setdefault(layer, []).append(share)
        entry["per_layer"] = {k: statistics.median(v) for k, v in layers.items()}
        entry["shares"] = {c: {k: statistics.median(v) for k, v in t.items()}
                           for c, t in shares.items()}
        report["workloads"][workload] = entry
        for name, stats in [*entry["end_to_end"].items(),
                            ("round_cpu_s.p50", entry["round_cpu_s.p50"])]:
            flag = ""
            if name in bounds and "spread" in stats:
                flag = "ok" if stats["spread"] <= bounds[name] / 3 else "WIDE"
            print(f"  {workload} {name}: median {stats['median']:.5g} "
                  f"spread {stats.get('spread', float('nan')):.4f} {flag}", flush=True)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
