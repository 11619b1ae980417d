"""convstruct benchmark: one workload per run, or every workload with `all`.

    python3 perfbench/run.py --workload boot-baseline --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every metric, every workload
    python3 perfbench/run.py --record-reference      # rewrite the seed-0 references

Run from the repository root; the code under test is imported from src/.
A run generates its corpus in this process (perfbench/gen.py), times the
import of convstruct.cli in fresh interpreters (set-up), then starts the
workload process (perfbench/client.py) with BLAS threads pinned to 1. The
last line of standard output is the JSON result; the line before it is the
run manifest. Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import CORPORA, WORKLOADS, generate  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3  # measured before the workload, and as many after
CLIENT_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COMMANDS = [name for knobs in CORPORA.values() for name in knobs["commands"]]
END_TO_END = {"lines_per_s": "lines/s", "round_s.p50": "s", "setup_s": "s",
              "peak_rss_mib": "MiB"}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                               else "")
    return env


def time_imports(env: dict, count: int) -> list[float]:
    """Wall times, seen from outside, of fresh interpreters importing convstruct.cli."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import convstruct.cli"], env=env,
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=10)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError("importing convstruct.cli failed: "
                               + done.stderr.decode(errors="replace")[-500:])
    return samples


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def prepare(workload: str, seed: int, data: Path) -> dict:
    """Generate the workload's corpora and the combined expectations file."""
    shutil.rmtree(data, ignore_errors=True)
    expects = generate(workload, seed, data)
    (data / "expect.json").write_text(json.dumps(expects), encoding="utf-8")
    return expects


def run_client(data: Path, seconds: float, trace: int, env: dict,
               reference: Path | None = None, record: Path | None = None) -> dict:
    result_path = data / "result.json"
    cmd = [sys.executable, str(HERE / "client.py"), "--data", str(data), "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(result_path)]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    if record is not None:
        cmd += ["--record-reference", str(record)]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CLIENT_TIMEOUT_S)
    if done.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"workload process failed ({done.returncode}):\n"
                           + done.stderr[-2000:])
    return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(client: dict, setup_s: float) -> dict:
    """Throughput over every timed round and the median round. The host's
    speed drifts between minutes; the whole run averages over more of that
    drift than a low quantile of its rounds does."""
    rounds = client["rounds"]
    return {
        "lines_per_s": sum(r[2] for r in rounds) / sum(r[1] for r in rounds),
        "round_s.p50": statistics.median(r[1] for r in rounds),
        "setup_s": setup_s,
        "peak_rss_mib": client["peak_rss_mib"],
    }


def _round_cpu_p50(client: dict) -> float:
    """Median of the process CPU time the commands of one round took."""
    return statistics.median(r[4] for r in client["rounds"])


def per_layer(client: dict) -> dict:
    trace = client["trace"]
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in trace["metrics"].items()}
    for name in COMMANDS:
        times = [r[3][name] for r in client["rounds"] if name in r[3]]
        metrics[f"cmd.{name}.s"] = {"value": statistics.median(times) if times else 0.0,
                                    "unit": "s"}
    metrics["round_cpu_s.p50"] = {"value": _round_cpu_p50(client), "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": trace["overhead_frac"], "unit": "ratio"}
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    if not (ROOT / "src" / "convstruct" / "cli.py").is_file():
        sys.stderr.write(f"error: no convstruct sources under {ROOT / 'src'}\n")
        return 2
    env = _child_env()
    data = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    try:
        start = time.perf_counter()
        expects = prepare(workload, seed, data)
        generate_s = time.perf_counter() - start
        # set-up samples before and after the workload span more of the run;
        # the first import is discarded because it may write bytecode
        setup = time_imports(env, SETUP_SAMPLES + 1)[1:] if trace == 0 else []
        reference = HERE / "reference" if seed == 0 else None
        client = run_client(data, seconds, trace, env, reference)
        if trace == 0:
            setup += time_imports(env, SETUP_SAMPLES)
        spans = data / "spans.jsonl"
        if spans.exists():
            kept = WORK / "spans" / f"{data.name}.jsonl"
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(spans, kept)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)

    metrics = ({k: {"value": v, "unit": END_TO_END[k]}
                for k, v in end_to_end(client, statistics.median(setup)).items()}
               if trace == 0 else per_layer(client))
    manifest = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(), "src_sha256": _tree_digest(ROOT / "src"),
        "knobs": {c: e["knobs"] for c, e in expects.items()},
        "n_utterances": {c: e["n_utterances"] for c, e in expects.items()},
        "rounds": len(client["rounds"]),
        "round_cpu_s.p50": _round_cpu_p50(client),
        "traced_rounds": len(client.get("traced_rounds", [])),
        "warmup_s": client["warmup_s"], "generate_s": generate_s,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": client["python"],
        "numpy": client["numpy"], "scipy": client["scipy"],
        "thread_env": client["thread_env"], "failures": client["failures"],
        "references_checked": client["references"],
    }
    if trace:
        manifest.update({k: client["trace"][k]
                         for k in ("shares", "missing", "counter_errors")})
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({"correct": client["failed"] == 0,
                      "attempted": client["attempted"], "failed": client["failed"],
                      "metrics": metrics}))
    return 0


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run of this script in a fresh interpreter: (manifest, result)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed "
                           f"({done.returncode}):\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["manifest"], json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, as separate runs of this script."""
    report = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                manifest, result = invoke(workload, seed, seconds, trace)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                sys.stderr.write(f"error: {exc}\n")
                return 1
            entry = report.setdefault(workload, {"metrics": {}})
            entry["metrics"].update(result["metrics"])
            entry[f"trace{trace}"] = {k: result[k]
                                      for k in ("correct", "attempted", "failed")}
            if trace:
                entry["shares"] = manifest["shares"]
            else:
                entry["metrics"]["fail_frac"] = {
                    "value": result["failed"] / result["attempted"], "unit": "ratio"}
                entry["rounds"] = manifest["rounds"]
    for workload, entry in report.items():
        print(f"== {workload} ({entry['rounds']} untraced rounds)")
        for name, metric in entry["metrics"].items():
            print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(report))
    return 0


def record_reference(seconds: float) -> int:
    env = _child_env()
    target = HERE / "reference"
    target.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        data = WORK / f"{workload}-reference"
        try:
            prepare(workload, 0, data)
            run_client(data, seconds, 0, env, record=target)
        finally:
            shutil.rmtree(data, ignore_errors=True)
        print(f"recorded {', '.join(WORKLOADS[workload])} in {target}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.record_reference:
        return record_reference(args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
