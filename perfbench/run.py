#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The last stdout line is the result JSON
({"correct", "attempted", "failed", "metrics"}); build output goes to
stderr. With --trace 1 the traces and per-layer numbers are also written
to .bench_out/<workload>-seed<n>/.

Tools for checking the benchmark itself (see perfbench/README.md):

    python3 perfbench/run.py --selftest [--workload <name>]
        same seed twice -> identical simulated metrics and train_loss;
        another seed -> different inputs, so different simulated metrics.
    python3 perfbench/run.py --spread --workload <name> [--runs 10] [--trace 0]
        runs <runs> seeds and prints each metric's median and quartile
        spread (IQR / median), the figure the bounds in BENCHMARK.json gate.
    python3 perfbench/run.py --saturation
        sweeps gpt2_serve_fleet's offered rate and prints throughput, TTFT
        and the backlog check, the measurement behind its offered rate.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170

# mt_big_3d can run only one 1000-step rig per process (README.md, "Known
# defect"), so an untraced run of it is this many processes on seeds derived
# from --seed, and each metric is the median over them.
PROCESSES = {"mt_big_3d": 3}

# End-to-end metrics that come from the simulated clock: a pure function of
# the seed. The rest are host measurements.
SIM_METRICS = ["sim_tokens_per_s", "latency_p50_ms", "latency_p99_ms",
               "token_time_p50_us", "token_time_p99_us", "core.train_loss"]


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build of the benchmark and library."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        log("perfbench: run from the repository root (library sources not found)")
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs the benchmark binary; returns (result dict, stdout) or (None, stdout)."""
    out_dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--out", out_dir, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:  # run() kills and reaps the child
        log(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return None, e.stdout or ""
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        log(f"perfbench: benchmark binary exited with {proc.returncode}")
        return None, proc.stdout
    return json.loads(lines[-1]), proc.stdout


def run_workload(workload, seed, seconds, trace, extra=(), echo=True):
    """One benchmark run: run_binary, or the median over PROCESSES runs."""
    k = 1 if trace else PROCESSES.get(workload, 1)
    if k == 1:
        return run_binary(workload, seed, seconds, trace, extra, echo)
    runs, outs = [], []
    for i in range(k):
        res, out = run_binary(workload, seed * k + i, seconds, trace, extra, echo)
        if res is None:
            return None, out
        runs.append(res)
        outs.append(out)
    merged = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"] for r in runs),
                   "unit": m["unit"]}
            for name, m in runs[0]["metrics"].items()},
    }
    return merged, "".join(outs)


def check_result(res, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    want = expected_metrics(trace)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    return None


def info_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("info: "):
            return json.loads(line[len("info: "):])
    return {}


def all_metrics(workload, seed):
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}", "metrics.json")) as f:
        return json.load(f)


def selftest(workloads):
    ok = True
    for w in workloads:
        runs = {}
        for tag, seed in (("a", 101), ("a2", 101), ("b", 202)):
            res, _ = run_binary(w, seed, 1, True, echo=False)
            if res is None or not res["correct"]:
                log(f"selftest {w}: run {tag} failed")
                ok = False
                break
            runs[tag] = all_metrics(w, seed)
            runs[tag + "_layers"] = res["metrics"]
        else:
            a, a2, b = runs["a"], runs["a2"], runs["b"]
            sims = [k for k in SIM_METRICS if k in a]
            same = all(a[k] == a2[k] for k in sims)
            # Simulated per-layer numbers repeat too (host ones need not).
            layer_same = all(
                runs["a_layers"][k] == runs["a2_layers"][k]
                for k in runs["a_layers"]
                if not k.endswith("_s") and "host" not in k and k != "bench.trace_overhead_frac")
            differs = any(a[k] != b[k] for k in sims)
            print(f"selftest {w}: same seed identical: {same and layer_same}; "
                  f"other seed changes inputs: {differs}")
            ok = ok and same and layer_same and differs
    return ok


def spread(workload, runs, trace, seconds):
    values = {}
    for i in range(runs):
        res, _ = run_workload(workload, 1000 + i, seconds, trace, echo=False)
        if res is None or not res["correct"]:
            log(f"spread: run {i} failed")
            return False
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {}
    if not trace:
        with open("BENCHMARK.json") as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    print(f"{workload}: {runs} runs, seeds 1000..{1000 + runs - 1}")
    for k, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        s = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(k)
        flag = "" if b is None else (" ok" if s <= b / 3 else " WIDE")
        if len(set(v)) == 1:
            flag += " SAME-ON-EVERY-RUN"
        print(f"  {k:32s} median {med:14.6g}  spread {s:7.4f}"
              + ("" if b is None else f"  bound {b}{flag}"))
    return True


def saturation():
    print(f"{'rate/s':>8} {'offered':>8} {'sim tok/s':>10} {'ttft p50':>9} "
          f"{'ttft p99':>9} {'p50 1st q':>10} {'p50 last q':>11}")
    for rate in (200, 300, 400, 500, 550, 600, 700, 800):
        res, out = run_binary("gpt2_serve_fleet", 1, 0.001, False,
                              extra=["--rate", str(rate)], echo=False)
        if res is None:
            return False
        m = {k: v["value"] for k, v in res["metrics"].items()}
        i = info_line(out)
        print(f"{rate:8d} {i['offered_rate_per_s']:8.1f} {m['sim_tokens_per_s']:10.0f} "
              f"{m['latency_p50_ms']:9.2f} {m['latency_p99_ms']:9.2f} "
              f"{i['ttft_p50_first_quarter_ms']:10.2f} {i['ttft_p50_last_quarter_ms']:11.2f}")
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--spread", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--saturation", action="store_true")
    a = p.parse_args()

    if not build():
        return 1
    if a.selftest:
        ws = [a.workload] if a.workload else ["mt_big_3d", "mt_small_exec", "gpt2_serve_fleet"]
        return 0 if selftest(ws) else 1
    if a.saturation:
        return 0 if saturation() else 1
    if not a.workload:
        p.error("--workload is required")
    if a.spread:
        return 0 if spread(a.workload, a.runs, bool(a.trace), a.seconds) else 1

    res, _ = run_workload(a.workload, a.seed, a.seconds, bool(a.trace))
    if res is None:
        return 1
    problem = check_result(res, bool(a.trace))
    if problem:
        log("perfbench:", problem)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
