#!/usr/bin/env python3
"""MiniHive benchmark runner.

Run one measurement (builds the benchmark first, from the checkout's
sources, into .bench_build/perfbench):

    python3 perfbench/run.py --workload scan_agg --seed 1 --seconds 10 --trace 0

An untraced run is made of SUB_RUNS processes that split --seconds between
them; each metric is the median over the sub-runs. The last line of
standard output is one JSON object with the keys "correct", "attempted",
"failed" and "metrics". Every run also appends its full record (all
end-to-end metrics with sample counts, host fingerprint) to
.bench_build/perfbench/results.jsonl, or to --results FILE.

Compare two sets of records (for example the parent commit's and a
change's), metric by metric and workload by workload:

    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl

Run the benchmark's own tests (percentile rule, quartiles, compare
verdicts, result checks):

    python3 perfbench/run.py selftest
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "minihive_perfbench")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SPEC_JSON = os.path.join(HERE, "spec.json")
# All sub-runs of one run together (the build comes before).
RUN_TIMEOUT_S = 170
# An untraced run is split into this many processes of equal length, all on
# the same seed; every metric is the median over them. A slowdown that
# lasts one process (thread placement, a busy neighbour on the host) then
# moves one sub-run instead of the result.
SUB_RUNS = 3


def fail(message, code=1):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Statistics shared with compare mode and the tests.
# ---------------------------------------------------------------------------

def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median (0 when every value
    is the same, infinite when only the median is 0)."""
    q1, med, q3 = quartiles(values)
    if q1 == q3:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(base, change, direction, bound):
    """Judges one (metric, workload) pair from two sets of runs.

    improved   the change wins at least 9/10 of the pairs (ties count for
               neither) and the medians differ by more than the base's
               interquartile distance;
    no worse   the change's median is not worse than the base's by more
               than `bound`, and the base's spread is within the bound;
    worse      the change's median is worse by more than `bound`, and the
               base's spread is within the bound;
    unresolved otherwise: the spread is wider than the bound, unless every
               change run reads better than every base run.
    Returns (verdict, fraction of pairs won by the change).
    """
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if better(c, b, direction))
    won = wins / len(pairs) if pairs else 0.0
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    if won >= 0.9 and abs(c_med - b_med) > (b_q3 - b_q1):
        return "improved", won
    if direction == "lower":
        all_better = max(change) < min(base)
        worsening = (c_med - b_med) / abs(b_med) if b_med else 0.0
    else:
        all_better = min(change) > max(base)
        worsening = (b_med - c_med) / abs(b_med) if b_med else 0.0
    if all_better:
        return "no worse", won
    if relative_spread(base) > bound:
        return "unresolved", won
    return ("worse" if worsening > bound else "no worse"), won


# ---------------------------------------------------------------------------
# Metric catalogue: BENCHMARK.json (gated metrics) plus spec.json (the
# workload-specific end-to-end metrics and the per-layer predictions).
# ---------------------------------------------------------------------------

def metric_catalogue(benchmark, spec):
    """name -> (direction, bound) for every end-to-end metric."""
    catalogue = {}
    for m in benchmark["end_to_end"]:
        catalogue[m["name"]] = (m["better"], m["bound"])
    for m in spec["workload_metrics"]:
        catalogue[m["name"]] = (m["better"], m["bound"])
    return catalogue


def check_result_line(line, benchmark, trace):
    """Validates the final JSON line against BENCHMARK.json."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys are %s" % sorted(result))
    section = "per_layer" if trace else "end_to_end"
    expected = sorted(m["name"] for m in benchmark[section])
    if sorted(result["metrics"]) != expected:
        missing = set(expected) - set(result["metrics"])
        extra = set(result["metrics"]) - set(expected)
        raise ValueError("metrics differ from BENCHMARK.json %s: missing %s, "
                         "extra %s" % (section, sorted(missing), sorted(extra)))
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")
    return result


# ---------------------------------------------------------------------------
# Build and run.
# ---------------------------------------------------------------------------

def build(build_dir, extra_args=(), target=None):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("MiniHive sources (src/) are missing next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure every time: the commit (or source fingerprint) recorded in
    # each result is taken at configure time.
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"] + list(extra_args),
             ["cmake", "--build", build_dir, "-j", jobs] +
             (["--target", target] if target else [])]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


def run_binary(command, deadline):
    """Runs the benchmark binary; returns its stdout lines."""
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("benchmark exited with code %d" % proc.returncode,
             proc.returncode)
    return lines


def combine(records):
    """Merges sub-run records: each metric's median, summed sample counts,
    and failed_frac recomputed over all operations."""
    out = dict(records[0])
    out["seconds"] = sum(r["seconds"] for r in records)
    out["sub_runs"] = len(records)
    for section in ("end_to_end", "workload_metrics", "per_layer"):
        merged = {}
        for name, m in records[0][section].items():
            merged[name] = dict(m, value=statistics.median(
                r[section][name]["value"] for r in records))
            if "samples" in m:
                merged[name]["samples"] = sum(r[section][name]["samples"]
                                              for r in records)
        out[section] = merged
    return out


def run(args):
    benchmark = load_json(BENCHMARK_JSON)
    build(BUILD_DIR, target="minihive_perfbench")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace)]
    sub_runs = SUB_RUNS
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
        sub_runs = 1
    results, records = [], []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for i in range(sub_runs):
        lines = run_binary(command + ["--seconds", str(args.seconds / sub_runs)],
                           deadline)
        try:
            results.append(check_result_line(lines[-1], benchmark, args.trace))
            records.append(json.loads(
                [l for l in lines if l.startswith("detail: ")][-1][8:]))
        except (ValueError, KeyError, IndexError) as e:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail("malformed result: %s" % e)
        print("--- sub-run %d/%d ---" % (i + 1, sub_runs))
        sys.stdout.write("\n".join(l for l in lines[:-1]
                                    if not l.startswith("detail: ")) + "\n")
    record = combine(records)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if "failed_frac" in record["workload_metrics"]:
        record["workload_metrics"]["failed_frac"]["value"] = failed / attempted
    section = "per_layer" if args.trace else "end_to_end"
    final = {"correct": all(r["correct"] for r in results),
             "attempted": attempted, "failed": failed,
             "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                         for name, m in record[section].items()}}
    results_path = args.results or os.path.join(BUILD_DIR, "results.jsonl")
    with open(results_path, "a") as f:
        f.write(json.dumps(record) + "\n")
    print("detail: " + json.dumps(record))
    print(json.dumps(final))
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# Compare mode.
# ---------------------------------------------------------------------------

def read_records(path):
    """(workload, metric) -> values in file order, from untraced records."""
    values = {}
    units = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for section in ("end_to_end", "workload_metrics"):
                for name, m in record.get(section, {}).items():
                    values.setdefault((record["workload"], name), []).append(
                        m["value"])
                    units[name] = m["unit"]
    return values, units


def compare(base_path, change_path):
    catalogue = metric_catalogue(load_json(BENCHMARK_JSON), load_json(SPEC_JSON))
    base, units = read_records(base_path)
    change, _ = read_records(change_path)
    header = ("%-13s %-27s %-9s %12s %12s %12s   %12s %12s %12s  %6s  %s"
              % ("workload", "metric", "unit", "base q1", "base med",
                 "base q3", "chg q1", "chg med", "chg q3", "won", "verdict"))
    print(header)
    counts = {}
    for key in sorted(base):
        workload, name = key
        if key not in change or name not in catalogue:
            continue
        direction, bound = catalogue[name]
        b, c = base[key], change[key]
        v, won = verdict(b, c, direction, bound)
        counts[v] = counts.get(v, 0) + 1
        bq = quartiles(b)
        cq = quartiles(c)
        print("%-13s %-27s %-9s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  "
              "%5.0f%%  %s (n=%d/%d, bound %.2f, base spread %.3f)"
              % (workload, name, units.get(name, ""), bq[0], bq[1], bq[2],
                 cq[0], cq[1], cq[2], 100 * won, v, len(b), len(c), bound,
                 relative_spread(b)))
    print("verdicts: " + ", ".join("%s %d" % kv for kv in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


# ---------------------------------------------------------------------------
# Self-test.
# ---------------------------------------------------------------------------

def selftest():
    status = subprocess.call(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"])
    test_dir = os.path.join(ROOT, ".bench_build", "perfbench-tests")
    build(test_dir, extra_args=["-DPERFBENCH_TESTS=ON"], target="perfbench_test")
    status |= subprocess.call([os.path.join(test_dir, "perfbench_test")])
    return status


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare BASE.jsonl CHANGE.jsonl", 2)
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        sys.exit(selftest())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", help="JSONL file the run's record is "
                        "appended to (default .bench_build/perfbench/"
                        "results.jsonl)")
    run(parser.parse_args())


if __name__ == "__main__":
    main()
