#!/usr/bin/env python3
"""AFEX campaign benchmark (README.md in this directory).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One benchmark run of one workload. Builds the program first (Release,
      into .bench_build). Prints progress and every metric, then one JSON
      line: {"correct", "attempted", "failed", "metrics"}. Exits non-zero
      when a correctness check fails.
  python3 perfbench/run.py [--seed N] [--seconds S] [--runs R] [--out FILE]
      Every workload untraced, then every workload traced, R seeds each;
      with --out, appends each run's result to FILE (JSON lines).
  python3 perfbench/run.py compare PARENT CHANGE
      Per workload and end-to-end metric: both sides' medians and
      quartiles and a verdict (improved / unchanged / regressed /
      unresolved) under BENCHMARK.json's bounds.

Run from the root of a checkout of the repository.
"""

import argparse
import array
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "afex_perfbench")
SPAN_FORMAT = "<IIiiQQ"  # SpanRecord in campaign_bench.cc
PROCESS_TIMEOUT_S = 170
# Printed with every untraced run but not bounded (README.md).
UNGATED_UNITS = {"test_latency_p99_us": "us"}


class CheckFailed(Exception):
    pass


class Tally:
    """Tests attempted and harness errors seen so far in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result):
        self.attempted += result["tests_executed"]
        self.failed += result["ops_failed"]
        return result


def log(message):
    print(message, flush=True)


def fail_usage(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


# ---- build and provenance ----------------------------------------------------

def ensure_checkout():
    for path in ("CMakeLists.txt", "src", "tools", "BENCHMARK.json"):
        if not os.path.exists(path):
            fail_usage("run from the root of a checkout of the repository "
                       "(missing %s)" % path)


def build():
    """Configures (once) and builds the benchmark program in Release."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    hook = os.path.abspath(os.path.join(os.path.dirname(__file__), "hook.cmake"))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ".", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
                      "-DAFEX_BUILD_TESTS=OFF", "-DAFEX_BUILD_EXAMPLES=OFF",
                      "-DAFEX_BUILD_BENCH=OFF", "-DCMAKE_PROJECT_afex_INCLUDE=" + hook])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "afex_perfbench", "-j", jobs])
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                print("perfbench: build failed; see " + log_path, file=sys.stderr)
                sys.exit(1)


def describe():
    """Build provenance and workload parameters; refuses non-Release builds."""
    proc = subprocess.run([BINARY, "--describe"], capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, end="")
        sys.exit(1)
    info = json.loads(proc.stdout)
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        info["git_sha"] = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except OSError:
        info["git_sha"] = "unavailable"
    return info


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


# ---- one afex_perfbench process ----------------------------------------------

class Runner:
    """Starts afex_perfbench processes, one campaign each, in scratch
    directories under the build directory, and collects their outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.root = os.path.join(BUILD_DIR, "runs", str(os.getpid()))
        self.count = 0
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def run(self, seed, mode, traced=False):
        self.count += 1
        work = os.path.join(self.root, str(self.count))
        out = work + ".json"
        cmd = [BINARY, "--workload=" + self.workload, "--seed=%d" % seed, "--mode=" + mode,
               "--work-dir=" + work, "--out=" + out] + (["--trace"] if traced else [])
        # Own process group, so a timeout also stops the forkserver and the
        # targets it started.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CheckFailed("%s %s seed %d timed out" % (self.workload, mode, seed))
        if proc.returncode != 0:
            raise CheckFailed("%s %s seed %d exited %d: %s" % (
                self.workload, mode, seed, proc.returncode, stderr.strip()))
        with open(out) as f:
            result = json.load(f)
        if mode == "campaign" and not traced:
            lat = array.array("Q")
            with open(out + ".lat", "rb") as f:
                lat.frombytes(f.read())
            if sys.byteorder != "little":
                lat.byteswap()
            result["latencies_ns"] = lat
        if traced:
            with open(out + ".spans", "rb") as f:
                result["spans"] = list(struct.iter_unpack(SPAN_FORMAT, f.read()))
        shutil.rmtree(work, ignore_errors=True)
        for path in (out, out + ".lat", out + ".spans"):
            if os.path.exists(path):
                os.remove(path)
        return result


def check_campaign(params, result):
    """Per-campaign correctness: full budget, no exhaustion, feedback."""
    name = params["name"]
    if result["tests_executed"] != params["budget"]:
        raise CheckFailed("%s seed %d stopped at %d of %d tests" % (
            name, result["seed"], result["tests_executed"], params["budget"]))
    if result["space_exhausted"] or 2 * params["budget"] >= result["space_points"]:
        raise CheckFailed("%s exhausted or over half of its %d-point space" % (
            name, result["space_points"]))
    if result["blocks_covered"] == 0 or result["triggered"] == 0:
        raise CheckFailed("%s seed %d: no coverage or no triggered fault: the harness "
                          "is not getting feedback from the target" % (name, result["seed"]))


def check_planted_bugs(name, results):
    """Every planted bug must be in the records of some campaign of the run.

    A harness that loses a bug's symptom loses it in every campaign. One
    campaign's budgeted search may still miss a bug (txengine seed 10401
    never reaches the torn page in 1001 tests), so this is checked over the
    run, not per campaign.
    """
    missing = set.intersection(*(set(r["missing_signatures"]) for r in results))
    if missing:
        raise CheckFailed("%s: planted bugs missing from the records of every campaign: %s" % (
            name, ", ".join(sorted(missing))))


def check_digests(name, results):
    """Every process of one campaign seed must produce the same records."""
    by_seed = {}
    for r in results:
        by_seed.setdefault(r["seed"], set()).add(r["digest"])
    for seed, digests in sorted(by_seed.items()):
        if len(digests) != 1:
            raise CheckFailed("%s seed %d: record digests differ across runs: %s" % (
                name, seed, ", ".join(sorted(digests))))


def campaign_plan(params, seed, seconds, traced):
    """The run's campaign seeds, in the order they run.

    Each of the workload's campaign seeds repeats the same number of times;
    the count follows only --seconds and the workload's nominal campaign
    time, never the time measured, so two commits run the same campaigns.
    Traced, each entry is an untraced and traced pair, so the plan keeps
    its first half (every seed, when seeds repeat).
    """
    seeds = [seed * 100 + k for k in range(params["seeds_per_run"])]
    reps = max(1, round(seconds / (params["campaign_s"] * len(seeds))))
    plan = [s for _ in range(reps) for s in seeds]
    return plan[:(len(plan) + 1) // 2] if traced else plan


# ---- metrics -----------------------------------------------------------------

def tests_per_s(r):
    return r["timed_tests"] / r["timed_wall_s"]


def pooled_tests_per_s(campaigns):
    """All timed tests of the campaigns over all their timed wall time."""
    return (sum(r["timed_tests"] for r in campaigns) /
            sum(r["timed_wall_s"] for r in campaigns))


def end_to_end(name, campaigns):
    """One run's end-to-end metrics.

    Throughput, latency and resume pool every test or resume of the run:
    the host's speed changes from second to second and a campaign seed's
    resume cost is its own, and a pooled figure (for resume, the mean)
    averages over both where a median of a few campaigns would pick one.
    Set-up is the median of every set-up of the run, memory the median
    over its campaigns; counts (exact per campaign seed) are averaged over
    the run's seeds.
    """
    lat = sorted(v for r in campaigns for v in r["latencies_ns"])
    if (stats.highest_percentile(len(lat)) or 0.0) < 99.0:
        raise CheckFailed("%s: %d latency samples are too few for a p99" % (name, len(lat)))
    return {
        "tests_per_s": pooled_tests_per_s(campaigns),
        "test_latency_p50_us": stats.percentile(lat, 50.0) / 1000.0,
        "test_latency_p99_us": stats.percentile(lat, 99.0) / 1000.0,
        "setup_s": stats.median([v for r in campaigns for v in r["setup_samples_s"]]),
        "resume_s": statistics.mean(v for r in campaigns for v in r["resume_samples_s"]),
        "peak_rss_mb": stats.median([r["peak_rss_kb"] / 1024.0 for r in campaigns]),
        "unique_failures": statistics.mean(r["unique_failures"] for r in campaigns),
        "blocks_covered": statistics.mean(r["blocks_covered"] for r in campaigns),
    }


def durations(spans, name_id):
    return sorted(e - s for n, _, _, _, s, e in spans if n == name_id)


def p50_us(values_ns):
    return stats.percentile(values_ns, 50.0) / 1000.0 if values_ns else 0.0


def per_layer_one(params, names, r):
    """Per-layer metrics of one traced campaign."""
    ids = {name: i for i, name in enumerate(names)}
    spans = r["spans"]
    by_name = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def intervals(name):
        return [(s[4], s[5]) for s in by_name.get(ids[name], [])]

    def total(name):
        return sum(e - s for s, e in intervals(name))

    windows = intervals("campaign.run")
    wall = sum(e - s for s, e in windows)
    tests = len(by_name.get(ids["campaign.step"], []))
    run_name = "targets.run_fault" if params["sim"] else "exec.run_fault"
    runs = {s[2]: (s[4], s[5]) for s in by_name.get(ids[run_name], [])}
    rounds = stats.infer_rounds(
        [(s[2], s[4], s[5]) for s in by_name.get(ids["core.next"], [])],
        [(s[2], s[4], s[5]) for s in by_name.get(ids["core.report"], [])])
    dispatch, barrier, gaps = stats.round_waits(rounds, runs)
    parallel = params["jobs"] > 1

    work = []
    for name in ("core.next", "core.report", run_name, "campaign.append"):
        work += intervals(name)
    if parallel:
        work += gaps
    unattributed = sum(stats.self_time(window, work) for window in windows)

    m = {}
    m["core.next_us"] = total("core.next") / 1000.0 / tests
    m["core.report_us"] = total("core.report") / 1000.0 / tests
    m["core.session_self_us"] = unattributed / 1000.0 / tests
    m["core.triggered_frac"] = r["triggered"] / r["tests_executed"]
    m["core.new_cluster_frac"] = (r["new_cluster_triggered"] / r["triggered"]
                                  if r["triggered"] else 0.0)
    m["core.unique_crashes"] = r["unique_crashes"]
    for layer in ("targets", "exec"):
        d = durations(spans, ids[layer + ".run_fault"])
        m[layer + ".run_fault_us_p50"] = p50_us(d)
        m[layer + ".run_fault_us_p99"] = stats.percentile(d, 99.0) / 1000.0 if d else 0.0
        m[layer + ".run_fault_share"] = sum(d) / wall
    m["sim.steps_per_test"] = r["sim_steps"] / r["tests_executed"]
    m["exec.forkserver_restarts"] = r["forkserver_restarts"]
    m["exec.ops_failed_frac"] = r["ops_failed"] / r["tests_executed"]
    for phase in ("fs_roundtrip", "recovery_run", "verify", "scratch_cleanup"):
        m["exec.%s_us_p50" % phase] = p50_us(durations(spans, ids["exec." + phase]))
    if parallel:
        m["cluster.round_us_p50"] = p50_us(sorted(
            rd["first_report_start"] - rd["first_issue_start"] for rd in rounds))
        m["cluster.dispatch_us_p50"] = p50_us(sorted(dispatch))
        m["cluster.barrier_wait_us_p50"] = p50_us(sorted(barrier))
        m["cluster.worker_busy_frac"] = total(run_name) / (params["jobs"] * wall)
        m["cluster.serial_share"] = 1.0 - stats.covered(runs.values(), windows) / wall
    else:
        for name in ("round_us_p50", "dispatch_us_p50", "barrier_wait_us_p50",
                     "worker_busy_frac", "serial_share"):
            m["cluster." + name] = 0.0
    m["campaign.append_us_p50"] = p50_us(durations(spans, ids["campaign.append"]))
    m["campaign.append_share"] = total("campaign.append") / wall
    m["campaign.bytes_per_record"] = r["journal_bytes"] / r["tests_executed"]
    replayed = params["budget"] // 2
    m["campaign.open_us_per_record"] = p50_us(durations(spans, ids["campaign.open"])) / replayed
    m["campaign.replay_us_per_record"] = p50_us(
        durations(spans, ids["campaign.replay"])) / replayed
    m["campaign.commit_resume_ms"] = p50_us(
        durations(spans, ids["campaign.commit_resume"])) / 1000.0
    m["analysis.profile_ms"] = total("analysis.profile") / 1e6
    m["trace.unattributed_share"] = unattributed / wall
    return m


def per_layer(params, names, untraced, traced):
    each = [r["layer"] for r in traced]
    m = {name: stats.median([x[name] for x in each]) for name in each[0]}
    m["trace.overhead_frac"] = 1.0 - pooled_tests_per_s(traced) / pooled_tests_per_s(untraced)
    # CPU from the untraced processes: tracing adds to the AFEX side.
    m["exec.afex_cpu_us_per_test"] = stats.median(
        [r["cpu_self_us"] / r["tests_executed"] for r in untraced])
    m["exec.child_cpu_us_per_test"] = stats.median(
        [r["cpu_children_us"] / r["tests_executed"] for r in untraced])
    return m


# ---- one benchmark run -------------------------------------------------------

def run_workload(info, spec, name, seed, seconds, traced, tally):
    """One benchmark run's result. Raises CheckFailed when a check fails;
    `tally` counts the tests attempted up to then."""
    params = next((w for w in info["workloads"] if w["name"] == name), None)
    if params is None:
        fail_usage("unknown workload '%s' (known: %s)" % (
            name, ", ".join(w["name"] for w in info["workloads"])))
    if params["jobs"] > info["nproc"]:
        raise CheckFailed("%s needs %d worker threads; nproc is %d" % (
            name, params["jobs"], info["nproc"]))
    plan = campaign_plan(params, seed, seconds, traced)
    runner = Runner(name)
    try:
        references = []
        if params["sim"]:
            # Resume equivalence, outside the timed runs.
            references = [tally.add(runner.run(s, "uninterrupted"))
                          for s in sorted(set(plan))]
        untraced, traced_runs = [], []
        for s in plan:
            r = tally.add(runner.run(s, "campaign"))
            check_campaign(params, r)
            untraced.append(r)
            line = "  %s seed %d: %.1f tests/s, setup %.4f s, resume %.4f s" % (
                name, s, tests_per_s(r), stats.median(r["setup_samples_s"]),
                stats.median(r["resume_samples_s"]))
            if r["missing_signatures"]:
                line += "; did not reach " + ", ".join(r["missing_signatures"])
            if traced:
                t = tally.add(runner.run(s, "campaign", traced=True))
                check_campaign(params, t)
                t["layer"] = per_layer_one(params, info["span_names"], t)
                del t["spans"]
                traced_runs.append(t)
                line += "; traced %.1f tests/s" % tests_per_s(t)
            log(line)
        check_digests(name, references + untraced + traced_runs)
        check_planted_bugs(name, references + untraced + traced_runs)
    finally:
        runner.close()

    if traced:
        metrics = per_layer(params, info["span_names"], untraced, traced_runs)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(name, untraced)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise CheckFailed("metrics not computed: " + ", ".join(missing))
    log("%s seed %d (%s, %d campaigns, %d tests each):" % (
        name, seed, "traced" if traced else "untraced", len(untraced), params["budget"]))
    for m in wanted:
        log("  %-32s %16.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    for metric, unit in UNGATED_UNITS.items():
        if metric in metrics and metric not in names:
            log("  %-32s %16.6f %s (not bounded)" % (metric, metrics[metric], unit))
    return {"correct": True, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def print_provenance(info):
    host = info["host"]
    log("provenance: %s, %d cores (nproc %d), governor %s, build %s, sancov %s, git %s" % (
        host["cpu_model"], host["cores"], info["nproc"], host["governor"],
        info["build_type"], info["sancov_mode"] or "none", info["git_sha"]))


def single(args):
    ensure_checkout()
    build()
    info = describe()
    print_provenance(info)
    spec = load_spec()
    tally = Tally()
    try:
        result = run_workload(info, spec, args.workload, args.seed, args.seconds,
                              args.trace == 1, tally)
    except CheckFailed as e:
        print("perfbench: correctness check failed: %s" % e, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


def run_all(args):
    ensure_checkout()
    build()
    info = describe()
    print_provenance(info)
    spec = load_spec()
    ok = True
    for traced in (False, True):
        for w in info["workloads"]:
            for seed in range(args.seed, args.seed + args.runs):
                try:
                    result = run_workload(info, spec, w["name"], seed, args.seconds, traced,
                                          Tally())
                except CheckFailed as e:
                    print("perfbench: correctness check failed: %s" % e, file=sys.stderr)
                    ok = False
                    continue
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps({"workload": w["name"], "seed": seed,
                                            "trace": int(traced), "provenance": info,
                                            "result": result}) + "\n")
    return 0 if ok else 1


# ---- compare -----------------------------------------------------------------

def load_result_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                if row["trace"] == 0:
                    runs.setdefault(row["workload"], []).append(row)
    return runs


def compare(args):
    spec = load_spec()
    parent, change = load_result_set(args.parent), load_result_set(args.change)
    regressed = False
    log("%-24s %-22s %30s %30s  %s" % ("workload", "metric", "parent median [q1, q3]",
                                       "change median [q1, q3]", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        # Pair the two sides by seed; unpaired runs are left out.
        seeds = ({r["seed"] for r in parent[workload]} & {r["seed"] for r in change[workload]})
        p_rows = sorted((r for r in parent[workload] if r["seed"] in seeds),
                        key=lambda r: r["seed"])
        c_rows = sorted((r for r in change[workload] if r["seed"] in seeds),
                        key=lambda r: r["seed"])
        for m in spec["end_to_end"]:
            p = [r["result"]["metrics"][m["name"]]["value"] for r in p_rows]
            c = [r["result"]["metrics"][m["name"]]["value"] for r in c_rows]
            v = stats.verdict(p, c, m["better"], m["bound"])
            regressed |= v == "regressed"
            pq, cq = stats.quartiles(p), stats.quartiles(c)
            log("%-24s %-22s %12.4g [%.4g, %.4g] %12.4g [%.4g, %.4g]  %s" % (
                workload, m["name"], pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], v))
    return 1 if regressed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        return compare(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seed < 0:
        fail_usage("--seed must be >= 0")
    if args.workload:
        return single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
