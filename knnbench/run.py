#!/usr/bin/env python3
"""One-command KNNQL serving benchmark.

    python3 knnbench/run.py --workload two_selects|join_mix \
        --seed N --seconds S --trace 0|1

Builds the program with the repository's CMake project (Release, in
$CARGO_TARGET_DIR or .bench_build), generates the workload's inputs from
the seed, starts `knnq_cli serve` as a deployment would, drives it over
loopback with the benchmark's own client, checks answers against the
brute-force oracle and prints, as the last line of standard output, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the same
run also feeds the per-layer metrics, timed in-process by
knnbench_trace. See knnbench/README.md.
"""

import argparse
import ctypes
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_JOBS = 4
SETUP_STARTS_BEFORE = 2   # timed set-up starts before the window
RECOVERY_STARTS = 3       # each after one more timed set-up start


with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _BENCH = json.load(_f)
UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"] + _BENCH["per_layer"]}
PER_LAYER = {m["name"] for m in _BENCH["per_layer"]}


def _die_with_parent():
    """Child processes get SIGKILL if this script dies first."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    logfile = open(os.path.join(build_dir, "build.log"), "a")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=logfile, stderr=subprocess.STDOUT, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(BUILD_JOBS), "--target",
                    "knnq_cli", "knnbench_load", "knnbench_trace"],
                   stdout=logfile, stderr=subprocess.STDOUT, check=True)
    return build_dir


class Server:
    """One `knnq_cli serve` process."""

    def __init__(self, cli, args, log_path):
        self.log = open(log_path, "a")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([cli, "serve", "--port", "0"] + args,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     text=True, preexec_fn=_die_with_parent)
        self.port = None
        for line in self.proc.stdout:
            self.log.write(line)
            m = re.search(r"serving KNNQL on [\d.]+:(\d+)", line)
            if m:
                self.port = int(m.group(1))
                break
        if self.port is None:
            self.proc.wait()
            raise RuntimeError("server did not start (see %s)" % log_path)
        self.sock = socket.create_connection(("127.0.0.1", self.port))
        self.reader = self.sock.makefile("rb")
        if b'"pong": true' not in self.request("PING;"):
            raise RuntimeError("PING was not answered")
        self.startup_s = time.perf_counter() - t0

    def request(self, statement):
        self.sock.sendall(statement.encode() + b"\n")
        return self.reader.readline()

    def metrics(self):
        """The server's own METRICS scrape, as {name: value}."""
        text = json.loads(self.request("METRICS;"))["prometheus"]
        out = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def kill(self):
        self.sock.close()
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def load_tool(build_dir, *args):
    out = subprocess.run([os.path.join(build_dir, "knnbench_load")] + list(map(str, args)),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         timeout=170, preexec_fn=_die_with_parent)
    if out.stderr:
        log(out.stderr.rstrip())
    if out.returncode != 0:
        raise RuntimeError("knnbench_load %s failed" % args[0])
    return json.loads(out.stdout.splitlines()[-1]) if out.stdout.strip() else {}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in _BENCH["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    wl = a.workload

    build_dir = build()
    cli = os.path.join(build_dir, "knnq", "knnq_cli")
    work = os.path.join(build_dir, "work", "%s-%d-%d" % (wl, a.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    servers = []
    try:
        return run(a, build_dir, cli, work, servers)
    finally:
        for s in servers:
            if s.proc.poll() is None:
                s.kill()
        shutil.rmtree(work, ignore_errors=True)


def run(a, build_dir, cli, work, servers):
    wl, seed = a.workload, a.seed
    data = os.path.join(work, "data")
    os.makedirs(data)
    load_tool(build_dir, "gen", "--workload", wl, "--seed", seed, "--dir", data)
    relations = sorted(f[:-4] for f in os.listdir(data) if f.endswith(".csv"))
    data_flags = []
    for r in relations:
        data_flags += ["--data", "%s=%s" % (r, os.path.join(data, r + ".csv"))]
    # Threads, cache budget and flush policy: the same on every workload
    # and in the tracer (src/model.h).
    serve_flags = json.loads(subprocess.run(
        [os.path.join(build_dir, "knnbench_load"), "serve-flags"],
        stdout=subprocess.PIPE, text=True, check=True).stdout)
    datadir = os.path.join(work, "durable")
    server_log = os.path.join(work, "server.log")

    def start(flags):
        s = Server(cli, serve_flags["serve"] + flags, server_log)
        servers.append(s)
        return s

    def durable(flags):
        return start(serve_flags["durable"] + ["--data-dir", datadir] + flags)

    # Set-up: CSV load and index build, timed on servers without a data
    # directory, so the shared disk's fsync of the baseline snapshot
    # stays out of it. The starts are spread before and after the
    # window: the host's speed drifts over tens of seconds, so their
    # median is steadier than that of back-to-back starts.
    setups = []

    def timed_setup():
        s = start(data_flags)
        setups.append(s.startup_s)
        s.kill()

    for _ in range(SETUP_STARTS_BEFORE):
        timed_setup()
    os.makedirs(datadir)
    server = durable(data_flags)

    acked = os.path.join(work, "acked.txt")
    res = load_tool(build_dir, "run", "--workload", wl, "--seed", seed, "--dir", data,
                    "--port", server.port, "--server-pid", server.proc.pid,
                    "--seconds", a.seconds, "--acked", acked)
    scrape = server.metrics()
    peak_rss = server.peak_rss_mb()
    attempted = int(res["sent_total"])
    failed = int(res["errors"] + res["mismatches"])
    checked = int(res["checked"])
    e2e = {
        "qps": res["qps"],
        "p50_ms": res["p50_ms"],
        "p90_ms": res["p90_ms"],
        "cpu_ms_per_op": res["cpu_ms_per_op"],
        "peak_rss_mb": peak_rss,
    }
    layer = {
        "server.nonexec_ms_p50": res["nonexec_ms_p50"],
        "server.nonexec_ms_p99": res["nonexec_ms_p99"],
        "engine.cache_hit_rate": res["cache_hit_rate"],
        "index.points_compared_per_query": res["points_compared_per_query"],
        "index.blocks_skipped_share": res["blocks_skipped_share"],
        "loadgen.cpu_us_per_req": res["client_cpu_us_per_req"],
    }
    diag = {"checked": checked, "nonempty_checked": int(res["nonempty_checked"]),
            "queries": int(res["queries"]),
            "window_qps": res["window_qps"], "window_p99_ms": res["window_p99_ms"],
            "host_steal_share": res["host_steal_share"],
            "client_cpu_us_per_req": res["client_cpu_us_per_req"],
            "cache_mib_max": res["cache_mib_max"],
            "cache_hit_rate": res["cache_hit_rate"]}
    diag.update({k: v for k, v in res.items() if k.startswith("shape.")})

    writes = int(res["writes"])
    attempted += writes
    failed += int(res["writes_failed"])
    acked_writes = writes - int(res["writes_failed"])
    e2e["write_p50_ms"] = res["write_p50_ms"]
    e2e["write_p90_ms"] = res["write_p90_ms"]
    e2e["wal_bytes_per_write"] = scrape["knnq_server_wal_bytes_total"] / max(1, acked_writes)
    layer["durability.syncs_per_write"] = (
        scrape["knnq_server_wal_syncs_total"] / max(1, acked_writes))
    # The final state, then the same state after SIGKILL + restart.
    v = load_tool(build_dir, "verify", "--workload", wl, "--seed", seed,
                  "--dir", data, "--port", server.port, "--acked", acked)
    attempted += int(v["probes"])
    failed += int(v["failed"])
    server.kill()
    recoveries = []
    for i in range(RECOVERY_STARTS):
        timed_setup()
        server = durable([])
        recoveries.append(server.startup_s)
        if i + 1 < RECOVERY_STARTS:
            server.kill()
    v = load_tool(build_dir, "verify", "--workload", wl, "--seed", seed,
                  "--dir", data, "--port", server.port, "--acked", acked)
    attempted += int(v["probes"])
    failed += int(v["failed"])
    diag["recovery_starts_s"] = recoveries
    diag["region_probes_nonempty"] = int(v["nonempty"])
    layer["durability.replayed_records"] = (
        server.metrics()["knnq_server_wal_replayed_records_total"])
    e2e["recovery_s"] = statistics.median(recoveries)
    e2e["setup_s"] = statistics.median(setups)
    diag["setup_starts_s"] = setups
    server.kill()
    log("diagnostics: " + json.dumps(diag))

    if a.trace:
        join_dir = data
        if wl != "join_mix":
            join_dir = os.path.join(work, "join")
            os.makedirs(join_dir)
            load_tool(build_dir, "gen", "--workload", "join_mix", "--seed", seed,
                      "--dir", join_dir)
        cmd = [os.path.join(build_dir, "knnbench_trace"), "--workload", wl,
               "--seed", str(seed), "--dir", data, "--join-dir", join_dir,
               "--spans", os.path.join(work, "spans.jsonl"),
               "--wal-dir", os.path.join(work, "wal_copy")]
        shutil.copytree(datadir, cmd[-1])
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170,
                             preexec_fn=_die_with_parent)
        if out.returncode != 0:
            raise RuntimeError("knnbench_trace failed")
        traced = json.loads(out.stdout.splitlines()[-1])
        spans_kept = os.path.join(build_dir, "spans-%s-%d.jsonl" % (wl, seed))
        shutil.copyfile(os.path.join(work, "spans.jsonl"), spans_kept)
        log("spans written to " + spans_kept)
        for name, value in traced.items():
            layer.setdefault(name, value)  # a reading from the served run wins
        metrics = layer
    else:
        metrics = e2e
    expected = PER_LAYER if a.trace else set(UNITS) - PER_LAYER
    if set(metrics) != expected:
        raise RuntimeError("metrics missing or unknown: %s" % sorted(set(metrics) ^ expected))

    # Every check counts: an oracle mismatch, an error response, a write
    # that did not apply, or a verify probe (before or after the restart)
    # that disagrees with the replay of the acknowledged writes.
    correct = checked > 0 and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(1)  # unwinds through main's clean-up


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except Exception as e:  # no result line: the run did not complete
        log("knnbench: %s" % e)
        sys.exit(1)
