#!/usr/bin/env python3
"""Out-of-process wire benchmark of whynot_serverd.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             --server-flags "FLAGS"

The server's deployment flags have no default here: BENCHMARK.json's
command holds them.

Run from the root of a checkout. Builds bin/whynot_serverd.exe and the
benchmark's own perfbench/wbench.exe from source (dune, build directory
.bench_build), then:

  --trace 0  spawns the server, drives one workload over TCP and prints
             every end-to-end metric;
  --trace 1  does the same run, reads the server's stats counter deltas,
             replays the request stream in-process with spans, and prints
             every per-layer metric.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, without a
result line, when the build, the server or the run fails. perfbench/NOTES.md
explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
SERVER = os.path.join(BUILD_DIR, "default", "bin", "whynot_serverd.exe")
WBENCH = os.path.join(BUILD_DIR, "default", "perfbench", "wbench.exe")
WORKLOADS = ["fig2-hot", "scaled-open", "session-churn", "alg1-exhaustive"]
# The sum check, on the sequential counting phase, where nothing queues.
# Its wire mean is server.overhead_seq_us plus the mean of the server's
# own op timers around Handlers.handle. The replay's handlers.handle_us
# must match that op-timer mean within HANDLE_TOLERANCE of it, once
# scaled by the calibration kernel's time in the counting phase over its
# time in the replay (the two run minutes apart on a host whose speed
# drifts), and the
# layer pass's spans inside the handlers must not exceed the handler
# pass's handle time by more than SELF_TOLERANCE of it.
HANDLE_TOLERANCE = 0.35
SELF_TOLERANCE = 0.15
# A run whose load generator used more CPU than this share of its wall
# time, or (open loop) sent its requests later than this, measured the
# generator as much as the server: it is reported as invalid.
CLIENT_CPU_LIMIT = 0.5
OPEN_LAG_P99_LIMIT_US = 1000.0
RUN_BUDGET_S = 175
# Closed-loop workloads on one connection whose load generator, server
# and replay share one CPU. On two vCPUs of a virtual machine each reply
# of fig2-hot otherwise waited for an idle vCPU to be woken, and run
# after run the host took 2-20% of the CPU time away (steal) and the
# server's CPU per request followed it (spread 0.27 over five runs;
# 0.06 on one CPU, at under 3% steal, interleaved with them). The server
# runs one domain by default, and such a loop does no work while a
# request is in the server. The open loop is not pinned: on a shared
# CPU its generator sent a quarter of its requests 4 ms late.
ONE_CPU = {"fig2-hot", "alg1-exhaustive"}


def one_cpu():
    """Confine the calling process, and what it starts from then on, to
    one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def end_group(proc):
    """Kill the process group of [proc], servers included, and wait until
    every process of it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.communicate()
    # A killed process that no parent reaps stays in the group as a
    # zombie: give up after 10 s.
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)


def run_child(argv, timeout, pinned=False):
    """Run argv in its own process group, on one CPU if [pinned]; kill the
    group on timeout so no spawned server outlives the benchmark."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True,
                            preexec_fn=one_cpu if pinned else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        end_group(proc)
        raise SystemExit(f"{argv[1]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        # A child killed by a signal leaves its servers running.
        end_group(proc)
        raise SystemExit(f"{' '.join(argv[:2])} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("bin")):
        raise SystemExit("not at the root of a whynot checkout")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./bin/whynot_serverd.exe",
           "./perfbench/wbench.exe"]
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    if subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=850).returncode != 0:
        raise SystemExit("build failed")


def windowed(phase):
    """A phase's windowed statistics; one without a value is NaN."""
    return {k: float("nan") if v is None else v for k, v in phase["windowed"].items()}


def end_to_end(wire, setup):
    """The gated end-to-end metrics, and the ones only printed."""
    m = wire["measured"]
    if m["loop"] == "closed":
        t = m["tally"]
        w = windowed(m)
        lat = dict(t["latency_us"], p50=w["p50"], p90=w["p90"], p99=w["p99"])
        throughput = w["throughput_rps"]
        # A closed loop builds no backlog beyond its clients: the highest
        # rate meeting the limit is the rate it ran at, if p99 met it.
        max_rate = throughput if lat["p99"] <= wire["limit_us"] else 0.0
    else:
        ref = m["reference"]
        w = windowed(ref)
        lat = dict(ref["tally"]["latency_us"], p50=w["p50"], p90=w["p90"], p99=w["p99"])
        throughput = ref["served_rps"]
        max_rate = m["max_rate_rps"] or 0.0
    attempted = wire["attempted"]
    ok = attempted - wire["failed"] - wire["known_defect"]
    # A single set-up has a long tail from the host (5 to 27 ms on one
    # run of alg1-exhaustive): the fastest eighth measures the set-up
    # itself. It is scaled to the host's speed as the CPU figure is.
    times = setup["setup_s"]
    fastest = sorted(times)[:len(times) // 8]
    setup_raw = statistics.mean(fastest)
    n = f"n={lat['n']}"
    cpu_us = wire["server_cpu_s"] * 1e6 / attempted
    kernel, kernel_ref = wire["kernel_us"], wire["kernel_ref_us"]
    gated = {
        "setup_s": (setup_raw * setup["kernel_ref_us"] / setup["kernel_us"], "s",
                    f"mean of the fastest {len(fastest)} of {len(times)} set-ups, on one CPU, "
                    f"at a kernel time of {setup['kernel_ref_us']:g} us"),
        "server_cpu_ref_us": (wire["server_cpu_ref_us"], "us",
                              f"server CPU per request at a kernel time of {kernel_ref:g} us, "
                              f"median of {wire['cpu_segments']} stretches"),
        "success_ratio": (ok / attempted, "ratio", f"{ok} of {attempted}"),
        "server_rss_mb": (wire["server_peak_rss_kb"] / 1024.0, "MB", "peak VmHWM"),
    }
    printed = {
        "setup_raw_s": (setup_raw, "s", f"as measured; kernel {setup['kernel_us']:.1f} us"),
        "server_cpu_us": (cpu_us, "us", "server CPU per request, as measured"),
        "kernel_us": (kernel, "us", "calibration kernel time, median of the run's"),
        "latency_p50_us": (lat["p50"], "us", n + ", as measured"),
        "latency_p50_ref_us": (w["p50_ref"], "us",
                               f"{n}, each window's p50 at a kernel time of {kernel_ref:g} us"),
        "throughput_rps": (throughput, "1/s", "successful replies"),
        "latency_p90_us": (lat["p90"], "us", n),
        "latency_p99_us": (lat["p99"], "us", n + ("" if lat["n"] >= 1000 else ", under the 1000 a p99 needs")),
        "max_rate_rps": (max_rate, "1/s", f"p99 limit {wire['limit_us'] / 1000:g} ms"),
        "error_rate": (1 - ok / attempted, "ratio",
                       f"{attempted - ok} of {attempted}; implicit-view defect: {wire['known_defect']}"),
    }
    return gated, printed


def op_timer_mean_us(counters):
    """Mean server-side handler time per request from the server.op.*
    timers, leaving out the stats op the benchmark itself sends."""
    ns = calls = 0
    for k, v in counters.items():
        if k.startswith("server.op.") and not k.startswith("server.op.stats."):
            if k.endswith(".ns"):
                ns += v
            elif k.endswith(".calls"):
                calls += v
    return ns / calls / 1000.0 if calls else float("nan")


def ratio(a, b):
    return a / b if b else 0.0


def replay_summary(passes):
    """Per-layer times from the replay passes: untraced handler, traced
    handler and layer passes, two of each (see perfbench/replay.ml)."""
    handler = [p for p in passes if p["mode"] == "handlers"]
    traced = [p for p in handler if p["traced"]]
    untraced = [p for p in handler if not p["traced"]]
    layers = [p for p in passes if p["mode"] == "layers"]
    n = traced[0]["requests"]

    def per_req(name):
        return statistics.mean(p["stream"].get(name, {"us": 0.0})["us"] for p in traced) / n

    def per_call(name, ps):
        calls = sum(p["all"].get(name, {"calls": 0})["calls"] for p in ps)
        us = sum(p["all"].get(name, {"us": 0.0})["us"] for p in ps)
        return us / calls if calls else float("nan")

    handle_names = {k for p in traced for k in p["stream"] if k.startswith("handlers.handle.")}
    handle = sum(per_req(k) for k in handle_names)
    out = {
        "handle_by_op_us": {k[len("handlers.handle."):]: per_call(k, traced)
                            for k in {k for p in traced for k in p["all"]
                                      if k.startswith("handlers.handle.")}},
        "protocol.parse_us": per_req("protocol.parse"),
        "protocol.encode_us": per_req("protocol.encode"),
        "handlers.handle_us": handle,
        "handlers.self_us": handle - statistics.mean(p["children_us"] for p in layers) / n,
        "handlers.create_us": per_call("handlers.handle.create", traced),
        "registry.lookup_us": per_call("registry.find", layers),
        "kernel_us": statistics.mean(p["kernel_us"] for p in traced),
        "replay.trace_overhead_us": (statistics.mean(p["stream_us"] for p in traced)
                                     - statistics.mean(p["stream_us"] for p in untraced)) / n,
    }
    for name in ["engine.question", "engine.one_mge", "engine.check_mge",
                 "engine.all_mges", "engine.create", "engine.close",
                 "parser.parse", "parser.concept"]:
        out[name + "_us"] = per_call(name, layers)
    return out


def generator_lag_p99_us(wire):
    m = wire["measured"]
    return m["gap_us"]["p99"] if m["loop"] == "closed" else m["reference"]["lag_us"]["p99"]


def validity(wire):
    cpu_share = wire["client_cpu_s"] / wire["wall_s"]
    lag = generator_lag_p99_us(wire)
    problems = []
    if cpu_share > CLIENT_CPU_LIMIT:
        problems.append(f"generator CPU share {cpu_share:.2f} > {CLIENT_CPU_LIMIT}")
    if wire["measured"]["loop"] == "open" and lag > OPEN_LAG_P99_LIMIT_US:
        problems.append(f"generator lag p99 {lag:.0f} us > {OPEN_LAG_P99_LIMIT_US:.0f} us")
    verdict = "INVALID: " + "; ".join(problems) if problems else "valid"
    return (f"  run {verdict} (generator CPU share {cpu_share:.3f}, lag p99 {lag:.0f} us; "
            f"host steal {wire['host_steal_ratio']:.3f} of CPU time)")


def per_layer(wire, replay):
    count = wire["count"]
    c = count["counters"]
    n = count["tally"]["attempted"]
    per = lambda k: c.get(k, 0) / n
    m = wire["measured"]
    if m["loop"] == "closed":
        tallies = [m["tally"]]
    else:
        tallies = [m["reference"]["tally"]] + [r["tally"] for r in m["rungs"]]
    md = m["counters"]
    attempted = sum(t["attempted"] for t in tallies)
    # Wire means over every reply, error replies included, as the
    # server's op timers cover every request.
    client_mean = sum(t["mean_all_us"] * t["attempted"] for t in tallies) / attempted
    overhead = client_mean - op_timer_mean_us(md)
    seq_wire = count["tally"]["mean_all_us"]
    seq_op = op_timer_mean_us(c)
    seq_overhead = seq_wire - seq_op
    # The replay's handle time at the host speed of the counting phase.
    speed = count["kernel_us"] / replay["kernel_us"]
    handle = replay["handlers.handle_us"] * speed
    check = {
        "seq_wire": seq_wire, "seq_op": seq_op, "handle": handle, "speed": speed,
        "handle_gap": abs(handle - seq_op) / seq_op,
        "self_share": replay["handlers.self_us"] / handle,
    }
    layer = {
        "server.overhead_us": (overhead, "us"),
        "server.overhead_seq_us": (seq_overhead, "us"),
        "server.pipelined_hold_us": (wire["pipelined_hold_us"], "us"),
        "protocol.parse_us": (replay["protocol.parse_us"], "us"),
        "protocol.encode_us": (replay["protocol.encode_us"], "us"),
        "handlers.handle_us": (replay["handlers.handle_us"], "us"),
        "handlers.self_us": (replay["handlers.self_us"], "us"),
        "handlers.create_us": (replay["handlers.create_us"], "us"),
        "registry.lookup_us": (replay["registry.lookup_us"], "us"),
        "engine.question_us": (replay["engine.question_us"], "us"),
        "engine.one_mge_us": (replay["engine.one_mge_us"], "us"),
        "engine.check_mge_us": (replay["engine.check_mge_us"], "us"),
        "engine.all_mges_us": (replay["engine.all_mges_us"], "us"),
        "engine.create_us": (replay["engine.create_us"], "us"),
        "engine.close_us": (replay["engine.close_us"], "us"),
        "parser.parse_us": (replay["parser.parse_us"], "us"),
        "parser.concept_us": (replay["parser.concept_us"], "us"),
        "replay.trace_overhead_us": (replay["replay.trace_overhead_us"], "us"),
        "sum_check.handle_gap_ratio": (check["handle_gap"], "ratio"),
        "sum_check.self_share": (check["self_share"], "ratio"),
        "mge.incremental.absorb_attempts": (per("mge.incremental.absorb_attempts"), "count/req"),
        "mge.incremental.absorbed_ratio": (ratio(c.get("mge.incremental.absorbed", 0), c.get("mge.incremental.absorb_attempts", 0)), "ratio"),
        "parallel.incremental.wasted_ratio": (ratio(c.get("parallel.incremental.wasted", 0), c.get("mge.incremental.absorb_attempts", 0)), "ratio"),
        "parallel.exhaustive.plan_items": (per("parallel.exhaustive.plan_items"), "count/req"),
        "parallel.exhaustive.blocks": (per("parallel.exhaustive.blocks"), "count/req"),
        "memo.ext.calls": (per("memo.ext.calls"), "count/req"),
        "memo.ext.hit_ratio": (ratio(c.get("memo.ext.hits", 0), c.get("memo.ext.calls", 0)), "ratio"),
        "memo.lub.calls": (per("memo.lub.calls"), "count/req"),
        "memo.lub.hit_ratio": (ratio(c.get("memo.lub.hits", 0), c.get("memo.lub.calls", 0)), "ratio"),
        "memo.flushes": (per("memo.flushes"), "count/req"),
        "eval.index.handles": (per("eval.index.handles"), "count/req"),
        "eval.index.flushes": (per("eval.index.flushes"), "count/req"),
        "eval.plans.built": (per("eval.plans.built"), "count/req"),
        "eval.tuples.scanned": (per("eval.tuples.scanned"), "count/req"),
        "eval.plans.cached_ratio": (ratio(c.get("eval.plans.cached", 0), c.get("eval.plans.cached", 0) + c.get("eval.plans.built", 0)), "ratio"),
        "server.shed": (ratio(md.get("server.shed", 0), attempted), "count/req"),
        "server.timeouts": (ratio(md.get("server.timeouts", 0), attempted), "count/req"),
        "server.errors": (ratio(md.get("server.errors", 0), attempted), "count/req"),
        "server.rss_per_session_kb": ((wire["server_peak_rss_kb"] - wire["server_boot_rss_kb"]) / wire["sessions"], "kB"),
        "client.cpu_share": (wire["client_cpu_s"] / wire["wall_s"], "ratio"),
        "client.lag_p99_us": (generator_lag_p99_us(wire), "us"),
        "host.steal_ratio": (wire["host_steal_ratio"], "ratio"),
        "counters.inexact": (len(wire["inexact_counters"]), "count"),
    }
    return layer, check


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--server-flags", required=True,
                    help="the server's deployment flags, as BENCHMARK.json's command gives them")
    args = ap.parse_args()

    build()
    if args.workload in ONE_CPU:
        one_cpu()
    # The first run in a checkout also builds; the run itself must end
    # within 180 s of the build.
    start = time.monotonic()
    budget = lambda: max(10.0, RUN_BUDGET_S - (time.monotonic() - start))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    flags = ["--"] + args.server_flags.split()
    # Set-up runs on one CPU on every workload. Unpinned, its median
    # moved by 20% between two sets of ten scaled-open runs, with the
    # host's steal time (10-20% against 1%).
    setup = run_child([WBENCH, "setup", "--server", SERVER] + common + flags,
                      budget(), pinned=True)
    wire = run_child([WBENCH, "wire", "--server", SERVER] + common
                     + ["--repeat", str(args.trace)] + flags, budget())
    if not wire["exit_ok"]:
        raise SystemExit("the server did not exit 0 on SIGTERM")

    gated, printed = end_to_end(wire, setup)
    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"server flags: {args.server_flags}")
    for name, (value, unit, note) in list(gated.items()) + list(printed.items()):
        print(f"  {name:<16} {value:14.4f} {unit:<6} {note}")
    print(validity(wire))

    if args.trace:
        # The replay sleeps between requests as long as the server's
        # connection thread waited between them in the counting phase.
        count = wire["count"]
        pause_us = max(0.0, count["tally"]["mean_all_us"] - op_timer_mean_us(count["counters"]))
        passes = [run_child([WBENCH, "replay", "--mode", mode, "--traced", traced,
                             "--pause-us", f"{pause_us:.1f}"] + common, budget())
                  for mode, traced in [("handlers", "0"), ("handlers", "1"), ("layers", "1")] * 2]
        replay = replay_summary(passes)
        layer, check = per_layer(wire, replay)
        for name, (value, unit) in layer.items():
            print(f"  {name:<34} {value:14.4f} {unit}")
        handle_ok = check["handle_gap"] <= HANDLE_TOLERANCE
        self_ok = check["self_share"] >= -SELF_TOLERANCE
        print(f"  sum check {'PASS' if handle_ok and self_ok else 'FAIL'} "
              f"(sequential wire mean {check['seq_wire']:.1f} us "
              f"= server.overhead_seq_us + {check['seq_op']:.1f} us of server op timers):")
        print(f"    replay handlers.handle_us {check['handle']:.1f} us "
              f"(scaled by {check['speed']:.3f} to the counting phase's host speed) against the op timers: "
              f"gap {check['handle_gap']:.3f} of them, tolerance {HANDLE_TOLERANCE} "
              f"{'PASS' if handle_ok else 'FAIL'}")
        print(f"    layer spans inside the handlers: handlers.self_us = "
              f"{check['self_share']:.3f} of handle time, at least -{SELF_TOLERANCE} "
              f"{'PASS' if self_ok else 'FAIL'}")
        print("  handlers.handle_us by op: " + ", ".join(
            f"{op} {us:.1f} us" for op, us in sorted(replay["handle_by_op_us"].items())))
        print(f"  counters that did not repeat exactly: "
              f"{', '.join(wire['inexact_counters']) or 'none'}")
        metrics = layer
    else:
        metrics = {k: (v, u) for k, (v, u, _) in gated.items()}

    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        raise SystemExit(f"no value measured for {', '.join(bad)}")
    print(json.dumps({
        "correct": wire["correct"],
        "attempted": wire["attempted"],
        "failed": wire["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
