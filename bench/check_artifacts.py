#!/usr/bin/env python3
"""Validate what the bench smoke run leaves in a bench directory.

Usage:
  python3 bench/check_artifacts.py [DIR]

DIR (default: the current directory) must hold BENCH_simcore.json, the
trajectory rows, and the run artifacts sim::observability_json writes:

  OBS_protocol_health.json          bench_protocol_health
  OBS_protocol_health.rerun.json    a second, identical bench_protocol_health
  OBS_workloads.json                bench_workloads (the governed ticker run)
  OBS_shard_full.json               bench_shard_scale --full (unsharded run)
  OBS_shard_gate.json               bench_shard_scale (the 2-process gate run)

Every artifact must carry its sections in order, with every wall-clock
number in the last one, `wall`, and its episode accounting must close; the
two bench_protocol_health artifacts must be byte-identical up to `,"wall":`.
Prints one summary line and exits 0, or names the first failed check and
exits 1.
"""
import json
import os
import sys

SECTIONS = ["shards", "snapshot", "sampler", "episodes", "episode_trace", "window", "wall"]
WALL = ["wall_seconds", "stall_fraction", "splice_ns", "shard_wait_ns", "trace"]
WALL_MARK = ',"wall":'
TIERS = ("local", "fallback", "primary")


def expect(ok, what):
    if not ok:
        sys.exit(f"check_artifacts: FAILED: {what}")


def check_bench(bench):
    """The trajectory rows: per-fault-class chaos accounting, the
    tier-resolved sec222 rows and the workload rows."""
    expect(isinstance(bench, list) and bench, "BENCH_simcore.json empty")
    expect(all({"name", "metric", "value"} <= set(e) for e in bench),
           "BENCH_simcore.json row without name, metric or value")
    chaos = [e for e in bench if e["name"].startswith("chaos_")]
    classes = {e["name"] for e in chaos}
    expect(len(classes) == 5, f"expected 5 chaos fault classes, got {classes}")
    lost = {e["name"]: e["value"] for e in chaos if e["metric"] == "lost_forever"}
    expect(len(lost) == 5 and all(v == 0 for v in lost.values()),
           f"receiver reliability violated under churn: {lost}")
    # Episode accounting must close under every fault class: every opened
    # recovery episode is repaired or abandoned (none leaked open), and with
    # nothing lost forever none may be abandoned.
    for name in sorted(classes):
        ep = {e["metric"]: e["value"] for e in chaos
              if e["name"] == name and e["metric"].startswith("episodes_")}
        expect(set(ep) == {"episodes_opened", "episodes_repaired", "episodes_abandoned",
                           "episodes_open"}, (name, ep))
        expect(ep["episodes_opened"] > 0, f"{name}: no episodes traced")
        expect(ep["episodes_opened"] == ep["episodes_repaired"] + ep["episodes_abandoned"] +
               ep["episodes_open"], (name, ep))
        expect(ep["episodes_open"] == 0, f"{name}: leaked open episodes")
        if lost[name] == 0:
            expect(ep["episodes_abandoned"] == 0,
                   f"{name}: abandoned episodes with nothing lost forever")
    tiers = {e["config"] for e in bench if e["name"] == "sec222_recovery_latency"}
    expect(tiers == {"logging=distributed,tier=local", "logging=centralized,tier=local",
                     "logging=escalated,tier=fallback"}, tiers)
    workloads = [e for e in bench if e["name"].startswith("workload_")]
    kinds = {e["name"] for e in workloads}
    expect(kinds == {"workload_ticker", "workload_www"}, kinds)
    for name in sorted(kinds):
        configs = {e["config"] for e in workloads if e["name"] == name}
        expect(any("governor=on" in c for c in configs), (name, configs))
        expect(any("governor=off" in c for c in configs), (name, configs))
    wl_lost = [e for e in workloads if e["metric"] == "lost_forever"]
    expect(wl_lost and all(e["value"] == 0 for e in wl_lost),
           f"workload receiver reliability violated: {wl_lost}")


def check_artifact(path, text):
    """What every run artifact must hold, whichever bench wrote it."""
    art = json.loads(text)
    expect(list(art) == SECTIONS, f"{path}: sections {list(art)}")
    expect(text.count(WALL_MARK) == 1, f"{path}: `wall` is not one last section")
    wall = art["wall"]
    expect(list(wall) == WALL, f"{path}: wall holds {list(wall)}")
    shards = art["shards"]

    sampler = art["sampler"]
    for name, s in sampler["series"].items():
        expect(s["kind"] in ("rate", "level"), f"{path}: series {name}")
        expect(len(s["values"]) == len(sampler["t"]), f"{path}: series {name}")

    # Episode accounting, self-audited: every opened episode is repaired,
    # abandoned or still open; every closed one left a record or counts as
    # dropped; each repair lands in exactly one tier's latency histogram,
    # and each served fetch in the fetch histogram.
    ep = art["episodes"]
    scalars, hists = art["snapshot"]["scalars"], art["snapshot"]["histograms"]
    expect(ep["opened"] == ep["repaired"] + ep["abandoned"] + ep["open"],
           f"{path}: opened != repaired + abandoned + open: {ep}")
    expect(ep["fetch_opened"] == ep["fetch_served"] + ep["fetch_abandoned"] + ep["fetch_open"],
           f"{path}: fetch_opened != fetch_served + fetch_abandoned + fetch_open: {ep}")
    expect(len(ep["records_per_shard"]) == shards and
           sum(ep["records_per_shard"]) == ep["records"],
           f"{path}: records_per_shard is not {shards} counts summing to records: {ep}")
    closed = ep["repaired"] + ep["abandoned"] + ep["fetch_served"] + ep["fetch_abandoned"]
    dropped = scalars["recovery.episode_records_dropped"]
    expect(ep["records"] + dropped == closed,
           f"{path}: {ep['records']} records + {dropped} dropped != {closed} closed episodes")
    tier_repairs = sum(hists[f"recovery.latency_s.{t}"]["count"] for t in TIERS)
    expect(tier_repairs == ep["repaired"], f"{path}: {tier_repairs} tier repairs, {ep}")
    fetch_repairs = hists["recovery.fetch_latency_s"]["count"]
    expect(fetch_repairs == ep["fetch_served"], f"{path}: {fetch_repairs} fetch repairs, {ep}")
    spans = art["episode_trace"]["traceEvents"]
    expect(len(spans) == 2 * ep["records"] and all(e["ph"] in ("b", "e") for e in spans),
           f"{path}: episode spans")
    expect({e["pid"] for e in spans} <= set(range(shards)), f"{path}: episode span pids")

    windows = art["window"]["windows"]
    expect(len(wall["splice_ns"]) == windows, f"{path}: splice_ns")
    expect(len(wall["shard_wait_ns"]) == shards and
           all(len(w) in (0, windows) for w in wall["shard_wait_ns"]), f"{path}: shard_wait_ns")
    expect(all({"ph", "ts", "dur", "tid"} <= set(e) for e in wall["trace"]["traceEvents"]),
           f"{path}: wall trace events")
    return art


def check_sampled(path, art):
    s = art["sampler"]
    expect(s["interval_s"] > 0 and len(s["t"]) > 0, f"{path}: no sampler rows")
    return s["series"]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."

    def read(name):
        with open(os.path.join(root, name)) as f:
            return f.read()

    bench = json.loads(read("BENCH_simcore.json"))
    check_bench(bench)

    # bench_protocol_health: the sampled protocol-health curves, and the
    # same bytes from a second run up to the wall section.
    health_text = read("OBS_protocol_health.json")
    health = check_artifact("OBS_protocol_health.json", health_text)
    expect(check_sampled("OBS_protocol_health.json", health), "no sampler series exported")
    rerun = read("OBS_protocol_health.rerun.json")
    check_artifact("OBS_protocol_health.rerun.json", rerun)
    expect(rerun[:rerun.index(WALL_MARK)] == health_text[:health_text.index(WALL_MARK)],
           "two bench_protocol_health runs differ outside `wall`")

    # bench_workloads: the governed ticker run's workload and flow series.
    workloads = check_artifact("OBS_workloads.json", read("OBS_workloads.json"))
    series = check_sampled("OBS_workloads.json", workloads)
    expect(any(n.startswith("workload.") for n in series), "workload.* sampler series missing")
    expect("proto.sender.flow.spacing_us" in series, "flow spacing series missing")

    # bench_shard_scale --full: the unsharded build's spans, `finalize`
    # among them (perfbench reads it as sim.net.finalize_s).
    full = check_artifact("OBS_shard_full.json", read("OBS_shard_full.json"))
    build_spans = full["wall"]["trace"]["traceEvents"]
    expect(any(e["name"] == "finalize" for e in build_spans), "no finalize span")

    # The shard gate's lossy 2-process run: every plane present, merged,
    # with the episode accounting closed and nothing abandoned.
    gate = check_artifact("OBS_shard_gate.json", read("OBS_shard_gate.json"))
    expect(gate["shards"] == 2, f"shard gate ran {gate['shards']} shards, not 2")
    hists = gate["snapshot"]["histograms"]
    expect(gate["snapshot"]["scalars"] and hists, "empty merged snapshot")
    expect(any(n.startswith("recovery.latency_s.") for n in hists),
           "per-tier recovery latency histograms missing from merged snapshot")
    expect(any(n.startswith("recovery.") for n in gate["sampler"]["series"]),
           "recovery.* sampler series missing from merged snapshot")
    ep = gate["episodes"]
    expect(ep["opened"] > 0, "lossy shard gate traced no episodes")
    expect(ep["open"] == 0 and ep["abandoned"] == 0,
           f"shard gate left episodes open or abandoned: {ep}")
    windows = gate["window"]["windows"]
    expect(windows > 0, "shard gate ran no windows")
    expect(all(len(w) == windows for w in gate["wall"]["shard_wait_ns"]),
           "shard gate: a shard_wait_ns row is not one entry per window")
    expect(gate["episode_trace"]["traceEvents"], "shard gate wrote no episode spans")

    print(f"ok: {len(bench)} bench metrics, {len(health['sampler']['t'])} sampler rows, "
          f"{len(build_spans)} build spans, {ep['records']} episode records across "
          f"{gate['shards']} shards")


if __name__ == "__main__":
    main()
