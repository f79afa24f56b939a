#!/usr/bin/env python3
"""Sanity-check the observability JSON artifacts.

Stdlib-only validator for the three machine-readable exports the
observability layer produces, run by CI right after the smoke benches:

  timeseries=FILE  windowed time-series export
                   (StatRegistry::writeTimeSeriesJson)
  slo=FILE         SLO evaluation report (obs::writeSloJson)
  trace=FILE       Chrome trace_event document (exportChromeTrace /
                   Cluster::exportFleetTrace); a boot stage's "phase"
                   arg must be sandbox-init or app-init
  fleet=FILE       fleet SLO/cost sweep (bench/fig_fleet_slo)
  imagededup=FILE  chunk-dedup + tier-ladder report
                   (bench/fig_image_dedup)
  chain=FILE       stateful-workflow locality sweep (bench/fig_chain)
  chainmetrics=FILE  fleet metrics snapshot with the chain.* / state.*
                     counters and the per-machine state-residency
                     block (trace_report --chain)
  metrics=FILE     StatRegistry::writeJson snapshot (bare or under a
                   Cluster::statsSnapshot "fleet" key): every counter
                   and histogram must be declared in the catalog
  catalog=FILE     the metric catalog (`trace_report --list-metrics`);
                   required by chain, chainmetrics and metrics, which
                   take their metric names from it

Usage: check_obs_schema.py kind=path [kind=path ...]

Exits non-zero with a description of the first violation. The point is
to catch malformed JSON (broken escaping, NaN leakage) and shape drift
(renamed keys, wrong types) that substring-based unit tests can miss.
"""

import json
import sys

FAILURES = []


def fail(path, msg):
    FAILURES.append(f"{path}: {msg}")


def expect(cond, path, msg):
    if not cond:
        fail(path, msg)
    return cond


def is_num(v):
    # bool is an int subclass; a bool where a number belongs is drift.
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_window(path, name, w):
    where = f"series {name!r} window {w.get('index')}"
    for key in ("index", "start_ms", "count", "sum", "mean", "p50",
                "p99", "p999", "max"):
        if not expect(key in w, path, f"{where}: missing {key!r}"):
            return
        if not expect(is_num(w[key]) or w[key] is None, path,
                      f"{where}: {key!r} is not a number"):
            return
    expect(isinstance(w["index"], int), path,
           f"{where}: index is not an integer")
    expect(isinstance(w["count"], int) and w["count"] >= 1, path,
           f"{where}: count must be a positive integer (sparse "
           "windows are omitted, not empty)")


def check_timeseries(path, doc):
    if not expect(isinstance(doc, dict), path, "root is not an object"):
        return
    expect(is_num(doc.get("default_window_ms"))
           and doc["default_window_ms"] > 0, path,
           "default_window_ms missing or not a positive number")
    series = doc.get("series")
    if not expect(isinstance(series, dict), path,
                  "'series' missing or not an object"):
        return
    for name, s in series.items():
        if not expect(isinstance(s, dict), path,
                      f"series {name!r} is not an object"):
            continue
        if not expect(is_num(s.get("window_ms")) and s["window_ms"] > 0,
                      path, f"series {name!r}: bad window_ms"):
            continue
        windows = s.get("windows")
        if not expect(isinstance(windows, list), path,
                      f"series {name!r}: 'windows' is not a list"):
            continue
        last_index = None
        for w in windows:
            if not expect(isinstance(w, dict), path,
                          f"series {name!r}: window is not an object"):
                continue
            check_window(path, name, w)
            idx = w.get("index")
            if isinstance(idx, int):
                if last_index is not None:
                    expect(idx > last_index, path,
                           f"series {name!r}: window indices not "
                           f"strictly increasing at {idx}")
                last_index = idx
                start = w.get("start_ms")
                if is_num(start):
                    expect(abs(start - idx * s["window_ms"]) < 1e-6,
                           path, f"series {name!r} window {idx}: "
                           "start_ms != index * window_ms")


def check_slo(path, doc):
    if not expect(isinstance(doc, dict), path, "root is not an object"):
        return
    slos = doc.get("slos")
    if not expect(isinstance(slos, list), path,
                  "'slos' missing or not a list"):
        return
    for s in slos:
        where = f"slo {s.get('metric')!r}"
        for key, kind in (("metric", str), ("threshold_ms", float),
                          ("objective", float), ("percentile", float),
                          ("total_events", int), ("bad_events", int),
                          ("attainment", float),
                          ("objective_met", bool),
                          ("worst_burn_rate", float),
                          ("windows_met", int), ("windows", list)):
            if not expect(key in s, path, f"{where}: missing {key!r}"):
                continue
            v = s[key]
            ok = (is_num(v) if kind is float
                  else isinstance(v, kind)
                  and (kind is not int or not isinstance(v, bool)))
            expect(ok, path, f"{where}: {key!r} has wrong type")
        if isinstance(s.get("windows"), list):
            for w in s["windows"]:
                expect(isinstance(w.get("met"), bool), path,
                       f"{where}: window missing boolean 'met'")
                expect(is_num(w.get("burn_rate")), path,
                       f"{where}: window missing numeric 'burn_rate'")


# The two halves of a boot (paper Fig. 4) a stage span's "phase" names.
BOOT_PHASES = {"sandbox-init", "app-init"}


def check_trace(path, doc):
    if not expect(isinstance(doc, dict), path, "root is not an object"):
        return
    events = doc.get("traceEvents")
    if not expect(isinstance(events, list), path,
                  "'traceEvents' missing or not a list"):
        return
    machines = set()
    for e in events:
        if not expect(isinstance(e, dict), path,
                      "event is not an object"):
            continue
        ph = e.get("ph")
        expect(ph in ("X", "M"), path, f"unexpected phase {ph!r}")
        expect(isinstance(e.get("name"), str), path,
               "event without a string name")
        expect(is_num(e.get("pid")), path, "event without numeric pid")
        expect(is_num(e.get("tid")), path, "event without numeric tid")
        if ph == "M":
            machines.add(e["pid"])
        elif ph == "X":
            expect(is_num(e.get("ts")) and is_num(e.get("dur")), path,
                   f"X event {e.get('name')!r} missing ts/dur")
            expect(e.get("pid") in machines, path,
                   f"X event {e.get('name')!r} in pid lane "
                   f"{e.get('pid')} with no process_name metadata")
            args = e.get("args")
            phase = args.get("phase") if isinstance(args, dict) else None
            expect(phase is None or phase in BOOT_PHASES, path,
                   f"X event {e.get('name')!r} has boot phase {phase!r} "
                   f"(want one of {sorted(BOOT_PHASES)})")


def check_fleet(path, doc):
    if not expect(isinstance(doc, dict), path, "root is not an object"):
        return
    config = doc.get("config")
    if expect(isinstance(config, dict), path,
              "'config' missing or not an object"):
        for key in ("functions", "tenants", "machines", "racks",
                    "total_rps", "duration_sec",
                    "resident_budget_mib_per_machine"):
            expect(is_num(config.get(key)) and config[key] > 0, path,
                   f"config: {key!r} missing or not positive")
    runs = doc.get("runs")
    if not expect(isinstance(runs, list) and runs, path,
                  "'runs' missing, not a list, or empty"):
        return
    seen = set()
    for r in runs:
        if not expect(isinstance(r, dict), path, "run is not an object"):
            continue
        where = f"run {r.get('scenario')!r}/{r.get('policy')!r}"
        expect(isinstance(r.get("scenario"), str)
               and isinstance(r.get("policy"), str), path,
               f"{where}: scenario/policy must be strings")
        seen.add((r.get("scenario"), r.get("policy")))
        for key in ("requests", "boots", "reuses", "expired"):
            expect(isinstance(r.get(key), int) and r[key] >= 0, path,
                   f"{where}: {key!r} missing or not a counter")
        if (isinstance(r.get("boots"), int)
                and isinstance(r.get("reuses"), int)
                and isinstance(r.get("requests"), int)):
            expect(r["boots"] + r["reuses"] == r["requests"], path,
                   f"{where}: boots + reuses != requests")
        tiers = r.get("tiers")
        if expect(isinstance(tiers, dict), path,
                  f"{where}: 'tiers' missing or not an object"):
            total = 0
            for tier, count in tiers.items():
                expect(isinstance(count, int) and count > 0, path,
                       f"{where}: tier {tier!r} count must be a "
                       "positive integer")
                total += count if isinstance(count, int) else 0
            if isinstance(r.get("requests"), int):
                expect(total == r["requests"], path,
                       f"{where}: tier counts do not sum to requests")
        for block, keys in (
                ("e2e_ms", ("p50", "p99", "p999", "max")),
                ("queue_ms", ("p99", "max")),
                ("boot_ms", ("p50", "p99", "p999")),
                ("cost", ("machine_seconds", "busy_seconds",
                          "avg_resident_mib", "peak_resident_mib",
                          "resident_mib_seconds"))):
            b = r.get(block)
            if not expect(isinstance(b, dict), path,
                          f"{where}: {block!r} missing or not an "
                          "object"):
                continue
            for key in keys:
                expect(is_num(b.get(key)), path,
                       f"{where}: {block}.{key} is not a number")
        slo = r.get("slo")
        if expect(isinstance(slo, dict), path,
                  f"{where}: 'slo' missing or not an object"):
            for name in ("e2e", "boot"):
                s = slo.get(name)
                if not expect(isinstance(s, dict), path,
                              f"{where}: slo.{name} missing"):
                    continue
                for key, kind in (("metric", str),
                                  ("threshold_ms", float),
                                  ("objective", float),
                                  ("total_events", int),
                                  ("bad_events", int),
                                  ("attainment", float),
                                  ("objective_met", bool),
                                  ("worst_burn_rate", float)):
                    v = s.get(key)
                    ok = (is_num(v) if kind is float
                          else isinstance(v, kind)
                          and (kind is not int
                               or not isinstance(v, bool)))
                    expect(ok, path, f"{where}: slo.{name}.{key} "
                           "missing or wrong type")
        scaler = r.get("autoscaler")
        if expect(isinstance(scaler, dict), path,
                  f"{where}: 'autoscaler' missing or not an object"):
            for key in ("ticks", "prewarm_triggers", "prewarm_builds",
                        "prewarm_false_positives",
                        "prewarm_served_sforks", "rebalance_actions",
                        "keepalive_expired", "pressure_evictions",
                        "pressure_budget_shrinks", "cross_rack_builds"):
                expect(isinstance(scaler.get(key), int)
                       and scaler[key] >= 0, path,
                       f"{where}: autoscaler.{key} missing or not a "
                       "counter")
        tenants = r.get("tenants")
        if expect(isinstance(tenants, list) and tenants, path,
                  f"{where}: 'tenants' missing, not a list, or empty"):
            for t in tenants:
                if not expect(isinstance(t, dict), path,
                              f"{where}: tenant entry not an object"):
                    continue
                expect(isinstance(t.get("tenant"), str), path,
                       f"{where}: tenant without a string name")
                expect(isinstance(t.get("events"), int)
                       and t["events"] >= 0, path,
                       f"{where}: tenant {t.get('tenant')!r} bad "
                       "'events'")
                expect(is_num(t.get("attainment"))
                       and 0.0 <= t["attainment"] <= 1.0, path,
                       f"{where}: tenant {t.get('tenant')!r} "
                       "attainment out of [0, 1]")
                expect(is_num(t.get("worst_burn_rate")), path,
                       f"{where}: tenant {t.get('tenant')!r} missing "
                       "worst_burn_rate")
                expect(isinstance(t.get("met"), bool), path,
                       f"{where}: tenant {t.get('tenant')!r} missing "
                       "boolean 'met'")
    expect(len(seen) == len(runs), path,
           "duplicate scenario/policy pairs in 'runs'")


def check_imagededup(path, doc):
    if not expect(isinstance(doc, dict), path, "root is not an object"):
        return
    config = doc.get("config")
    if expect(isinstance(config, dict), path,
              "'config' missing or not an object"):
        for key in ("functions", "chunk_ram_budget_mib",
                    "chunk_ssd_budget_mib"):
            expect(is_num(config.get(key)) and config[key] > 0, path,
                   f"config: {key!r} missing or not positive")
    rows = doc.get("dedup")
    if expect(isinstance(rows, list) and rows, path,
              "'dedup' missing, not a list, or empty"):
        seen = set()
        for row in rows:
            if not expect(isinstance(row, dict), path,
                          "dedup row is not an object"):
                continue
            arch = row.get("archetype")
            where = f"dedup row {arch!r}"
            expect(isinstance(arch, str), path,
                   f"{where}: archetype must be a string")
            seen.add(arch)
            expect(isinstance(row.get("functions"), int)
                   and row["functions"] > 0, path,
                   f"{where}: 'functions' missing or not a counter")
            for key in ("whole_mib", "transferred_mib", "dedup_ratio"):
                expect(is_num(row.get(key)) and row[key] > 0, path,
                       f"{where}: {key!r} missing or not positive")
            if is_num(row.get("whole_mib")) \
                    and is_num(row.get("transferred_mib")):
                expect(row["transferred_mib"] <= row["whole_mib"], path,
                       f"{where}: transferred more than the "
                       "whole-image bytes")
        expect(len(seen) == len(rows), path,
               "duplicate archetypes in 'dedup'")
    total = doc.get("total")
    if expect(isinstance(total, dict), path,
              "'total' missing or not an object"):
        for key in ("whole_mib", "transferred_mib", "dedup_ratio"):
            expect(is_num(total.get(key)) and total[key] > 0, path,
                   f"total: {key!r} missing or not positive")
    ladder = doc.get("tier_ladder_ms")
    if expect(isinstance(ladder, dict), path,
              "'tier_ladder_ms' missing or not an object"):
        for key in ("ram", "ssd", "peer", "origin"):
            expect(is_num(ladder.get(key)) and ladder[key] > 0, path,
                   f"tier_ladder_ms: {key!r} missing or not positive")
        if all(is_num(ladder.get(k))
               for k in ("ram", "ssd", "peer", "origin")):
            expect(ladder["ram"] < ladder["ssd"] < ladder["peer"]
                   < ladder["origin"], path,
                   "tier ladder latencies are not strictly ordered "
                   "ram < ssd < peer < origin")


# The metric catalog (catalog=FILE), loaded before any other artifact,
# and the counters every stateful-workflow artifact must carry.
CATALOG = []
CHAIN_ARTIFACT_COUNTERS = []


def declared(kind, layers):
    """Names of the catalog's non-family metrics of a kind and layers."""
    return sorted(m["name"] for m in CATALOG
                  if m["kind"] == kind and not m["family"]
                  and m["layer"] in layers)


def is_declared(name, kind):
    """A catalog metric of that kind, or a member of a declared family."""
    return any(m["kind"] == kind
               and (name.startswith(m["name"]) if m["family"]
                    else name == m["name"])
               for m in CATALOG)


def check_catalog(path, doc):
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not expect(isinstance(metrics, list) and metrics, path,
                  "'metrics' missing, not a list, or empty"):
        return
    for m in metrics:
        ok = (isinstance(m, dict)
              and all(isinstance(m.get(k), str) and m[k]
                      for k in ("name", "kind", "unit", "layer", "help"))
              and m["kind"] in ("counter", "histogram", "windowed")
              and isinstance(m.get("family"), bool))
        if expect(ok, path, f"malformed catalog entry {m!r}"):
            CATALOG.append(m)
    names = [m["name"] for m in CATALOG]
    expect(len(set(names)) == len(names), path, "duplicate metric names")
    chain = doc.get("chain_artifact_counters")
    if not expect(isinstance(chain, list) and chain, path,
                  "'chain_artifact_counters' missing, not a list, or "
                  "empty"):
        return
    for name in chain:
        if expect(any(m["name"] == name and m["kind"] == "counter"
                      and not m["family"] for m in CATALOG),
                  path, f"chain artifact counter {name!r} is not a "
                  "declared counter"):
            CHAIN_ARTIFACT_COUNTERS.append(name)


def check_counter_block(path, where, block):
    """A block that lists every chain-artifact counter."""
    if not expect(isinstance(block, dict), path,
                  f"{where} missing or not an object"):
        return
    for key in CHAIN_ARTIFACT_COUNTERS:
        expect(isinstance(block.get(key), int) and block[key] >= 0,
               path, f"{where}: {key!r} missing or not a counter")


def check_snapshot_names(path, where, snapshot):
    """Every counter and histogram of a writeJson snapshot is declared."""
    for block, kind in (("counters", "counter"),
                        ("histograms", "histogram")):
        entries = snapshot.get(block)
        if not expect(isinstance(entries, dict), path,
                      f"{where}: {block!r} missing or not an object"):
            continue
        for name in entries:
            expect(is_declared(name, kind), path,
                   f"{where}: {kind} {name!r} is not in the metric "
                   "catalog")


def check_metrics(path, doc):
    if not expect(isinstance(doc, dict), path, "root is not an object"):
        return
    # A machine snapshot, or a Cluster::statsSnapshot wrapping one.
    fleet = doc.get("fleet")
    if isinstance(fleet, dict):
        check_snapshot_names(path, "fleet", fleet)
    else:
        check_snapshot_names(path, "snapshot", doc)


def check_chain(path, doc):
    if not expect(isinstance(doc, dict), path, "root is not an object"):
        return
    config = doc.get("config")
    if expect(isinstance(config, dict), path,
              "'config' missing or not an object"):
        for key in ("runs", "region_pages", "machines"):
            expect(is_num(config.get(key)) and config[key] > 0, path,
                   f"config: {key!r} missing or not positive")
    hop = doc.get("hop_micro")
    if expect(isinstance(hop, dict), path,
              "'hop_micro' missing or not an object"):
        for key in ("local_ms", "remote_ms", "ratio"):
            expect(is_num(hop.get(key)) and hop[key] > 0, path,
                   f"hop_micro: {key!r} missing or not positive")
        if is_num(hop.get("local_ms")) and is_num(hop.get("remote_ms")):
            expect(hop["local_ms"] < hop["remote_ms"], path,
                   "hop_micro: local hop not cheaper than remote hop")
    for block, axis in (("width_sweep", "fanout"),
                        ("depth_sweep", "updates"),
                        ("region_sweep", "pages")):
        rows = doc.get(block)
        if not expect(isinstance(rows, list) and rows, path,
                      f"{block!r} missing, not a list, or empty"):
            continue
        last = None
        for row in rows:
            if not expect(isinstance(row, dict), path,
                          f"{block}: row is not an object"):
                continue
            v = row.get(axis)
            expect(isinstance(v, int) and v > 0, path,
                   f"{block}: {axis!r} missing or not positive")
            if isinstance(v, int):
                if last is not None:
                    expect(v > last, path,
                           f"{block}: {axis} not strictly increasing")
                last = v
            keys = (("local_ms", "remote_ms")
                    if block == "region_sweep"
                    else ("aware_ms", "blind_ms"))
            for key in keys:
                expect(is_num(row.get(key)) and row[key] > 0, path,
                       f"{block}: {key!r} missing or not positive")
    ab = doc.get("locality_ab")
    if expect(isinstance(ab, dict), path,
              "'locality_ab' missing or not an object"):
        for key in ("aware_p50_ms", "aware_p99_ms", "blind_p50_ms",
                    "blind_p99_ms"):
            expect(is_num(ab.get(key)) and ab[key] > 0, path,
                   f"locality_ab: {key!r} missing or not positive")
        for key in ("aware_hops_local", "aware_hops_remote",
                    "blind_hops_local", "blind_hops_remote"):
            expect(isinstance(ab.get(key), int) and ab[key] >= 0, path,
                   f"locality_ab: {key!r} missing or not a counter")
    mix = doc.get("fleet_mix")
    if expect(isinstance(mix, dict), path,
              "'fleet_mix' missing or not an object"):
        for key in ("requests", "workflow_runs", "hops_local",
                    "hops_remote", "transfer_bytes"):
            expect(isinstance(mix.get(key), int) and mix[key] >= 0,
                   path, f"fleet_mix: {key!r} missing or not a counter")
        expect(is_num(mix.get("chain_p99_ms")), path,
               "fleet_mix: 'chain_p99_ms' missing or not a number")
    for block in ("counters_aware", "counters_blind"):
        check_counter_block(path, block, doc.get(block))


def check_chainmetrics(path, doc):
    if not expect(isinstance(doc, dict), path, "root is not an object"):
        return
    machines = doc.get("machines")
    expect(isinstance(machines, int) and machines > 0, path,
           "'machines' missing or not positive")
    state = doc.get("state")
    if expect(isinstance(state, dict), path,
              "'state' missing or not an object (chain artifacts must "
              "carry the residency block)"):
        expect(isinstance(state.get("regions"), int)
               and state["regions"] > 0, path,
               "state: 'regions' missing or not positive")
        resident = state.get("resident_bytes")
        if expect(isinstance(resident, list), path,
                  "state: 'resident_bytes' missing or not a list"):
            if isinstance(machines, int):
                expect(len(resident) == machines, path,
                       "state: resident_bytes length != machines")
            for v in resident:
                expect(isinstance(v, int) and v >= 0, path,
                       "state: resident_bytes entry not a counter")
            total = state.get("resident_bytes_total")
            if expect(isinstance(total, int), path,
                      "state: 'resident_bytes_total' missing"):
                expect(total == sum(v for v in resident
                                    if isinstance(v, int)), path,
                       "state: resident_bytes_total != sum of "
                       "per-machine bytes")
    fleet = doc.get("fleet")
    if not expect(isinstance(fleet, dict), path,
                  "'fleet' missing or not an object"):
        return
    check_snapshot_names(path, "fleet", fleet)
    counters = fleet.get("counters")
    if isinstance(counters, dict):
        for key in CHAIN_ARTIFACT_COUNTERS:
            expect(is_num(counters.get(key)) and counters[key] >= 0,
                   path, f"fleet counters: {key!r} missing or not a "
                   "counter")
    histograms = fleet.get("histograms")
    if isinstance(histograms, dict):
        for key in declared("histogram", ("workflow",)):
            expect(isinstance(histograms.get(key), dict), path,
                   f"fleet histograms: {key!r} missing")


CHECKS = {"timeseries": check_timeseries, "slo": check_slo,
          "trace": check_trace, "fleet": check_fleet,
          "imagededup": check_imagededup, "chain": check_chain,
          "chainmetrics": check_chainmetrics, "metrics": check_metrics,
          "catalog": check_catalog}
NEEDS_CATALOG = {"chain", "chainmetrics", "metrics"}


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    args = []
    for arg in argv[1:]:
        kind, sep, path = arg.partition("=")
        if not sep or kind not in CHECKS:
            print(f"bad argument {arg!r} (want kind=path with kind in "
                  f"{sorted(CHECKS)})", file=sys.stderr)
            return 2
        args.append((kind, path))
    kinds = {kind for kind, _ in args}
    if kinds & NEEDS_CATALOG and "catalog" not in kinds:
        print(f"{sorted(kinds & NEEDS_CATALOG)} need catalog=FILE "
              "(trace_report --list-metrics)", file=sys.stderr)
        return 2
    # The catalog first: the other checks read their names from it.
    for kind, path in sorted(args, key=lambda a: a[0] != "catalog"):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            fail(path, f"unreadable or invalid JSON: {exc}")
            continue
        CHECKS[kind](path, doc)
    if FAILURES:
        for failure in FAILURES:
            print(f"SCHEMA VIOLATION {failure}", file=sys.stderr)
        return 1
    print(f"schema ok: {len(argv) - 1} artifact(s) validated")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
