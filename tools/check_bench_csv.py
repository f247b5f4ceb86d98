#!/usr/bin/env python3
"""Bench-regression tripwire for CI's bench-smoke job.

Parses the CSVs the characterization benches emit and fails on sanity
violations instead of only uploading artifacts:

serving_load_sweep.csv
  * schema/finiteness, utilization in [0, 1], SLA-violation rate in [0, 1]
  * shed fraction in [0, 1]; goodput never exceeds throughput
  * p99 latency is non-decreasing with offered load for the open-loop,
    admit-all, no-batching series within each (resipi_mode, pipeline,
    tenant_mix) group (an M/G/1-style queue cannot get faster under more
    load; batching policies are exempt because a fuller batch *can*
    shorten the fill wait, shedding is exempt because it bounds the tail
    by design, and closed-loop rows are exempt because the client pool
    self-throttles)
  * closed-loop rows: measured throughput cannot exceed the client pool's
    upper bound users/think_s (users = total concurrent users across the
    mix) beyond sampling slack — the bound holds in expectation, so a
    finite run may overshoot by ~1/sqrt(requests-per-user) — and only
    shed requests may be lost (completed + shed == offered is checked
    in-simulator; here: goodput <= throughput <= bound * slack)
  * at equal load, layer-granular (pipelined) execution must achieve at
    least the batch-granular pool utilization, and no worse a p99

noc_photonic_traffic.csv
  * schema/finiteness, delivered fraction in (0, 1]
  * mean read latency is non-decreasing with offered load per mode
  * delivered fraction is non-decreasing with offered load per mode

sim_speed_sweep.csv
  * schema/finiteness; exactly one cycle-accurate and at least one
    sampled fidelity group, each covering the same (policy, load) points
  * the speed/accuracy contract of Fidelity::kSampled: every sampled
    group simulates <= 1/10 of the cycle-accurate group's photonic
    cycle-net busy cycles (the whole point of sampling; busy cycles are
    deterministic work, while the sampled-vs-cycle wall rates depend on
    the host and on the cycle net's skip-ahead and are recorded
    ungated), while its mean and p50 latencies stay within the
    calibration band of the cycle-accurate row at the same (policy, load)
    point — cheap alone is easy, the pair is the feature
  * analytical must be at least as fast as sampled (sampling adds cycle
    windows on top of the closed-form model, it cannot be cheaper)

transformer_serving_sweep.csv
  * schema/finiteness, utilization in [0, 1], goodput never exceeds
    throughput, TTFT p99 never exceeds completion p99, and peak KV-cache
    occupancy never exceeds the per-tenant budget (a hard reservation)
  * context section: decode throughput (tokens/s) is non-increasing in
    the prompt length — every decode step re-streams the whole KV cache
  * policy section: at the saturating decode-heavy operating point,
    continuous (iteration-level) batching beats fixed-size batching on
    goodput AND p99 AND TTFT p99 — retiring sequences at token
    boundaries instead of padding to the longest generation is the
    feature under test

cluster_scale_sweep.csv
  * schema/finiteness, per-package utilization spread in [0, 1] with
    util_min <= util_max, shed fraction in [0, 1], goodput never exceeds
    throughput, transfer charges non-negative (and consistent: zero
    transfers means zero transfer latency/energy)
  * rack throughput is non-decreasing in package count at fixed
    (balancer, replication, offered load) — adding packages must not
    cost aggregate throughput
  * at equal (packages, replication, offered load), the locality-aware
    balancer achieves at least the round-robin goodput (it only deviates
    from the fallback policy to avoid photonic transfer hops)

elastic_day_sweep.csv
  * schema/finiteness, availability and fractions in [0, 1], energy per
    request positive wherever anything completed
  * all four policy rows present (static, elastic, elastic_gated,
    faulted) over the same offered stream
  * the headline elasticity contract: elastic + gating spends measurably
    less energy per request than the static partition at off-peak (the
    idle burn it removes is largest exactly when the diurnal trough
    leaves chiplets dark), and its total idle ledger energy never
    exceeds the ungated run's
  * gating consistency: zero gate events means zero gated seconds, and
    only gated policies may report them
  * fault tolerance: the faulted day actually injected its fault and
    kept availability above zero — degraded-but-serving, never dark —
    while its goodput does not beat the healthy static day

Usage: check_bench_csv.py FILE [FILE ...]
Files are dispatched on their basename. Exits non-zero on any violation.
"""

import csv
import math
import os
import sys

# Multiplicative slack for "non-decreasing" trends: finite-run noise may
# wiggle a point, a regression moves it.
TREND_TOLERANCE = 0.98
# Pipelined may not lose to blocked by more than float noise.
PAIR_TOLERANCE = 1.0 - 1e-6
# The closed-loop bound users/think_s holds in expectation, not per
# sample path: a finite run's realized think-time sum wobbles by
# ~1/sqrt(requests-per-user), so measured throughput can legitimately
# sit a few percent above the bound. 10% slack separates sampling noise
# from a real self-throttling regression (which overshoots by the
# user-pool factor, not percents).
CLOSED_BOUND_SLACK = 1.10
# The sampled-fidelity acceptance gate: at least this many cycle-accurate
# photonic busy cycles per sampled one (DenseNet121, batch sizes 1-8). The
# bench's operating point (windows=8) measures ~15x; 10x is the contract.
# Busy cycles are simulated work, bit-identical on every host, so the
# floor gates sampling itself — not host speed or the cycle net's
# skip-ahead, which made cycle-accurate wall time nearly as cheap.
SIM_SPEEDUP_FLOOR = 10.0
# Sampled latencies must sit within this relative band of the
# cycle-accurate row at the same (policy, load) point — the same order
# as the batch-calibration tolerance on service times. The bench pins
# its load points below the capacity knee precisely so queueing does not
# amplify service-time error past the band (waits scale like
# 1/(1 - rho)); measured error at the operating point is ~4-6%.
SIM_LATENCY_BAND = 0.10
# The observability overhead contract (docs/observability.md): the
# attached-recorder rate of the sim_speed obs pair must stay within 3%
# of the detached rate. Both sides are best-of-N on the same scenario,
# so what's left is genuinely recorder cost, not scheduler noise.
OBS_OVERHEAD_FLOOR = 0.97

failures = []


def fail(path, message):
    failures.append(f"{os.path.basename(path)}: {message}")


def read_rows(path, required):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        fail(path, "no data rows")
        return []
    missing = sorted(set(required) - set(rows[0].keys()))
    if missing:
        fail(path, f"missing columns: {', '.join(missing)}")
        return []
    return rows


def numeric(path, row, column):
    try:
        value = float(row[column])
    except (KeyError, TypeError, ValueError):
        fail(path, f"non-numeric {column}: {row.get(column)!r}")
        return None
    if not math.isfinite(value):
        fail(path, f"non-finite {column}: {value}")
        return None
    return value


def check_trend(path, series, key, what):
    """Values must be non-decreasing along the series within tolerance."""
    ordered = sorted(series, key=lambda r: r["_load"])
    for prev, cur in zip(ordered, ordered[1:]):
        if cur[key] < prev[key] * TREND_TOLERANCE:
            fail(
                path,
                f"{what}: {key} fell from {prev[key]:g} to {cur[key]:g} "
                f"as load rose {prev['_load']:g} -> {cur['_load']:g}",
            )


def check_serving(path):
    numeric_cols = [
        "offered_rps",
        "users",
        "think_s",
        "throughput_rps",
        "goodput_rps",
        "shed",
        "shed_fraction",
        "mean_s",
        "p50_s",
        "p95_s",
        "p99_s",
        "sla_violation_rate",
        "mean_batch",
        "utilization",
        "energy_per_request_j",
    ]
    string_cols = ["resipi_mode", "policy", "pipeline", "tenant_mix",
                   "source", "admission"]
    rows = read_rows(path, string_cols + numeric_cols)
    parsed = []
    for row in rows:
        values = {c: numeric(path, row, c) for c in numeric_cols}
        if any(v is None for v in values.values()):
            return
        values["_load"] = values["offered_rps"]
        for col in string_cols:
            values[col] = row[col]
        parsed.append(values)
        if not 0.0 <= values["utilization"] <= 1.0 + 1e-6:
            fail(path, f"utilization out of [0, 1]: {values['utilization']:g}")
        if not 0.0 <= values["sla_violation_rate"] <= 1.0:
            fail(
                path,
                f"SLA violation rate out of [0, 1]: "
                f"{values['sla_violation_rate']:g}",
            )
        if not 0.0 <= values["shed_fraction"] <= 1.0:
            fail(
                path,
                f"shed fraction out of [0, 1]: {values['shed_fraction']:g}",
            )
        if values["goodput_rps"] > values["throughput_rps"] / PAIR_TOLERANCE:
            fail(
                path,
                f"goodput {values['goodput_rps']:g} exceeds throughput "
                f"{values['throughput_rps']:g}",
            )
        if values["source"] == "closed":
            if values["think_s"] <= 0 or values["users"] < 1:
                fail(
                    path,
                    f"closed-loop row without users/think_s: "
                    f"users={values['users']:g} think={values['think_s']:g}",
                )
            else:
                bound = values["users"] / values["think_s"]
                if values["throughput_rps"] > bound * CLOSED_BOUND_SLACK:
                    fail(
                        path,
                        f"closed-loop throughput {values['throughput_rps']:g}"
                        f" exceeds the client-pool bound {bound:g} "
                        f"(users/think_s)",
                    )

    # p99 monotone in offered load for the open-loop queueing-only,
    # admit-all series (closed loops self-throttle and shedding bounds
    # the tail, so neither is required to be monotone).
    series = {}
    for row in parsed:
        if (
            row["policy"] != "none"
            or row["source"] != "open"
            or row["admission"] != "all"
        ):
            continue
        key = (row["resipi_mode"], row["pipeline"], row["tenant_mix"])
        series.setdefault(key, []).append(row)
    if not series:
        fail(path, "no open/admit-all policy=none rows to check p99 on")
    for key, group in sorted(series.items()):
        check_trend(path, group, "p99_s", f"series {'/'.join(key)}")

    # Pipelined must not lose to blocked at equal load.
    blocked = {}
    pipelined = {}
    for row in parsed:
        key = (
            row["resipi_mode"],
            row["policy"],
            row["tenant_mix"],
            row["source"],
            row["admission"],
            row["offered_rps"],
        )
        {"batch": blocked, "layer": pipelined}.setdefault(
            row["pipeline"], {}
        )[key] = row
    pairs = sorted(set(blocked) & set(pipelined))
    if pipelined and not pairs:
        fail(path, "layer-granular rows have no batch-granular twin")
    for key in pairs:
        b, p = blocked[key], pipelined[key]
        label = "/".join(str(k) for k in key)
        if p["utilization"] < b["utilization"] * PAIR_TOLERANCE:
            fail(
                path,
                f"pipelined utilization {p['utilization']:g} below "
                f"blocked {b['utilization']:g} at {label}",
            )
        if p["p99_s"] > b["p99_s"] / TREND_TOLERANCE:
            fail(
                path,
                f"pipelined p99 {p['p99_s']:g} above blocked "
                f"{b['p99_s']:g} at {label}",
            )


def check_noc(path):
    numeric_cols = [
        "offered_fraction",
        "mean_read_cycles",
        "mean_write_cycles",
        "delivered_fraction",
    ]
    rows = read_rows(path, ["mode"] + numeric_cols)
    series = {}
    for row in rows:
        values = {c: numeric(path, row, c) for c in numeric_cols}
        if any(v is None for v in values.values()):
            return
        values["_load"] = values["offered_fraction"]
        if values["mean_read_cycles"] <= 0:
            fail(path, f"non-positive read latency: {values['mean_read_cycles']:g}")
        if not 0.0 < values["delivered_fraction"] <= 1.0 + 1e-6:
            fail(
                path,
                f"delivered fraction out of (0, 1]: "
                f"{values['delivered_fraction']:g}",
            )
        series.setdefault(row["mode"], []).append(values)
    for mode, group in sorted(series.items()):
        if len(group) < 2:
            fail(path, f"mode {mode}: fewer than 2 load points")
            continue
        check_trend(path, group, "mean_read_cycles", f"mode {mode}")
        check_trend(path, group, "delivered_fraction", f"mode {mode}")


def check_cluster(path):
    numeric_cols = [
        "packages",
        "replication",
        "offered_rps",
        "throughput_rps",
        "goodput_rps",
        "shed",
        "shed_fraction",
        "p50_s",
        "p99_s",
        "energy_per_request_j",
        "transfers",
        "transfer_latency_s",
        "transfer_energy_j",
        "util_min",
        "util_max",
    ]
    parsed = []
    for row in read_rows(path, ["balancer"] + numeric_cols):
        values = {c: numeric(path, row, c) for c in numeric_cols}
        if any(v is None for v in values.values()):
            return
        values["balancer"] = row["balancer"]
        values["_load"] = values["packages"]
        parsed.append(values)
        if not 0.0 <= values["util_min"] <= values["util_max"] <= 1.0 + 1e-6:
            fail(
                path,
                f"utilization spread out of [0, 1]: "
                f"[{values['util_min']:g}, {values['util_max']:g}]",
            )
        if not 0.0 <= values["shed_fraction"] <= 1.0:
            fail(
                path,
                f"shed fraction out of [0, 1]: {values['shed_fraction']:g}",
            )
        if values["goodput_rps"] > values["throughput_rps"] / PAIR_TOLERANCE:
            fail(
                path,
                f"goodput {values['goodput_rps']:g} exceeds throughput "
                f"{values['throughput_rps']:g}",
            )
        if values["transfer_latency_s"] < 0 or values["transfer_energy_j"] < 0:
            fail(
                path,
                f"negative transfer charge: latency "
                f"{values['transfer_latency_s']:g} energy "
                f"{values['transfer_energy_j']:g}",
            )
        if values["transfers"] == 0 and (
            values["transfer_latency_s"] > 0 or values["transfer_energy_j"] > 0
        ):
            fail(path, "transfer charges without any recorded transfers")

    # Rack throughput monotone in package count at fixed load: the trend
    # key is the package count, so adding packages must not cost
    # aggregate throughput within each (balancer, replication, load)
    # series.
    series = {}
    for row in parsed:
        key = (row["balancer"], row["replication"], row["offered_rps"])
        series.setdefault(key, []).append(row)
    for key, group in sorted(series.items()):
        if len(group) < 2:
            fail(path, f"series {key}: fewer than 2 package counts")
            continue
        label = "/".join(str(k) for k in key)
        check_trend(path, group, "throughput_rps", f"series {label}")

    # Locality-aware must not lose goodput to round-robin at equal load.
    rr = {}
    locality = {}
    for row in parsed:
        key = (row["packages"], row["replication"], row["offered_rps"])
        {"rr": rr, "locality": locality}.setdefault(row["balancer"], {})[
            key
        ] = row
    pairs = sorted(set(rr) & set(locality))
    if locality and not pairs:
        fail(path, "locality-aware rows have no round-robin twin")
    for key in pairs:
        base, better = rr[key], locality[key]
        if better["goodput_rps"] < base["goodput_rps"] * TREND_TOLERANCE:
            label = "/".join(str(k) for k in key)
            fail(
                path,
                f"locality-aware goodput {better['goodput_rps']:g} below "
                f"round-robin {base['goodput_rps']:g} at {label}",
            )


def check_obs_pair(path, pair):
    """The attached-recorder rate must stay within 3% of detached."""
    if not pair:
        return  # pre-observability CSVs have no pair rows
    missing = sorted({"pair-off", "pair-on"} - set(pair))
    if missing:
        fail(path, f"obs pair incomplete: missing {', '.join(missing)}")
        return
    off_rate = pair["pair-off"][0]["requests_per_wall_s"]
    on_rate = pair["pair-on"][0]["requests_per_wall_s"]
    if on_rate < off_rate * OBS_OVERHEAD_FLOOR:
        fail(
            path,
            f"attached-recorder rate {on_rate:g} requests/wall-s is "
            f"{1.0 - on_rate / off_rate:.1%} below the detached rate "
            f"{off_rate:g}; the observability overhead budget is "
            f"{1.0 - OBS_OVERHEAD_FLOOR:.0%}",
        )


def check_sim_speed(path):
    numeric_cols = [
        "offered_rps",
        "offered_util",
        "requests",
        "wall_s",
        "requests_per_wall_s",
        "throughput_rps",
        "mean_s",
        "p50_s",
        "p95_s",
        "p99_s",
        "mean_batch",
        "busy_cycles",
    ]
    groups = {}
    pair = {}
    for row in read_rows(path, ["fidelity", "policy"] + numeric_cols):
        values = {c: numeric(path, row, c) for c in numeric_cols}
        if any(v is None for v in values.values()):
            return
        values["policy"] = row["policy"]
        if values["wall_s"] <= 0 or values["requests_per_wall_s"] <= 0:
            fail(
                path,
                f"non-positive wall time/rate: wall={values['wall_s']:g} "
                f"rate={values['requests_per_wall_s']:g}",
            )
        # The observability overhead pair (obs=pair-off/pair-on) is a
        # direct-simulate measurement outside the fidelity grid; keep it
        # out of the fidelity grouping below. Rows without an obs column
        # predate the recorder and are null-recorder rows.
        obs = row.get("obs", "off") or "off"
        if obs.startswith("pair-"):
            pair.setdefault(obs, []).append(values)
        else:
            groups.setdefault(row["fidelity"], []).append(values)

    check_obs_pair(path, pair)

    def mode_of(fidelity):
        return fidelity.split(":", 1)[0]

    cycle = {f: g for f, g in groups.items() if mode_of(f) == "cycle"}
    sampled = {f: g for f, g in groups.items() if mode_of(f) == "sampled"}
    analytical = {f: g for f, g in groups.items()
                  if mode_of(f) == "analytical"}
    if len(cycle) != 1:
        fail(path, f"expected exactly one cycle group, got {sorted(cycle)}")
        return
    if not sampled:
        fail(path, "no sampled fidelity group — the bench's entire point")
        return
    cycle_rows = next(iter(cycle.values()))
    cycle_busy = cycle_rows[0]["busy_cycles"]
    cycle_points = {
        (r["policy"], r["offered_rps"]): r for r in cycle_rows
    }
    if cycle_busy <= 0:
        fail(path, "cycle group simulated no photonic busy cycles")
        return

    for fidelity, rows in sorted(sampled.items()):
        busy = rows[0]["busy_cycles"]
        if busy * SIM_SPEEDUP_FLOOR > cycle_busy:
            fail(
                path,
                f"{fidelity}: {busy:g} photonic busy cycles are only "
                f"{cycle_busy / busy:.1f}x fewer than "
                f"cycle-accurate's ({cycle_busy:g}); the sampled contract "
                f"is >= {SIM_SPEEDUP_FLOOR:g}x",
            )
        points = {(r["policy"], r["offered_rps"]): r for r in rows}
        if set(points) != set(cycle_points):
            fail(
                path,
                f"{fidelity}: load points differ from the cycle group's",
            )
            continue
        for key in sorted(points):
            ref, got = cycle_points[key], points[key]
            label = f"{key[0]}@{got['offered_util']:g}"
            for col in ("mean_s", "p50_s"):
                rel = abs(got[col] - ref[col]) / ref[col]
                if rel > SIM_LATENCY_BAND:
                    fail(
                        path,
                        f"{fidelity}: {col} at {label} is {rel:.1%} off "
                        f"cycle-accurate ({got[col]:g} vs {ref[col]:g}), "
                        f"band is {SIM_LATENCY_BAND:.0%}",
                    )

    for fidelity, rows in sorted(analytical.items()):
        rate = rows[0]["requests_per_wall_s"]
        slowest_sampled = min(
            g[0]["requests_per_wall_s"] for g in sampled.values()
        )
        if rate < slowest_sampled:
            fail(
                path,
                f"{fidelity}: {rate:g} requests/wall-s is slower than a "
                f"sampled group ({slowest_sampled:g}) — sampling adds cycle "
                f"windows on top of the closed-form model",
            )


def check_transformer(path):
    numeric_cols = [
        "prefill_tokens",
        "decode_tokens",
        "token_spread",
        "kv_cache_mb",
        "offered_rps",
        "throughput_rps",
        "goodput_rps",
        "shed",
        "p50_s",
        "p99_s",
        "ttft_p99_s",
        "decode_tps",
        "kv_peak_bytes",
        "kv_budget_bytes",
        "mean_batch",
        "utilization",
        "energy_per_request_j",
    ]
    rows = read_rows(path, ["section", "policy"] + numeric_cols)
    parsed = []
    for row in rows:
        values = {c: numeric(path, row, c) for c in numeric_cols}
        if any(v is None for v in values.values()):
            return
        values["section"] = row["section"]
        values["policy"] = row["policy"]
        parsed.append(values)
        if not 0.0 <= values["utilization"] <= 1.0 + 1e-6:
            fail(path, f"utilization out of [0, 1]: {values['utilization']:g}")
        if values["goodput_rps"] > values["throughput_rps"] * (1.0 + 1e-9):
            fail(
                path,
                f"goodput {values['goodput_rps']:g} exceeds throughput "
                f"{values['throughput_rps']:g}",
            )
        # The KV budget is a hard reservation cap: peak occupancy can
        # never exceed it, at any setting.
        if values["kv_peak_bytes"] > values["kv_budget_bytes"]:
            fail(
                path,
                f"KV peak {values['kv_peak_bytes']:g} B exceeds the "
                f"budget {values['kv_budget_bytes']:g} B",
            )
        # Every request's first token lands no later than its completion,
        # so the TTFT tail is pointwise dominated by the latency tail.
        if values["ttft_p99_s"] > values["p99_s"] * (1.0 + 1e-9):
            fail(
                path,
                f"TTFT p99 {values['ttft_p99_s']:g} exceeds completion "
                f"p99 {values['p99_s']:g}",
            )

    # Context sweep: every decode step re-streams the whole KV cache, so
    # decode throughput must fall (or hold) as the prompt grows.
    context = sorted(
        (r for r in parsed if r["section"] == "context"),
        key=lambda r: r["prefill_tokens"],
    )
    if len(context) < 2:
        fail(path, "context section has fewer than 2 prompt lengths")
    for prev, cur in zip(context, context[1:]):
        if cur["decode_tps"] > prev["decode_tps"] / TREND_TOLERANCE:
            fail(
                path,
                f"decode_tps rose from {prev['decode_tps']:g} to "
                f"{cur['decode_tps']:g} as the context grew "
                f"{prev['prefill_tokens']:g} -> {cur['prefill_tokens']:g} "
                f"tokens",
            )

    # Policy grid at saturating decode-heavy load: continuous batching
    # must beat fixed-size on goodput AND tail latency — retiring each
    # sequence at its own token boundary instead of padding the batch to
    # the longest generation is the feature under test.
    policies = {r["policy"]: r for r in parsed if r["section"] == "policy"}
    if not {"size", "cont"} <= set(policies):
        fail(path, "policy section is missing the size/cont pair")
    else:
        size, cont = policies["size"], policies["cont"]
        if cont["goodput_rps"] < size["goodput_rps"] * PAIR_TOLERANCE:
            fail(
                path,
                f"continuous goodput {cont['goodput_rps']:g} lost to "
                f"fixed-size {size['goodput_rps']:g} at the saturating "
                f"decode-heavy point",
            )
        if cont["p99_s"] > size["p99_s"] / PAIR_TOLERANCE:
            fail(
                path,
                f"continuous p99 {cont['p99_s']:g} lost to fixed-size "
                f"{size['p99_s']:g} at the saturating decode-heavy point",
            )
        if cont["ttft_p99_s"] > size["ttft_p99_s"] / PAIR_TOLERANCE:
            fail(
                path,
                f"continuous TTFT p99 {cont['ttft_p99_s']:g} lost to "
                f"fixed-size {size['ttft_p99_s']:g}",
            )


def check_elastic(path):
    numeric_cols = [
        "offered",
        "completed",
        "abandoned",
        "availability",
        "goodput_rps",
        "energy_per_request_j",
        "offpeak_epr_j",
        "peak_epr_j",
        "idle_energy_j",
        "gated_idle_s",
        "gate_events",
        "repartitions",
        "retries",
        "faults_injected",
        "carbon_g",
    ]
    rows = {}
    for row in read_rows(path, ["policy"] + numeric_cols):
        values = {c: numeric(path, row, c) for c in numeric_cols}
        if any(v is None for v in values.values()):
            return
        rows[row["policy"]] = values
        if not 0.0 <= values["availability"] <= 1.0 + 1e-9:
            fail(path, f"availability out of [0, 1]: {values['availability']:g}")
        if values["completed"] > 0 and values["energy_per_request_j"] <= 0:
            fail(
                path,
                f"non-positive energy per request with completions: "
                f"{values['energy_per_request_j']:g}",
            )
        if values["gate_events"] == 0 and values["gated_idle_s"] != 0:
            fail(
                path,
                f"{values['gated_idle_s']:g} s gated without a gate event",
            )
        if values["idle_energy_j"] < 0 or values["carbon_g"] < 0:
            fail(path, "negative idle energy or carbon")

    expected = {"static", "elastic", "elastic_gated", "faulted"}
    if set(rows) != expected:
        fail(
            path,
            f"policy rows {sorted(rows)} != expected {sorted(expected)}",
        )
        return
    static, gated, faulted = (
        rows["static"],
        rows["elastic_gated"],
        rows["faulted"],
    )
    if any(r["offered"] != static["offered"] for r in rows.values()):
        fail(path, "policies did not replay the same offered stream")

    # The headline contract: power-gating the diurnal trough must buy a
    # measurable off-peak energy-per-request win over the static
    # partition — 2% is far below the observed ~35% and far above float
    # noise, so a miss means the gating path stopped removing idle burn.
    if gated["offpeak_epr_j"] > static["offpeak_epr_j"] * 0.98:
        fail(
            path,
            f"gated off-peak energy/request {gated['offpeak_epr_j']:g} did "
            f"not beat static {static['offpeak_epr_j']:g} by 2%",
        )
    if gated["idle_energy_j"] > static["idle_energy_j"]:
        fail(
            path,
            f"gated idle ledger energy {gated['idle_energy_j']:g} exceeds "
            f"ungated {static['idle_energy_j']:g}",
        )
    if static["gate_events"] != 0 or rows["elastic"]["gate_events"] != 0:
        fail(path, "an ungated policy reported gate events")

    # Degraded but serving: the fault fired, the day kept completing
    # requests, and the broken pool cannot out-serve the healthy one.
    if faulted["faults_injected"] < 1:
        fail(path, "the faulted day injected no fault")
    if faulted["availability"] <= 0:
        fail(path, "the faulted day served nothing — availability 0")
    if faulted["goodput_rps"] > static["goodput_rps"] / PAIR_TOLERANCE:
        fail(
            path,
            f"faulted goodput {faulted['goodput_rps']:g} beats the healthy "
            f"static day {static['goodput_rps']:g}",
        )


CHECKERS = {
    "serving_load_sweep.csv": check_serving,
    "noc_photonic_traffic.csv": check_noc,
    "cluster_scale_sweep.csv": check_cluster,
    "sim_speed_sweep.csv": check_sim_speed,
    "transformer_serving_sweep.csv": check_transformer,
    "elastic_day_sweep.csv": check_elastic,
}


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        checker = CHECKERS.get(os.path.basename(path))
        if checker is None:
            fail(path, f"no checker registered (known: {', '.join(CHECKERS)})")
            continue
        if not os.path.exists(path):
            fail(path, "file not found")
            continue
        checker(path)
    if failures:
        print(f"check_bench_csv: {len(failures)} violation(s)")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"check_bench_csv: {len(argv) - 1} file(s) sane")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
