#!/usr/bin/env python3
"""Compare fresh BENCH_*.json artifacts against bench/baseline.json.

Usage: bench_gate.py <artifact_dir> <baseline_json>

Reads the artifacts the bench-gate stage of tools/check.sh just
produced (BENCH_micro.json, BENCH_churn.json, BENCH_net_loadgen.json,
BENCH_throughput.json) and checks each gated number against its band
in the baseline file:

  knn_best_first_100   micro's min-of-repeats BM_KnnBestFirst/100 time
                       must stay under min_ns * max_ratio
  window_validity_query / range_validity_query
                       same band shape for the full window/range
                       validity-region engine queries (min-of-repeats)
  server_nn_miss_1     same band shape for a k=1 NN cache miss through
                       core::Server (BM_ServerNnMiss/1, step (ii) from
                       the query's own nearest neighbours)
  bulk_load            same band shape for one STR bulk load of 200k
                       uniform points (BM_BulkLoad, radix-sorted keys)
  net_cache_qps        the loadgen's cache-on end-to-end q/s must stay
                       above value * min_ratio
  server_qps           core::Server's serial q/s on throughput's mixed
                       plain workload at the gate's quarter scale must
                       stay above max(value * min_ratio, min_floor);
                       min_floor carries over the absolute floor of the
                       key this one replaced (the 4-worker batch
                       server's batch4_qps), so moving the gate onto the
                       surviving serving path did not lower it
  churn_*_hit_at_100   at 100 updates per 1k queries the region-scoped
                       cache must keep a hit rate above `min`, and the
                       epoch-nuke twin must stay below `max` (if the
                       nuke path ever stops collapsing there, the
                       workload no longer exercises the difference and
                       the gate is meaningless)
  churn_region_hit_at_1000
                       at 1000 updates per 1k queries the region-scoped
                       cache must keep a hit rate above `min`

Exits nonzero listing every violated band. Timing bands are generous
multiples (see the baseline's comment); hit rates are deterministic.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    art_dir, baseline_path = sys.argv[1], sys.argv[2]
    with open(baseline_path) as f:
        base = json.load(f)
    failures = []

    def check(label, ok, detail):
        print(f"bench-gate: {label}: {detail} [{'ok' if ok else 'FAIL'}]")
        if not ok:
            failures.append(label)

    with open(f"{art_dir}/BENCH_micro.json") as f:
        micro = json.load(f)

    ns_per_unit = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

    def micro_min(prefix):
        result = None
        for b in micro["benchmarks"]:
            if (b["name"].startswith(prefix)
                    and b.get("aggregate_name") == "min"):
                result = b["real_time"] * ns_per_unit[b.get("time_unit",
                                                             "ns")]
        return result

    def check_micro(label, prefix):
        spec = base[label]
        limit = spec["min_ns"] * spec["max_ratio"]
        t = micro_min(prefix)
        check(label, t is not None and t <= limit,
              f"min {t if t is None else round(t)} ns, "
              f"limit {round(limit)} ns")

    check_micro("knn_best_first_100", "BM_KnnBestFirst/100/")
    check_micro("window_validity_query", "BM_WindowValidityQuery/")
    check_micro("range_validity_query", "BM_RangeValidityQuery/")
    check_micro("server_nn_miss_1", "BM_ServerNnMiss/1/")
    check_micro("bulk_load", "BM_BulkLoad/")

    with open(f"{art_dir}/BENCH_net_loadgen.json") as f:
        loadgen = json.load(f)
    spec = base["net_cache_qps"]
    floor = spec["value"] * spec["min_ratio"]
    qps = loadgen["net_cache_qps"]
    check("net_cache_qps", qps >= floor,
          f"{round(qps)} q/s, floor {round(floor)} q/s")

    with open(f"{art_dir}/BENCH_throughput.json") as f:
        throughput = json.load(f)
    spec = base["server_qps"]
    floor = max(spec["value"] * spec["min_ratio"], spec["min_floor"])
    qps = throughput["server_qps"]
    check("server_qps", qps >= floor,
          f"{round(qps)} q/s, floor {round(floor)} q/s")

    with open(f"{art_dir}/BENCH_churn.json") as f:
        churn = json.load(f)

    def churn_row(rate):
        row = next((s for s in churn["series"]
                    if s["updates_per_kquery"] == rate), None)
        if row is None:
            check("churn_series", False, f"no updates_per_kquery={rate} row")
        return row

    def check_region_floor(label, row):
        region = row["region"]["hit_rate"]
        check(label, region >= base[label]["min"],
              f"{region:.4f}, floor {base[label]['min']:.2f}")

    row = churn_row(100)
    if row is not None:
        check_region_floor("churn_region_hit_at_100", row)
        epoch = row["epoch"]["hit_rate"]
        check("churn_epoch_hit_at_100",
              epoch <= base["churn_epoch_hit_at_100"]["max"],
              f"{epoch:.4f}, cap "
              f"{base['churn_epoch_hit_at_100']['max']:.2f}")
    row = churn_row(1000)
    if row is not None:
        check_region_floor("churn_region_hit_at_1000", row)

    if failures:
        print(f"bench-gate: FAILED: {', '.join(failures)}")
        return 1
    print("bench-gate: all bands hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
