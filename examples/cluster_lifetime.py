#!/usr/bin/env python3
"""A cluster's life: trace-driven arrivals, queueing, fragmentation.

Simulates a 48-server TopoOpt cluster serving jobs drawn from the
paper's production-trace statistics (section 2.2: log-normal worker
counts by model family): jobs arrive over time, queue for a contiguous
shard under the best-fit policy, run their co-optimized training
iterations on an isolated optical partition, and depart -- the
sharding lifecycle of Appendix C driven end to end by one
:class:`repro.cluster.ScenarioSpec`.

Reported per job: arrival, queueing delay, JCT; for the cluster:
utilization and fragmentation over time plus the JCT distribution
(via the result-driven CDF helpers in ``repro.analysis``).

Run:  python examples/cluster_lifetime.py
"""

from repro.analysis import jct_cdf, queueing_delay_cdf
from repro.api import smoke_scale
from repro.cluster import ScenarioSpec, run_scenario


def build_spec():
    spec = ScenarioSpec.preset("lifetime")
    overrides = {
        # Press the cluster: arrivals land faster than departures drain.
        "mean_interarrival_s": 0.5,
        "count": 6 if smoke_scale() else 12,
        "admission_latency_s": 0.001,  # look-ahead 1x2 flip (Appendix C)
    }
    iterations = 20 if smoke_scale() else 40
    for i in range(len(spec.jobs)):
        overrides[f"jobs.{i}.iterations"] = iterations
    return spec.with_overrides(overrides)


def main():
    spec = build_spec()
    print(f"Cluster: {spec.cluster.servers} servers, "
          f"d={spec.cluster.degree}, {spec.scheduler.policy} allocation")
    print(f"Arrivals: {spec.arrivals.count} production-trace jobs, "
          f"mean gap {spec.arrivals.mean_interarrival_s:g} s")

    result = run_scenario(spec)

    print(f"\n{'job':<12} {'srv':>4} {'arrive':>8} {'queued':>8} "
          f"{'jct':>8} {'iters':>6}")
    for job in result.jobs:
        print(f"{job.name:<12} {job.num_servers:>4} "
              f"{job.arrival_s:>7.1f}s {job.queueing_delay_s:>7.2f}s "
              f"{job.jct_s:>7.2f}s {job.iterations_completed:>6}")

    metrics = result.metrics()
    print(f"\nmakespan            : {metrics['makespan_s']:.1f} s")
    print(f"mean utilization    : {metrics['mean_utilization'] * 100:.0f}%")
    print(f"peak fragmentation  : {metrics['peak_fragmentation']:.2f}")
    print(f"queueing delay      : avg {metrics['queueing_avg_s']:.2f} s, "
          f"p99 {metrics['queueing_p99_s']:.2f} s")

    jct = jct_cdf(result)
    queue = queueing_delay_cdf(result)
    print(f"JCT                 : median {jct.median:.2f} s, "
          f"p90 {jct.percentile(0.9):.2f} s")
    print(f"queueing CDF        : fraction with zero wait "
          f"{queue.fraction_at_or_below(0.0) * 100:.0f}%")

    print("\nutilization timeline (busy servers):")
    samples = list(result.utilization_timeline)
    step = max(len(samples) // 10, 1)
    for t, busy in samples[::step]:
        bar = "#" * int(30 * busy / spec.cluster.servers)
        print(f"  {t:7.1f}s  {busy:>3}/{spec.cluster.servers}  {bar}")


if __name__ == "__main__":
    main()
