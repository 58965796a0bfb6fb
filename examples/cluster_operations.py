#!/usr/bin/env python3
"""Cluster operations: look-ahead admission, failure recovery, RDMA relays.

Demonstrates the operational side of TopoOpt (section 7 + Appendices C
and I), the first two parts on the scenario engine:

1. three 8-server jobs arrive together on a 16-server cluster whose
   patch panel needs a minute of robot time to wire each new shard
   (Table 1).  Two fit at once and pay that minute in full.  The third
   waits at the head of the queue; with look-ahead provisioning
   (Appendix C) its shard is wired while it waits, so it starts the
   moment the first job leaves instead of a minute later;
2. a fiber of the first job's shard fails mid-training: the fault plane
   reroutes the broken AllReduce ring edge over an MP detour (transient
   policy), then swaps ports for permanent recovery; and
3. the NPAR RDMA-forwarding rule chains (Appendix I) are generated for a
   multi-hop logical connection.

Run:  python examples/cluster_operations.py
"""

from repro.cluster import ScenarioSpec, run_scenario
from repro.network.optical import OPTICAL_TECHNOLOGIES
from repro.sim.rdma import RdmaForwardingModel

CLUSTER_SERVERS = 16
DEGREE = 4
#: The patch-panel robot's rewiring time, paid per admission.
ROBOT_S = OPTICAL_TECHNOLOGIES["patch_panel"].reconfiguration_latency_s


def build_spec(provisioning):
    """The ``shared`` preset's first three jobs on half its cluster, with
    a fiber cut in job 0's shard 20 ms into its run, repaired 10 ms
    later."""
    return ScenarioSpec.preset("shared").with_overrides({
        "servers": CLUSTER_SERVERS,
        "cluster.degree": DEGREE,
        "arrivals.times": [0.0, 0.0, 0.0],
        "admission_latency_s": ROBOT_S,
        "provisioning": provisioning,
        "faults.events": [{
            "kind": "link",
            "time_s": ROBOT_S + 0.02,
            "job_index": 0,
            "repair_s": ROBOT_S + 0.03,
        }],
    })


def main():
    print(f"Cluster: {CLUSTER_SERVERS} servers, d={DEGREE}; the patch "
          f"panel takes {ROBOT_S:.0f} s to wire a shard")

    # --- Admission with look-ahead (Appendix C) -----------------------
    results = {}
    for provisioning in ("flat", "lookahead"):
        result = results[provisioning] = run_scenario(build_spec(provisioning))
        print(f"\n{provisioning} provisioning:")
        for job in result.jobs:
            first_start = job.completed_s - sum(job.iteration_times)
            print(f"  job {job.index} ({job.model:<6}) servers "
                  f"{job.servers[0]}-{job.servers[-1]}: admitted at "
                  f"{job.admitted_s:6.2f} s, training from "
                  f"{first_start:6.2f} s, done at {job.completed_s:6.2f} s")
    flat, ahead = (results[p].jobs[2] for p in ("flat", "lookahead"))
    print(f"\nlook-ahead wired job 2's shard while it queued: it finished "
          f"{flat.completed_s - ahead.completed_s:.0f} s sooner")

    # --- Failure handling (section 7) ----------------------------------
    result = results["lookahead"]
    print("\nFailure log (job 0):")
    for entry in result.failure_log:
        src, dst = entry["link"]
        if entry["kind"] == "mp_detour":
            print(f"  t={entry['time_s']:.2f} s  link {src}->{dst} down; "
                  f"traffic detours over {entry['extra_hops']} extra hop(s)")
        else:
            print(f"  t={entry['time_s']:.2f} s  {entry['kind']} on "
                  f"{src}->{dst} after {entry['downtime_s'] * 1e3:.0f} ms")
    times_ms = ", ".join(
        f"{t * 1e3:.2f}" for t in result.jobs[0].iteration_times
    )
    print(f"  job 0's iteration times (ms): {times_ms}")

    # --- RDMA forwarding rules (Appendix I) ----------------------------
    print("\nNPAR rule chain for a 3-hop logical RDMA connection:")
    rdma = RdmaForwardingModel(degree=DEGREE)
    path = [0, 1, 2, 3]
    egress_ports = {(path[i], path[i + 1]): i % DEGREE for i in range(3)}
    for rule in rdma.rules_for_path(path, egress_ports):
        print(f"  {rule.render()}")
    rate = rdma.effective_rate_bps(3, 25e9)
    print(f"  effective rate over 2 kernel relays: {rate / 1e9:.1f} Gbps "
          f"(line rate 25.0)")


if __name__ == "__main__":
    main()
