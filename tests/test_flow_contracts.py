"""Scale invariance of the flow core (ROADMAP item 7, "Scale").

Multiplying every link capacity and every flow size by ``2**k`` is
exact in floating point, so a flow core whose tolerances are all
relative, or in seconds, must return bit-identical times.  Two steppers
are held to it for k in [-10, 10], from capacities of 1-400 Gb/s and
sizes of 1 KB-1 GB:

* a phase, through :func:`repro.sim.fluid.simulate_phase_completions`
  (makespan and every completion time, hand-over phases included);
* a one-job shard of :class:`repro.sim.cluster.SharedClusterSimulator`
  (every iteration time).

The OCS-reconfig drain (:mod:`repro.sim.reconfig`) is left out: its
``_EPS_BYTES`` (1 byte) is an absolute threshold -- a pair holding one
byte or less gets no flow -- so scaled demand drains differently.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.engine import ScenarioEngine
from repro.cluster.spec import ScenarioSpec
from repro.core.topology_finder import AllReduceGroup
from repro.parallel.traffic import TrafficSummary
from repro.sim.cluster import JobSpec
from repro.sim.flows import Flow
from repro.sim.fluid import simulate_phase_completions
from test_cluster import run_jobs

GBPS = 1e9
SCALES = st.integers(-10, 10)


@st.composite
def phases(draw):
    """Flows on walks of 1-5 hops over a random capacitated link set."""
    n = draw(st.integers(2, 8))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    links = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    capacities = {
        link: draw(st.floats(1.0, 400.0)) * GBPS for link in links
    }
    out = {}
    for src, dst in links:
        out.setdefault(src, []).append(dst)
    flows = []
    for _ in range(draw(st.integers(1, 40))):
        path = list(draw(st.sampled_from(links)))
        for _ in range(draw(st.integers(0, 4))):
            nexts = out.get(path[-1])
            if not nexts:
                break
            path.append(draw(st.sampled_from(nexts)))
        size_bytes = 2.0 ** draw(st.floats(10.0, 30.0))  # 1 KB-1 GB
        flows.append((tuple(path), 8.0 * size_bytes))
    return capacities, flows


def run_phase(capacities, flows, scale):
    return simulate_phase_completions(
        {link: cap * scale for link, cap in capacities.items()},
        [Flow(path=path, size_bits=size * scale) for path, size in flows],
    )


class TestScaleInvariance:
    @settings(deadline=None, max_examples=150)
    @given(phases(), SCALES)
    def test_phase_times_are_bit_identical(self, phase, k):
        capacities, flows = phase
        makespan, completions = run_phase(capacities, flows, 1.0)
        scaled, scaled_completions = run_phase(capacities, flows, 2.0 ** k)
        assert scaled == makespan
        assert scaled_completions.tobytes() == completions.tobytes()

    @pytest.mark.parametrize("servers", [4, 8])
    @pytest.mark.parametrize("model", ["DLRM", "BERT", "CANDLE", "VGG16"])
    def test_shard_iteration_times_are_bit_identical(self, model, servers):
        spec = ScenarioSpec.preset("shared").with_overrides({
            "arrivals.times": [0.0],
            "jobs.0.model": model,
            "jobs.0.servers": servers,
        })
        engine = ScenarioEngine(spec)
        prepared = engine._prepare(engine._draw_jobs()[0])
        capacities = prepared.fabric.capacities()
        traffic = prepared.traffic

        def iteration_times(scale):
            scaled = TrafficSummary(
                n=traffic.n,
                allreduce_groups=[
                    AllReduceGroup(
                        members=group.members,
                        total_bytes=group.total_bytes * scale,
                    )
                    for group in traffic.allreduce_groups
                ],
                mp_matrix=traffic.mp_matrix * scale,
            )
            job = JobSpec(
                model, scaled, prepared.compute_s, prepared.fabric
            )
            return run_jobs(
                {link: cap * scale for link, cap in capacities.items()},
                [job],
            )[0]

        unscaled = iteration_times(1.0)
        assert len(unscaled) == 3
        for k in (-10, -3, 4, 10):
            assert iteration_times(2.0 ** k) == unscaled
