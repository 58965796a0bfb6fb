"""Unit tests for optical devices (Table 1, Appendix B)."""

import pytest

from repro.network.optical import (
    CircuitConflictError,
    OPTICAL_TECHNOLOGIES,
    OpticalCircuitSwitch,
    OpticalPatchPanel,
)


class TestTechnologyTable:
    def test_table1_rows_present(self):
        expected = {
            "patch_panel",
            "3d_mems",
            "2d_mems",
            "silicon_photonics",
            "tunable_lasers",
            "rotornet",
        }
        assert set(OPTICAL_TECHNOLOGIES) == expected

    def test_patch_panel_figures(self):
        tech = OPTICAL_TECHNOLOGIES["patch_panel"]
        assert tech.port_count == 1008
        assert tech.cost_per_port_usd == 100.0
        assert tech.commercially_available

    def test_mems_reconfiguration_latency(self):
        assert OPTICAL_TECHNOLOGIES["3d_mems"].reconfiguration_latency_s == (
            pytest.approx(10e-3)
        )

    def test_futuristic_techs_not_commercial(self):
        for key in ("2d_mems", "silicon_photonics", "tunable_lasers"):
            tech = OPTICAL_TECHNOLOGIES[key]
            assert not tech.commercially_available
            assert tech.cost_per_port_usd is None

    def test_latency_ordering(self):
        # Table 1's spread: patch panel (minutes) down to tunable lasers (ns).
        latencies = [
            OPTICAL_TECHNOLOGIES[k].reconfiguration_latency_s
            for k in ("patch_panel", "3d_mems", "2d_mems", "tunable_lasers")
        ]
        assert latencies == sorted(latencies, reverse=True)


class TestCircuitDevice:
    def test_connect_and_peer(self):
        panel = OpticalPatchPanel(8)
        panel.connect(0, 5)
        assert panel.peer(0) == 5

    def test_ingress_conflict_rejected(self):
        panel = OpticalPatchPanel(8)
        panel.connect(0, 5)
        with pytest.raises(CircuitConflictError):
            panel.connect(0, 3)

    def test_egress_conflict_rejected(self):
        panel = OpticalPatchPanel(8)
        panel.connect(0, 5)
        with pytest.raises(CircuitConflictError):
            panel.connect(2, 5)

    def test_disconnect_frees_ports(self):
        panel = OpticalPatchPanel(8)
        panel.connect(0, 5)
        panel.disconnect(0)
        panel.connect(0, 3)
        panel.connect(2, 5)

    def test_disconnect_missing_raises(self):
        panel = OpticalPatchPanel(8)
        with pytest.raises(KeyError):
            panel.disconnect(0)

    def test_reconfigure_atomic_validation(self):
        panel = OpticalPatchPanel(8)
        panel.connect(0, 1)
        with pytest.raises(CircuitConflictError):
            panel.reconfigure([(0, 1), (0, 2)])
        # Failed reconfigure left the old circuit intact.
        assert panel.peer(0) == 1

    def test_reconfigure_replaces_everything(self):
        panel = OpticalPatchPanel(8)
        panel.connect(0, 1)
        latency = panel.reconfigure([(2, 3), (4, 5)])
        assert panel.peer(0) is None
        assert panel.peer(2) == 3
        assert latency == panel.reconfiguration_latency_s
        assert panel.reconfigurations == 1

    def test_port_range_checked(self):
        panel = OpticalPatchPanel(4)
        with pytest.raises(ValueError):
            panel.connect(0, 4)

    def test_ocs_faster_than_panel(self):
        assert (
            OpticalCircuitSwitch(8).reconfiguration_latency_s
            < OpticalPatchPanel(8).reconfiguration_latency_s
        )
