"""KernelTrace counters and the cost model's qualitative behaviour."""

import numpy as np
import pytest

from repro.errors import ConfigError, KernelLaunchError
from repro.gpusim import A100, V100, KernelTrace, LaunchConfig, estimate_cost
from repro.gpusim.cost import _schedule_ctas


def make_trace(name="k", ctas=100, threads=128, regs=32, smem=0) -> KernelTrace:
    return KernelTrace(name, LaunchConfig(ctas, threads, regs, smem))


class TestTrace:
    def test_scalar_counters_stay_unexpanded(self):
        tr = make_trace(ctas=10_000)
        ph = tr.add_phase("p", "load", load_instrs=2.0, ilp=2.0, sectors=3.0)
        assert isinstance(ph.load_instrs, float)
        assert ph.total("sectors") == 3.0 * tr.n_warps

    def test_array_counters_padded_to_grid(self):
        tr = make_trace(ctas=3)  # 12 warps
        ph = tr.add_phase("p", "load", load_instrs=np.ones(10), sectors=np.ones(10))
        assert ph.load_instrs.shape == (12,)
        assert ph.load_instrs[10:].sum() == 0

    def test_oversized_array_rejected(self):
        tr = make_trace(ctas=1)
        with pytest.raises(ConfigError):
            tr.add_phase("p", "load", load_instrs=np.ones(100))

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_trace().add_phase("p", "mystery")

    def test_bad_ilp_rejected(self):
        with pytest.raises(ConfigError):
            make_trace().add_phase("p", "load", ilp=0.5)

    def test_counters_aggregate(self):
        tr = make_trace(ctas=2)  # 8 warps
        tr.add_phase("a", "load", sectors=1.0, flops=2.0)
        tr.add_phase("b", "store", sectors=np.full(8, 3.0))
        c = tr.counters()
        assert c["sectors"] == 8 * 1.0 + 8 * 3.0
        assert c["flops"] == 16.0


class TestCostModelMechanisms:
    @pytest.mark.parametrize("device", [A100, V100], ids=["A100", "V100"])
    def test_achieved_bandwidth_never_exceeds_peak(self, small_graph, rng, device):
        """DRAM bytes over simulated time stay within the device peak, for
        a real kernel and for a streaming phase that saturates the bus."""
        from repro.kernels.gnnone import GnnOneSpMM

        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 32))
        streaming = make_trace(ctas=10_000)
        streaming.add_phase("p", "load", load_instrs=1.0, ilp=8.0, sectors=1e3)
        for report in (
            GnnOneSpMM()(small_graph, vals, X, device=device).cost,
            estimate_cost(streaming, device),
        ):
            gbps = report.dram_bytes / (report.time_us * 1e-6) / 1e9
            assert 0 < gbps <= device.dram_bandwidth_gbps * (1 + 1e-9)

    def test_more_sectors_more_time(self):
        """Bandwidth monotonicity."""
        t1, t2 = make_trace(), make_trace()
        t1.add_phase("p", "load", load_instrs=1.0, ilp=8.0, sectors=1e4)
        t2.add_phase("p", "load", load_instrs=1.0, ilp=8.0, sectors=1e6)
        assert estimate_cost(t2, A100).time_us > estimate_cost(t1, A100).time_us

    def test_higher_ilp_faster(self):
        """The paper's float4 mechanism: same loads, more in flight."""
        lo, hi = make_trace(ctas=2000), make_trace(ctas=2000)
        lo.add_phase("p", "load", load_instrs=64.0, ilp=1.0, sectors=10.0)
        hi.add_phase("p", "load", load_instrs=64.0, ilp=4.0, sectors=10.0)
        assert estimate_cost(hi, A100).time_us < estimate_cost(lo, A100).time_us

    def test_low_occupancy_slower(self):
        """The Yang mechanism: register pressure -> less hiding."""
        fat = KernelTrace("fat", LaunchConfig(2000, 128, 128, 0))
        thin = KernelTrace("thin", LaunchConfig(2000, 128, 32, 0))
        for t in (fat, thin):
            t.add_phase("p", "load", load_instrs=32.0, ilp=8.0, sectors=10.0)
        assert estimate_cost(fat, A100).time_us > estimate_cost(thin, A100).time_us

    def test_imbalance_dominates(self):
        """One hub warp sets the finish time (vertex-parallel pathology)."""
        flat, skew = make_trace(ctas=100), make_trace(ctas=100)
        work = np.full(400, 10.0)
        flat.add_phase("p", "load", load_instrs=work, ilp=8.0, sectors=work)
        hub = work.copy()
        hub[0] = 100_000.0
        skew.add_phase("p", "load", load_instrs=hub, ilp=8.0, sectors=hub)
        a = estimate_cost(flat, A100)
        b = estimate_cost(skew, A100)
        assert b.time_us > 10 * a.time_us
        assert b.sm_imbalance > a.sm_imbalance

    def test_barriers_cost(self):
        a, b = make_trace(ctas=2000), make_trace(ctas=2000)
        a.add_phase("p", "reduce", barriers=0.0, shuffles=0.0)
        b.add_phase("p", "reduce", barriers=100.0, shuffles=200.0)
        assert estimate_cost(b, A100).cycles > estimate_cost(a, A100).cycles

    def test_atomic_conflicts_cost(self):
        a, b = make_trace(ctas=2000), make_trace(ctas=2000)
        a.add_phase("p", "reduce", atomics=50.0, atomic_conflict_degree=1.0)
        b.add_phase("p", "reduce", atomics=50.0, atomic_conflict_degree=40.0)
        assert estimate_cost(b, A100).cycles > estimate_cost(a, A100).cycles

    def test_weaker_device_slower(self):
        tr = make_trace(ctas=5000)
        tr.add_phase("p", "load", load_instrs=16.0, ilp=8.0, sectors=1e3)
        assert estimate_cost(tr, V100).time_us > estimate_cost(tr, A100).time_us

    def test_phase_kind_filter(self):
        tr = make_trace(ctas=1000)
        tr.add_phase("ld", "load", load_instrs=8.0, ilp=4.0, sectors=100.0)
        tr.add_phase("rd", "reduce", shuffles=50.0, barriers=10.0)
        full = estimate_cost(tr, A100)
        load_only = estimate_cost(tr, A100, phase_kinds=("load",))
        assert load_only.time_us <= full.time_us
        assert set(load_only.kind_cycles) == {"load"}

    def test_grid_limit_raises(self):
        tr = KernelTrace("big", LaunchConfig(2**31, 32, 32, 0))
        tr.add_phase("p", "load", load_instrs=1.0)
        with pytest.raises(KernelLaunchError, match="grid"):
            estimate_cost(tr, A100)

    def test_unfittable_cta_raises(self):
        # 255 regs x 1024 threads never fits one CTA.
        tr = KernelTrace("nofit", LaunchConfig(1, 1024, 255, 0))
        with pytest.raises(KernelLaunchError, match="cannot fit"):
            estimate_cost(tr, A100)

    def test_launch_overhead_floor(self):
        tr = make_trace(ctas=1)
        tr.add_phase("p", "compute", flops=1.0)
        assert estimate_cost(tr, A100).time_us >= A100.launch_overhead_us


class TestLptScheduler:
    def test_empty(self):
        assert _schedule_ctas(np.array([]), 4).sum() == 0

    def test_fewer_ctas_than_sms(self):
        loads = _schedule_ctas(np.array([5.0, 3.0]), 4)
        assert sorted(loads, reverse=True)[:2] == [5.0, 3.0]

    def test_balanced_assignment(self):
        loads = _schedule_ctas(np.full(1000, 2.0), 10)
        assert np.allclose(loads, 200.0)

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        cta = rng.random(500) * 10
        loads = _schedule_ctas(cta, 7)
        assert loads.sum() == pytest.approx(cta.sum())
