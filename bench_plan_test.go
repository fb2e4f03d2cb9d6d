// Plan-stage benchmarks: the DP planning cost isolated from commit,
// journal, and fsync. This is the stage the PR 6 incremental plan cache
// targets — BENCH_pr4's admission grid bundles planning with WAL commit,
// so the cache's effect (sublinear steady-state planning) is measured
// here on its own, with the cache hit/miss/recompute rates reported
// alongside ops/s.
package svc_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// planBenchManager builds the paper-scale manager with background
// tenants, the steady-state input for one planning call.
func planBenchManager(b *testing.B) *core.Manager {
	b.Helper()
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := core.NewManager(topo, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 150})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := mgr.AllocateHomog(req); err != nil {
			b.Fatal(err)
		}
	}
	return mgr
}

// reportPlanCache emits the cache counter deltas for the timed section
// as per-plan rates (slash-named so bench.sh keeps them in the JSON).
func reportPlanCache(b *testing.B, mgr *core.Manager, before core.AdmissionStats) {
	b.Helper()
	after := mgr.AdmissionStats()
	n := float64(b.N)
	b.ReportMetric(float64(after.PlanCacheHits-before.PlanCacheHits)/n, "hits/plan")
	b.ReportMetric(float64(after.PlanCacheMisses-before.PlanCacheMisses)/n, "misses/plan")
	b.ReportMetric(float64(after.PlanCacheInvalidations-before.PlanCacheInvalidations)/n, "recomputes/plan")
	b.ReportMetric(n/b.Elapsed().Seconds(), "plans/s")
}

// BenchmarkPlanOnly measures one planning pass on the 1,000-machine
// datacenter:
//
//   - homog/warm: steady state — the ledger does not move between plans,
//     so every plan is a pure cache hit (the PR 6 headline cell; compare
//     BenchmarkAllocateHomogSeq / BENCH_pr4's ~ms-scale cold DP).
//   - homog/churn: an admit+release cycle every 8 plans, so plans
//     periodically recompute the records the commit paths invalidated.
//   - hetero/warm: the substring DP's steady-state cached pass (N = 16).
//
// The remaining cells time the traffic svcd actually sees: demands are
// continuous, so a fresh tenant's plan almost never finds its table
// warm. They run on a datacenter held at ~70% slot occupancy
// (missBenchManager) and draw a fresh demand per plan from a pre-drawn
// ring larger than the entry caps, so cached plans miss (the p95 clamp
// makes ~7% of the draws repeat an earlier demand, as in svcd):
//
//   - homog/miss: a cached plan that builds a new entry (N = 49).
//   - homog/cold: the uncached DP on the same ledger and the same demand
//     sequence — the denominator of homog/miss.
//   - hetero/miss, hetero/cold: the substring DP's twins (8-16 VMs).
func BenchmarkPlanOnly(b *testing.B) {
	b.Run("homog/warm", func(b *testing.B) {
		mgr := planBenchManager(b)
		req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 150})
		if err != nil {
			b.Fatal(err)
		}
		if !mgr.CanAllocateHomog(req) {
			b.Fatal("warmup plan rejected on a lightly loaded datacenter")
		}
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !mgr.CanAllocateHomog(req) {
				b.Fatal("plan rejected on a lightly loaded datacenter")
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})

	b.Run("homog/churn", func(b *testing.B) {
		mgr := planBenchManager(b)
		req, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 150})
		if err != nil {
			b.Fatal(err)
		}
		churn, err := core.NewHomogeneous(4, stats.Normal{Mu: 200, Sigma: 80})
		if err != nil {
			b.Fatal(err)
		}
		if !mgr.CanAllocateHomog(req) {
			b.Fatal("warmup plan rejected")
		}
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%8 == 7 {
				a, err := mgr.AllocateHomog(churn)
				if err != nil {
					b.Fatal(err)
				}
				if err := mgr.Release(a.ID); err != nil {
					b.Fatal(err)
				}
			}
			if !mgr.CanAllocateHomog(req) {
				b.Fatal("plan rejected on a lightly loaded datacenter")
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})

	b.Run("hetero/warm", func(b *testing.B) {
		mgr := planBenchManager(b)
		req := benchHeteroRequest(16)
		if !mgr.CanAllocateHetero(req) {
			b.Fatal("warmup plan rejected")
		}
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !mgr.CanAllocateHetero(req) {
				b.Fatal("plan rejected on a lightly loaded datacenter")
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})

	b.Run("homog/miss", func(b *testing.B) {
		mgr, reqs := missBenchManager(b), missHomogRequests(b)
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if mgr.CanAllocateHomog(reqs[i%len(reqs)]) {
				planSink++
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})

	b.Run("homog/cold", func(b *testing.B) {
		mgr, reqs := missBenchManager(b), missHomogRequests(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _, err := core.AllocateHomogWorkers(mgr.Ledger(), reqs[i%len(reqs)], core.MinMaxOccupancy, 1)
			if err == nil {
				planSink += len(p.Entries)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "plans/s")
	})

	b.Run("hetero/miss", func(b *testing.B) {
		mgr, reqs := missBenchManager(b), missHeteroRequests(b)
		before := mgr.AdmissionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if mgr.CanAllocateHetero(reqs[i%len(reqs)]) {
				planSink++
			}
		}
		b.StopTimer()
		reportPlanCache(b, mgr, before)
	})

	b.Run("hetero/cold", func(b *testing.B) {
		mgr, reqs := missBenchManager(b), missHeteroRequests(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _, err := core.AllocateHeteroSubstringWorkers(mgr.Ledger(), reqs[i%len(reqs)], core.MinMaxOccupancy, 1)
			if err == nil {
				planSink += len(p.Entries)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "plans/s")
	})
}

// planSink keeps the planning results of the miss and cold cells live.
var planSink int

// missRingSize is the number of distinct requests a miss cell cycles
// through: well above both entry caps, so FIFO eviction never lets a
// request find its own table again.
const missRingSize = 64

// paperTenantDemand draws a per-VM demand as svcdbench's paper and small
// profiles do: mu from {100..500} Mbps, sigma = rho*mu with rho ~ U(0,1),
// clamped so the 95th percentile stays within 98% of the 1 Gbps NIC.
func paperTenantDemand(r *stats.Rand) stats.Normal {
	const u = 0.98 * 1000
	mu := float64(100 * (1 + r.IntN(5)))
	d := stats.Normal{Mu: mu, Sigma: r.Float64() * mu}
	d.Mu = math.Min(d.Mu, u)
	if maxSigma := (u - d.Mu) / stats.PhiInv(core.Percentile95); d.Sigma > maxSigma {
		d.Sigma = maxSigma
	}
	return d
}

// missBenchManager builds the paper-scale manager held at ~70% slot
// occupancy — svcdbench's offered load — by admitting paper-profile
// tenants (exponential sizes, mean 49, in [2, 200]) from a fixed seed.
func missBenchManager(b *testing.B) *core.Manager {
	b.Helper()
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := core.NewManager(topo, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(7)
	target := topo.TotalSlots() * 3 / 10 // free slots left at 70% occupancy
	for tries := 0; mgr.FreeSlots() > target && tries < 2000; tries++ {
		n := min(max(int(math.Round(r.Exp(49))), 2), 200, mgr.FreeSlots()-target)
		req, err := core.NewHomogeneous(max(n, 1), paperTenantDemand(r))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = mgr.AllocateHomog(req) // rejections are part of the load
	}
	if mgr.FreeSlots() > target {
		b.Fatalf("fill stopped at %d free slots, want <= %d", mgr.FreeSlots(), target)
	}
	return mgr
}

// missHomogRequests returns the ring of 49-VM requests with fresh
// demands that homog/miss and homog/cold cycle through.
func missHomogRequests(b *testing.B) []core.Homogeneous {
	b.Helper()
	r := stats.NewRand(8)
	reqs := make([]core.Homogeneous, missRingSize)
	for i := range reqs {
		req, err := core.NewHomogeneous(49, paperTenantDemand(r))
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = req
	}
	return reqs
}

// missHeteroRequests returns the ring of 8-16 VM heterogeneous requests
// (svcdbench's paper-profile hetero share) for the hetero miss and cold
// cells.
func missHeteroRequests(b *testing.B) []core.Heterogeneous {
	b.Helper()
	r := stats.NewRand(9)
	reqs := make([]core.Heterogeneous, missRingSize)
	for i := range reqs {
		demands := make([]stats.Normal, 8+r.IntN(9))
		for j := range demands {
			demands[j] = paperTenantDemand(r)
		}
		req, err := core.NewHeterogeneous(demands)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = req
	}
	return reqs
}
