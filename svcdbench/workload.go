package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/stats"
)

// Datacenter constants of the paper topology svcd builds by default
// (topology.PaperConfig): 1,000 machines with 4 slots each behind 1 Gbps
// NICs.
const (
	totalSlots = 4000
	nicMbps    = 1000.0
	// offeredOccupancy is the share of slots the open loop keeps busy:
	// Fig. 7's upper load range, where rejections occur but the
	// datacenter does not saturate.
	offeredOccupancy = 0.70
)

// workload is one traffic mix against one svcd configuration.
type workload struct {
	name    string
	profile string  // "paper" or "small": how tenants are drawn
	opsRate float64 // offered ops/s in the open-loop phase
	shards  int     // 0: unsharded svcd; otherwise -shards N
}

// workloads lists every workload the benchmark runs. The offered rates
// sit at about half the knee of a 2-CPU virtual machine while its host is
// contended (8-10% CPU steal, slow fsyncs): small tenants then built a
// backlog at 480 ops/s, against a knee of 1.4k-1.7k ops/s on a quiet
// host. The small-tenant rate is 3x the paper rate.
var workloads = []workload{
	// The paper's online scenario (Fig. 7): 49-VM jobs invalidate much of
	// the DP cache on each commit and one admission in ten runs the
	// heterogeneous DP, so core planning and snapshots dominate.
	{
		name:    "paper-online",
		profile: "paper",
		opsRate: 80,
	},
	// 2-8 VM tenants: plans are cheap cache hits, so per-op fixed costs
	// dominate (HTTP, WAL encoding, group commit, fsync). A planner-only
	// change should not move it.
	{
		name:    "small-churn",
		profile: "small",
		opsRate: 240,
	},
	// paper-online's traffic and seed against svcd -shards 5 (strict
	// mode): the only workload through the router, the pod WALs and the
	// two-phase cross-pod intents.
	{
		name:    "sharded-online",
		profile: "paper",
		opsRate: 80,
		shards:  5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// profileParams sizes a tenant population. Holding times are derived
// from the op rate so that offered occupancy is offeredOccupancy.
type profileParams struct {
	heteroShare float64 // share of admissions with per-VM demands
	dryRunProb  float64 // chance an arrival dry-runs before admitting
	acceptGuess float64 // expected accept ratio, only to convert ops/s to arrivals/s
}

var profiles = map[string]profileParams{
	// Every admission is preceded by a dry run of the same request.
	"paper": {heteroShare: 0.1, dryRunProb: 1, acceptGuess: 0.8},
	// One op in ten is a dry run: p/(2+p) = 1/10 with two mutations per
	// admitted tenant.
	"small": {heteroShare: 0, dryRunProb: 2.0 / 9, acceptGuess: 0.93},
}

// tenant is one generated job request.
type tenant struct {
	req    httpapi.AllocationRequest
	vms    int
	hold   time.Duration
	dryRun bool
}

// traffic draws tenants and inter-arrival gaps from one seeded stream.
type traffic struct {
	rng      *rand.Rand
	profile  string
	params   profileParams
	rate     float64       // arrivals per second
	meanHold time.Duration // mean holding time
}

// newTraffic returns the tenant stream of a workload. Streams depend on
// the profile and seed only, so sharded-online replays paper-online's
// traffic exactly; stream separates independent uses of one seed.
func newTraffic(w workload, seed int64, stream int64) (*traffic, error) {
	p, ok := profiles[w.profile]
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", w.profile)
	}
	opsPerArrival := p.dryRunProb + 1 + p.acceptGuess
	rate := w.opsRate / opsPerArrival
	meanVMs := meanTenantVMs(w.profile, p)
	hold := offeredOccupancy * totalSlots / (rate * meanVMs)
	return &traffic{
		rng:      rand.New(rand.NewSource(seed*7919 + stream)),
		profile:  w.profile,
		params:   p,
		rate:     rate,
		meanHold: time.Duration(hold * float64(time.Second)),
	}, nil
}

// meanTenantVMs estimates the mean job size of a profile from a fixed
// sample, independent of the run's seed.
func meanTenantVMs(profile string, p profileParams) float64 {
	t := &traffic{rng: rand.New(rand.NewSource(1)), profile: profile, params: p}
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += t.next().vms
	}
	return float64(sum) / n
}

// gap draws the next exponential inter-arrival time.
func (t *traffic) gap() time.Duration {
	return time.Duration(t.rng.ExpFloat64() / t.rate * float64(time.Second))
}

// next draws one tenant.
func (t *traffic) next() tenant {
	var tn tenant
	switch {
	case t.profile == "paper" && t.rng.Float64() < t.params.heteroShare:
		k := 8 + t.rng.Intn(9)
		tn.req.Demands = make([]httpapi.DemandSpec, k)
		for i := range tn.req.Demands {
			d := t.demand()
			tn.req.Demands[i] = httpapi.DemandSpec{Mu: d.Mu, Sigma: d.Sigma}
		}
		tn.vms = k
	case t.profile == "paper":
		// internal/workload.Paper: exponential sizes, mean 49, in [2, 200].
		n := int(math.Round(t.rng.ExpFloat64() * 49))
		tn.vms = min(max(n, 2), 200)
	default:
		tn.vms = 2 + t.rng.Intn(7)
	}
	if tn.req.Demands == nil {
		d := t.demand()
		tn.req.N, tn.req.Mu, tn.req.Sigma = tn.vms, d.Mu, d.Sigma
	}
	tn.dryRun = t.rng.Float64() < t.params.dryRunProb
	if t.meanHold > 0 {
		tn.hold = time.Duration(t.rng.ExpFloat64() * float64(t.meanHold))
	}
	return tn
}

// demand draws a per-VM demand profile as the paper does: mu from
// {100..500} Mbps, sigma = rho*mu with rho ~ U(0,1), clamped so the 95th
// percentile stays within 98% of the NIC (README, "Deviations").
func (t *traffic) demand() stats.Normal {
	mu := float64(100 * (1 + t.rng.Intn(5)))
	d := stats.Normal{Mu: mu, Sigma: t.rng.Float64() * mu}
	u := 0.98 * nicMbps
	d.Mu = math.Min(d.Mu, u)
	if maxSigma := (u - d.Mu) / stats.PhiInv(core.Percentile95); d.Sigma > maxSigma {
		d.Sigma = maxSigma
	}
	return d
}
