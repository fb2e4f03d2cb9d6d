package main

import (
	"fmt"
)

// checkDaemon compares a daemon's state with the ledger: every
// acknowledged, unreleased job is present with its VM count, no job whose
// release was acknowledged is, and — when every request got a response —
// the daemon holds nothing else. It also checks the Eq. 4 bound on the
// status report (maxOccupancy < 1). Problems are recorded as ledger
// violations; err reports a failure to read the daemon.
func checkDaemon(c *apiClient, led *ledger, when string) error {
	st, err := c.status()
	if err != nil {
		return err
	}
	ms, err := c.state()
	if err != nil {
		return err
	}
	if occ, ok := st.field("maxOccupancy"); !ok {
		led.violate("%s: status has no maxOccupancy", when)
	} else if occ >= 1 {
		led.violate("%s: maxOccupancy %v >= 1 violates Eq. 4", when, occ)
	}

	held := make(map[int64]int, len(ms.Jobs))
	for _, j := range ms.Jobs {
		vms := 0
		for _, e := range j.Placement {
			vms += e.Count
		}
		held[j.ID] = vms
	}
	led.mu.Lock()
	defer led.mu.Unlock()
	var problems []string
	for _, id := range sortedIDs(led.live) {
		want := led.live[id]
		got, ok := held[id]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("acknowledged job %d missing", id))
		case got != want:
			problems = append(problems, fmt.Sprintf("job %d holds %d VMs, admitted with %d", id, got, want))
		}
	}
	for _, id := range sortedIDs(held) {
		if led.released[id] {
			problems = append(problems, fmt.Sprintf("released job %d still held", id))
		} else if _, ok := led.live[id]; !ok && led.unknown == 0 {
			problems = append(problems, fmt.Sprintf("job %d was never acknowledged", id))
		}
	}
	if running, ok := st.field("runningJobs"); ok && int(running) != len(held) {
		problems = append(problems, fmt.Sprintf("status runningJobs %d, state holds %d", int(running), len(held)))
	}
	if len(problems) > 5 {
		problems = append(problems[:5:5], fmt.Sprintf("and %d more", len(problems)-5))
	}
	for _, p := range problems {
		if len(led.violations) < 20 {
			led.violations = append(led.violations, when+": "+p)
		}
	}
	return nil
}
