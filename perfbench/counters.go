package main

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/stm"
	"repro/internal/tspace"
	"repro/internal/vm"
)

// counters is a snapshot of the counters the program already exports,
// taken before and after the timed phase; the per-layer metrics are their
// deltas per op.
type counters struct {
	vp           core.VPStatsSnapshot
	threads      uint64 // threads created on the workload's VMs
	groupMembers int    // threads the VMs' root groups still hold

	wakes, wakeMisses, handoffs uint64

	vmFallback, vmDispatch uint64

	stm stm.Stats

	bytes                  uint64 // frame bytes in and out, server side
	batchPuts, batchFrames uint64
	retries, timeouts      uint64 // client side
	fanouts, redirects     uint64
	serverP50              map[string]float64 // seconds, by wire op
	serverOps              map[string]uint64
}

func (c *counters) addVMs(vms ...*core.VM) {
	for _, v := range vms {
		s := v.Stats()
		c.vp.Add(s.VPs)
		c.threads += s.ThreadsCreated
		c.groupMembers += len(v.RootGroup().AllThreads())
	}
}

func (c *counters) addSpaces(reg *tspace.Registry) {
	for _, name := range reg.Names() {
		ts, ok := reg.Lookup(name)
		if !ok {
			continue
		}
		if ws, ok := ts.(interface {
			WakeStats() (uint64, uint64, uint64)
		}); ok {
			w, m, h := ws.WakeStats()
			c.wakes += w
			c.wakeMisses += m
			c.handoffs += h
		}
	}
}

func (c *counters) addEngine() {
	_, c.vmFallback, c.vmDispatch = vm.Stats()
}

func (c *counters) addSTM() { c.stm = stm.CurrentStats() }

func (c *counters) addServer(srv *remote.Server) {
	s := srv.Stats()
	c.bytes += s.BytesIn + s.BytesOut
	c.batchPuts += s.BatchPuts
	c.batchFrames += s.Ops["batch"]
	c.redirects += s.Redirects
	if c.serverP50 == nil {
		c.serverP50 = map[string]float64{}
		c.serverOps = map[string]uint64{}
	}
	// Several shards: weight each shard's median by its op count.
	for op, l := range s.OpLatency {
		n := c.serverOps[op] + l.Count
		if n > 0 {
			c.serverP50[op] = (c.serverP50[op]*float64(c.serverOps[op]) + l.P50*float64(l.Count)) / float64(n)
		}
		c.serverOps[op] = n
	}
}

// addClientMetrics folds in the retry, timeout and fan-out counters a
// fabric or cluster client exports through its obs collector.
func (c *counters) addClientMetrics(ms []obs.Metric) {
	for _, m := range ms {
		switch m.Name {
		case "sting_remote_client_op_retries_total":
			c.retries += uint64(m.Value)
		case "sting_remote_client_timeouts_total":
			c.timeouts += uint64(m.Value)
		case "sting_cluster_fanouts_total":
			c.fanouts += uint64(m.Value)
		}
	}
}
