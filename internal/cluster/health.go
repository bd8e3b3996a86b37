package cluster

import (
	"context"
	"time"
)

// healthProbe is the cheap liveness query every replica answers in O(1)
// — any stored triple satisfies it. Probe cost is one admission and one
// index peek; the answer's value is irrelevant, only that one arrived.
const healthProbe = "ASK { ?s ?p ?o }"

// probeTimeout bounds each health probe.
const probeTimeout = 2 * time.Second

// healthLoop actively probes every replica each ProbeInterval:
// consecutive probe failures eject (FailAfter), the first success
// re-admits. It runs until Close.
func (r *Replicas) healthLoop() {
	defer close(r.done)
	t := time.NewTicker(r.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

// probeAll probes the replicas sequentially — sets are small, and one
// prober goroutine per set keeps the idle cost of a large cluster flat.
func (r *Replicas) probeAll() {
	for _, rep := range r.reps {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		_, err := rep.ep.AskCtx(ctx, healthProbe)
		cancel()
		if err != nil {
			rep.strike(r.opt.FailAfter)
		} else {
			rep.recover()
		}
	}
}
