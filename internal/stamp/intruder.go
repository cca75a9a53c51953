package stamp

import (
	"fmt"

	"natle/internal/htm"
	"natle/internal/mem"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/simmap"
)

// intruder emulates STAMP's network intrusion detector: threads pop
// packet fragments from a shared queue (a hot, short transaction),
// reassemble flows in a shared map (medium transactions), and scan
// completed flows outside transactions, recording detections in a
// shared counter (short transaction). The shared queue head makes this
// benchmark conflict-heavy at high thread counts.
type intruder struct {
	flows    int
	perFlow  int // fragments per flow
	sys      *htm.System
	queue    mem.Addr // ring of fragment descriptors
	qHead    mem.Addr // shared pop index (own line)
	flowsMap *simmap.Map
	attacks  mem.Addr // detection counter (own line)

	nFrags         int
	expectedAttack uint64
	processed      uint64
}

func newIntruder() *intruder {
	return &intruder{flows: 1 << 10, perFlow: 4}
}

// Name implements Benchmark.
func (b *intruder) Name() string { return "intruder" }

// Fragment descriptor packing: flow id in the low 32 bits, fragment
// index above, payload hash above that (16 bits).
func packFrag(flow, idx, payload int) uint64 {
	return uint64(flow) | uint64(idx)<<32 | uint64(payload&0xFFFF)<<40
}

// Setup implements Benchmark: fragments are interleaved round-robin
// (a deterministic shuffle) so a flow's fragments arrive far apart.
func (b *intruder) Setup(sys *htm.System, c *sim.Ctx, threads int) {
	b.sys = sys
	b.nFrags = b.flows * b.perFlow
	b.queue = sys.AllocHome(c, b.nFrags, 0)
	b.qHead = sys.AllocHome(c, 1, 0)
	b.flowsMap = simmap.New(sys, c, 11, 0)
	b.attacks = sys.AllocHome(c, 1, 0)
	pos := 0
	for idx := 0; idx < b.perFlow; idx++ {
		for flow := 0; flow < b.flows; flow++ {
			payload := (flow*131 + idx*17) & 0xFFFF
			sys.Mem.SetRaw(b.queue+mem.Addr(pos), packFrag(flow, idx, payload))
			pos++
		}
	}
	// The detector flags a flow whose combined payload hash is 0 mod 8;
	// compute the expected count for validation.
	for flow := 0; flow < b.flows; flow++ {
		if b.flowHash(flow)%8 == 0 {
			b.expectedAttack++
		}
	}
}

func (b *intruder) flowHash(flow int) uint64 {
	var h uint64 = 1469598103934665603
	for idx := 0; idx < b.perFlow; idx++ {
		h = (h ^ uint64((flow*131+idx*17)&0xFFFF)) * 1099511628211
	}
	return h
}

// Work implements Benchmark.
func (b *intruder) Work(c *sim.Ctx, cs scheme.Instance, bar *Barrier, tid, threads int) {
	for {
		var frag uint64
		have := false
		// Transaction 1: pop a fragment from the shared queue.
		cs.Critical(c, func() {
			h := b.sys.Read(c, b.qHead)
			if int(h) >= b.nFrags {
				have = false
				return
			}
			frag = b.sys.Read(c, b.queue+mem.Addr(h))
			b.sys.Write(c, b.qHead, h+1)
			have = true
		})
		if !have {
			return
		}
		flow := uint64(frag & 0xFFFFFFFF)
		complete := false
		// Transaction 2: fold the fragment into its flow's state.
		cs.Critical(c, func() {
			n := b.flowsMap.Add(c, flow, 1)
			complete = int(n) == b.perFlow
		})
		if complete {
			// Detector: local computation over the flow's payloads.
			c.Advance(200 * 3) // ~600ps per byte-ish token work
			if b.flowHash(int(flow))%8 == 0 {
				// Transaction 3: record the detection.
				cs.Critical(c, func() {
					b.sys.Write(c, b.attacks, b.sys.Read(c, b.attacks)+1)
				})
			}
		}
		b.processed++
	}
}

// Validate implements Benchmark.
func (b *intruder) Validate(sys *htm.System) error {
	if b.processed != uint64(b.nFrags) {
		return fmt.Errorf("processed %d fragments, want %d", b.processed, b.nFrags)
	}
	if got := sys.Mem.Raw(b.attacks); got != b.expectedAttack {
		return fmt.Errorf("detected %d attacks, want %d", got, b.expectedAttack)
	}
	return nil
}
