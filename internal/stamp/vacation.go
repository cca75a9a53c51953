package stamp

import (
	"fmt"

	"natle/internal/htm"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/simmap"
)

// vacation emulates a travel-reservation system: three resource tables
// (cars, flights, rooms) and a customer table, all hash maps. Each
// client session is one transaction that queries several random items
// and reserves the best available one, or updates the tables, or
// cancels a customer — the STAMP mix. The high-contention variant
// queries a wider span of the tables with more operations per
// transaction.
type vacation struct {
	high bool

	relations int // items per table
	sessions  int // transactions per run (split across threads)
	queryNum  int // items examined per reservation

	sys    *htm.System
	tables [3]*simmap.Map
	cust   *simmap.Map

	reservations uint64 // successful reservations (host counter)
	expectedOps  uint64
	doneOps      uint64
}

// Table item value packing: low 32 bits free count, high 32 bits price.
func packItem(free, price uint32) uint64       { return uint64(price)<<32 | uint64(free) }
func unpackItem(v uint64) (free, price uint32) { return uint32(v), uint32(v >> 32) }

func newVacation(high bool) *vacation {
	v := &vacation{
		high:      high,
		relations: 1 << 10,
		sessions:  1 << 13,
		queryNum:  4,
	}
	if high {
		v.relations = 1 << 7 // smaller tables => hotter entries
		v.queryNum = 8
	}
	return v
}

// Name implements Benchmark.
func (v *vacation) Name() string {
	if v.high {
		return "vacation-high"
	}
	return "vacation-low"
}

// Setup implements Benchmark.
func (v *vacation) Setup(sys *htm.System, c *sim.Ctx, threads int) {
	v.sys = sys
	logB := 8
	for i := range v.tables {
		v.tables[i] = simmap.New(sys, c, logB, 0)
		for id := 0; id < v.relations; id++ {
			price := uint32(50 + (id*37)%450)
			v.tables[i].Put(c, uint64(id), packItem(4, price))
		}
	}
	v.cust = simmap.New(sys, c, logB, 0)
	v.expectedOps = uint64(v.sessions)
}

// Work implements Benchmark.
func (v *vacation) Work(c *sim.Ctx, cs scheme.Instance, bar *Barrier, tid, threads int) {
	lo, hi := share(v.sessions, threads, tid)
	var done uint64
	for s := lo; s < hi; s++ {
		r := c.Rand64()
		switch {
		case r%100 < 80: // make-reservation session
			reserved := false
			tableIdx := c.Intn(3)
			cs.Critical(c, func() {
				reserved = false // body may re-execute after an abort
				table := v.tables[tableIdx]
				bestID, bestPrice := int64(-1), uint32(1<<31)
				for q := 0; q < v.queryNum; q++ {
					id := uint64(c.Intn(v.relations))
					if val, ok := table.Get(c, id); ok {
						free, price := unpackItem(val)
						if free > 0 && price < bestPrice {
							bestID, bestPrice = int64(id), price
						}
					}
				}
				if bestID >= 0 {
					val, _ := table.Get(c, uint64(bestID))
					free, price := unpackItem(val)
					if free > 0 {
						table.Put(c, uint64(bestID), packItem(free-1, price))
						custID := uint64(c.Intn(v.relations))
						v.cust.Add(c, custID, uint64(price))
						reserved = true
					}
				}
			})
			if reserved {
				v.reservations++
			}
		case r%100 < 90: // delete-customer session
			cs.Critical(c, func() {
				custID := uint64(c.Intn(v.relations))
				v.cust.Delete(c, custID)
			})
		default: // update-tables session (add/remove items)
			cs.Critical(c, func() {
				table := v.tables[c.Intn(3)]
				id := uint64(c.Intn(v.relations))
				if c.Rand64()&1 == 0 {
					table.Put(c, id, packItem(4, uint32(50+c.Intn(450))))
				} else {
					table.Delete(c, id)
				}
			})
		}
		done++
	}
	v.doneOps += done
}

// Validate implements Benchmark: all sessions completed, and table
// integrity holds (free counts never exceed the restock value).
func (v *vacation) Validate(sys *htm.System) error {
	if v.doneOps != v.expectedOps {
		return fmt.Errorf("sessions done %d, want %d", v.doneOps, v.expectedOps)
	}
	bad := 0
	for _, tb := range v.tables {
		tb.RawEach(func(_, val uint64) {
			free, _ := unpackItem(val)
			if free > 4 {
				bad++
			}
		})
	}
	if bad > 0 {
		return fmt.Errorf("%d items with impossible free counts", bad)
	}
	return nil
}
