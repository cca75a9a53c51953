package telemetry

import (
	"reflect"
	"sync/atomic"
)

// counterStride spaces shards one cache line apart so concurrent
// writers on different shards never false-share.
const counterStride = 8 // uint64s = 64 bytes

// ShardedCounter is a monotone uint64 counter split across
// cache-line-padded shards. Writers pick a shard (normally their
// transaction slot or goroutine id) and add atomically; readers sum
// all shards. With one writer per shard there is no contention at
// all; with more, contention is bounded by the shard count rather
// than serializing every increment on one line.
type ShardedCounter struct {
	shards []atomic.Uint64 // len = n * counterStride, one live word per stride
}

// NewShardedCounter creates a counter with n shards (minimum 1).
func NewShardedCounter(n int) *ShardedCounter {
	if n < 1 {
		n = 1
	}
	return &ShardedCounter{shards: make([]atomic.Uint64, n*counterStride)}
}

// Shards returns the shard count.
func (c *ShardedCounter) Shards() int { return len(c.shards) / counterStride }

// Add atomically adds delta to the shard'th shard (wrapped modulo the
// shard count).
func (c *ShardedCounter) Add(shard int, delta uint64) {
	n := len(c.shards) / counterStride
	i := shard % n
	if i < 0 {
		i += n
	}
	c.shards[i*counterStride].Add(delta)
}

// Load returns the merged value across all shards.
func (c *ShardedCounter) Load() uint64 {
	var sum uint64
	for i := 0; i < len(c.shards); i += counterStride {
		sum += c.shards[i].Load()
	}
	return sum
}

// Sub returns the field-wise difference a - b of a counter-snapshot
// struct: every integer field, including elements of nested arrays and
// structs, of the result is a's value minus b's. It is the single
// windowed-delta implementation shared by the htm/tle/cache Stats
// snapshots (each previously hand-rolled its own Sub). Non-numeric
// fields are not allowed in snapshot types and panic loudly.
func Sub[T any](a, b T) T {
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(&b).Elem()
	subValue(va, vb)
	return a
}

// Add returns the field-wise sum a + b of a counter-snapshot struct,
// the aggregation dual of Sub: every integer (and float) field of the
// result, including elements of nested arrays and structs, is a's
// value plus b's. Layers that split counters across independent
// shards (the service workload keeps one scheme instance per shard)
// merge their snapshots with it. Like Sub it panics loudly on
// non-numeric fields — snapshot types are numbers all the way down.
func Add[T any](a, b T) T {
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(&b).Elem()
	addValue(va, vb)
	return a
}

func addValue(a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		a.SetUint(a.Uint() + b.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		a.SetInt(a.Int() + b.Int())
	case reflect.Float32, reflect.Float64:
		a.SetFloat(a.Float() + b.Float())
	case reflect.Array, reflect.Slice:
		for i := 0; i < a.Len(); i++ {
			addValue(a.Index(i), b.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			addValue(a.Field(i), b.Field(i))
		}
	default:
		panic("telemetry: Add: unsupported snapshot field kind " + a.Kind().String())
	}
}

func subValue(a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		a.SetUint(a.Uint() - b.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		a.SetInt(a.Int() - b.Int())
	case reflect.Float32, reflect.Float64:
		a.SetFloat(a.Float() - b.Float())
	case reflect.Array, reflect.Slice:
		for i := 0; i < a.Len(); i++ {
			subValue(a.Index(i), b.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			subValue(a.Field(i), b.Field(i))
		}
	default:
		panic("telemetry: Sub: unsupported snapshot field kind " + a.Kind().String())
	}
}
