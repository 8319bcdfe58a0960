// Package a is the determinism analyzer fixture: each annotated line
// must trigger exactly the finding its want comment describes, and the
// unannotated lines must stay silent.
package a

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func wallClock() time.Duration {
	t0 := time.Now() // want `wall-clock time\.Now`
	time.Sleep(time.Millisecond)          // want `wall-clock time\.Sleep`
	return time.Since(t0)                 // want `wall-clock time\.Since`
}

func allowedWallClock() time.Time {
	// A justified exemption stays silent: the annotation names the
	// analyzer and carries a reason.
	return time.Now() //lint:allow determinism progress display only, never reaches results
}

func globalRand() float64 {
	n := rand.Intn(10)    // want `global math/rand\.Intn`
	_ = rand.Perm(4)      // want `global math/rand\.Perm`
	return rand.Float64() + float64(n) // want `global math/rand\.Float64`
}

func seededRand(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // seeded at the call site: fine
	return r.Float64()
}

func launderedSource(src rand.Source) *rand.Rand {
	return rand.New(src) // want `rand\.New without a literal rand\.NewSource`
}

func mapOrderLeaks(m map[string]int, sink chan<- string) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to an outer slice inside map iteration`
	}
	for k := range m {
		sink <- k // want `channel send inside map iteration`
	}
	for k, v := range m {
		fmt.Println(k, v) // want `fmt\.Println inside map iteration`
	}
	return keys
}

type queue struct{}

func (*queue) Push(string)    {}
func (*queue) Schedule(string) {}

func mapOrderIntoQueue(m map[string]int, q *queue) {
	for k := range m {
		q.Push(k) // want `call to method Push inside map iteration`
	}
}

type clock struct{}

func (*clock) After(float64, func()) {}

// Completions rescheduled in map order get map-ordered event sequence
// numbers, so same-instant events fire in a different order per run.
func mapOrderIntoEvents(m map[string]float64, c *clock) {
	for _, eta := range m {
		c.After(eta, func() {}) // want `call to method After inside map iteration`
	}
}

func mapOrderSafe(m map[string]int) (int, []string) {
	// Pure accumulation is order-independent.
	sum := 0
	for _, v := range m {
		sum += v
	}
	// Collect-then-sort is the sanctioned emission pattern.
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Local sort helpers count as order restoration too.
	var ids []int
	for _, v := range m {
		ids = append(ids, v)
	}
	insertionSortInts(ids)
	// A slice declared inside the loop body never outlives an iteration.
	for k := range m {
		var local []byte
		local = append(local, k...)
		_ = local
	}
	return sum, keys
}

func insertionSortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
