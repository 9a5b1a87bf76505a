package rel

import (
	"fmt"
	"sync"
	"testing"
)

// TestInstanceConcurrentCreate hammers first-use relation creation: for
// each brand-new predicate, several goroutines Add concurrently (racing
// the lazy map insert), others EnsureRelation the same name, and catalog
// walkers read the map the whole time. Before the instance guarded its
// relation map, two racing creators could overwrite — and so lose — each
// other's freshly made relation, and any concurrent reader was a map
// read/write race (a "concurrent map writes" panic under load, a report
// under -race). Now every predicate must end up with exactly one relation
// holding every writer's tuple.
func TestInstanceConcurrentCreate(t *testing.T) {
	const (
		preds   = 8
		writers = 8 // per predicate, all racing the first use
	)
	ins := NewInstance()
	var wg sync.WaitGroup
	for p := 0; p < preds; p++ {
		pred := fmt.Sprintf("p%d", p)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(val string) {
				defer wg.Done()
				if _, err := ins.Add(pred, Tuple{val}); err != nil {
					t.Errorf("add %s(%s): %v", pred, val, err)
				}
			}(fmt.Sprintf("v%d", w))
		}
		wg.Add(1)
		go func(pred string) {
			defer wg.Done()
			if r := ins.EnsureRelation(pred, 1); r == nil {
				t.Errorf("ensure %s returned nil", pred)
			}
		}(pred)
	}
	// Catalog walkers race the creators: membership reads must be safe
	// against the first-use map inserts.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, name := range ins.Relations() {
					ins.Gen(name)
					ins.Relation(name)
				}
				ins.Size()
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if got := len(ins.Relations()); got != preds {
		t.Fatalf("relations = %d, want %d", got, preds)
	}
	for p := 0; p < preds; p++ {
		pred := fmt.Sprintf("p%d", p)
		if got := ins.Relation(pred).Len(); got != writers {
			t.Fatalf("%s holds %d tuples, want %d (a racing creator's relation was lost)", pred, got, writers)
		}
	}
}
