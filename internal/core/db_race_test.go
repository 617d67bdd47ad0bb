package core

import (
	"fmt"
	"sync"
	"testing"
)

// raceObs builds a small observation batch with per-iteration variation so
// node-field updates (InputFraction, DefaultP) keep mutating under load.
func raceObs(i int) []StageObservation {
	return []StageObservation{
		{
			Signature: "stage-a", Name: "map", Partitioner: "hash",
			D: float64(1000 + i), P: 300, Texe: 1.5, Sshuffle: 100,
			IsDefault: i%2 == 0,
		},
		{
			Signature: "stage-b", Name: "reduce", ParentSigs: []string{"stage-a"},
			Partitioner: "range", D: float64(500 + i), P: 150, Texe: 0.7,
			Sshuffle: 50, IsResult: true,
		},
	}
}

// TestDBConcurrentAddRunAndReads hammers the DB's single writer path
// (AddRun) against every reader from parallel goroutines. Run under -race
// (ci.sh does) it proves the locking contract: readers only ever see
// copies, writers serialize, and nothing tears.
func TestDBConcurrentAddRunAndReads(t *testing.T) {
	db := NewDB()
	const writers, readers, iters = 4, 4, 200

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				db.AddRun("wl", 1e9, raceObs(seed*iters+i))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, n := range db.Nodes("wl") {
					// Touch the mutable fields a concurrent AddRun updates.
					_ = n.InputFraction + float64(n.DefaultP)
					_ = len(n.ParentSigs)
				}
				_ = db.SamplesFor("wl", "stage-a", "hash")
				_ = db.Generation("wl")
				_ = db.OccurrencesPerRun("wl", "stage-a")
				_ = db.SampleCount("wl")
				_ = db.RunCount("wl")
				snap := db.CloneWorkload("wl")
				_ = snap.SampleCount("wl")
			}
		}()
	}
	wg.Wait()

	if got, want := db.RunCount("wl"), writers*iters; got != want {
		t.Fatalf("RunCount = %d, want %d", got, want)
	}
	if got, want := db.SampleCount("wl"), 2*writers*iters; got != want {
		t.Fatalf("SampleCount = %d, want %d", got, want)
	}
}

// TestDBCopyOnRead pins the ownership contract: mutating what a reader got
// back must not leak into the DB.
func TestDBCopyOnRead(t *testing.T) {
	db := NewDB()
	db.AddRun("wl", 1e9, raceObs(0))

	nodes := db.Nodes("wl")
	nodes[0].Signature = "clobbered"
	nodes[0].ParentSigs = append(nodes[0].ParentSigs, "x")
	if got := db.Nodes("wl")[0].Signature; got != "stage-a" {
		t.Fatalf("node mutation leaked into DB: %q", got)
	}

	ss := db.SamplesFor("wl", "stage-a", "hash")
	if len(ss) != 1 {
		t.Fatalf("SamplesFor = %d samples, want 1", len(ss))
	}
	ss[0].Texe = -1
	if got := db.SamplesFor("wl", "stage-a", "hash")[0].Texe; got != 1.5 {
		t.Fatalf("sample mutation leaked into DB: %v", got)
	}

	snap := db.CloneWorkload("wl")
	snap.AddRun("wl", 1e9, raceObs(1))
	if got, want := db.SampleCount("wl"), 2; got != want {
		t.Fatalf("clone write leaked into DB: SampleCount = %d, want %d", got, want)
	}
}

// TestDBObserverOrder pins that the observer sees writes in mutation order
// even under concurrency — the property journal replay depends on.
func TestDBObserverOrder(t *testing.T) {
	db := NewDB()
	var mu sync.Mutex
	var order []string
	db.SetObserver(func(workload string, _ float64, obs []StageObservation) {
		mu.Lock()
		order = append(order, fmt.Sprintf("%s/%d", workload, len(obs)))
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				db.AddRun("wl", 1e9, raceObs(seed*50+i))
			}
		}(w)
	}
	wg.Wait()
	if len(order) != 200 {
		t.Fatalf("observer saw %d writes, want 200", len(order))
	}
	if db.RunCount("wl") != 200 {
		t.Fatalf("RunCount = %d, want 200", db.RunCount("wl"))
	}
}
