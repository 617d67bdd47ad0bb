package main

import (
	"fmt"
	"sync"
	"testing"
)

// TestReporterReleasesHeldFindingsSorted reports held findings from
// several goroutines in a scrambled order: release must emit them sorted
// by position, rule and message, after the findings made before hold.
func TestReporterReleasesHeldFindingsSorted(t *testing.T) {
	r := &reporter{json: true}
	r.finding("plan", "sql/vanilla", "first")
	r.hold()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 {
				r.finding([]string{"plan", "config"}[(g+i)%2], "sql/chopper-pipeline", fmt.Sprint("m", (7*g+i)%5))
			}
		}()
	}
	wg.Wait()
	if len(r.wire) != 1 {
		t.Fatalf("%d findings emitted while held, want only the one before hold", len(r.wire)-1)
	}
	r.release()
	if len(r.wire) != 13 {
		t.Fatalf("%d findings after release, want 13", len(r.wire))
	}
	for i := 2; i < len(r.wire); i++ {
		a, b := r.wire[i-1], r.wire[i]
		if a.Rule > b.Rule || a.Rule == b.Rule && a.Msg > b.Msg {
			t.Errorf("finding %d (%s %s) after (%s %s): not sorted", i, b.Rule, b.Msg, a.Rule, a.Msg)
		}
	}
}
