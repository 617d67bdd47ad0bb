package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"chopper"
	"chopper/internal/session"
	"chopper/internal/workloads"
)

// TestDeterministicTrace is the end-to-end determinism regression test
// backing the paper's evaluation: two runs of the same workload with the
// same seed, topology and configuration must emit byte-identical trace
// logs (per-task start/end times, placements and byte counts included).
// The engine's compute pass is genuinely parallel, so this catches any
// scheduling or accounting path where goroutine interleaving or map
// iteration order leaks into the simulated timeline — exactly the defect
// class chopperlint's walltime/globalrand/maporder rules exist to prevent.
func TestDeterministicTrace(t *testing.T) {
	for _, mode := range schedulingModes {
		t.Run(mode.name, func(t *testing.T) {
			run := func() []byte {
				w := &workloads.PageRank{Pages: 900, AvgDegree: 6, Iterations: 3, Damping: 0.85, Seed: 7}
				sess, _, err := runSession(w, 256<<20, chopper.WithDefaultParallelism(24), mode.opt)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := sess.Trace(true).Write(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			first, second := run(), run()
			if !bytes.Equal(first, second) {
				t.Fatalf("identical-seed runs produced different traces:\n%s", firstTraceDiff(first, second))
			}
		})
	}
}

// schedulingModes are the two scheduler modes a run's trace must be stable
// under: vanilla, and the co-partition-aware extensions with no
// configuration.
var schedulingModes = []struct {
	name string
	opt  chopper.Option
}{
	{"spark", func(*session.Config) {}},
	{"chopper", func(c *session.Config) { c.CoPartition = true }},
}

// firstTraceDiff renders the first differing line of two trace logs.
func firstTraceDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n run1: %s\n run2: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("traces differ in length: %d vs %d lines", len(la), len(lb))
}
