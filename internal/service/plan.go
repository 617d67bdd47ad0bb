package service

import (
	"net/http"
	"sync/atomic"

	"chopper"
	"chopper/api"
	"chopper/internal/core"
)

// planCap bounds the answers kept per workload entry. Past it the map starts
// over from the one new answer: a sweep over arbitrary inputBytes values
// costs optimizer passes, never memory.
const planCap = 64

// planEntry is everything the read path knows about one workload at one DB
// generation: a private snapshot, the optimizer over it, the counts of that
// snapshot, and the answers already derived from it. An entry is never
// written after it is published; a new generation or a new answer publishes
// a new entry by compare-and-swap on its slot. So one response is always cut
// from one generation, and invalidation needs nothing but the DB's own
// stamp: whatever moved the data (train, recorded submit, replicated record,
// bootstrap swap, journal replay) went through AddRun or ReplaceAll.
type planEntry struct {
	gen           uint64
	opt           *core.Optimizer // over a CloneWorkload snapshot no one else holds
	runs, samples int
	answers       map[int64]*planAnswer // by inputBytes
}

// planAnswer is one memoized optimizer result: the configuration, the
// recommend response built from it and that response rendered, or the error
// to report instead. A hit writes body as it is.
type planAnswer struct {
	cf   *chopper.ConfigFile
	resp *api.RecommendResponse
	body []byte
	err  error
}

// planSlot is one built-in workload's place on the read path, fixed at New:
// its name, its default input size, and its published entry.
type planSlot struct {
	name         string
	defaultBytes int64
	entry        atomic.Pointer[planEntry]
}

// entry returns the slot's published entry, replacing it first when the DB
// generation has moved past it.
func (s *Server) entry(slot *planSlot) *planEntry {
	workload := slot.name
	for {
		e := slot.entry.Load()
		if e != nil && e.gen == s.db.Generation(workload) {
			return e
		}
		snap := s.db.CloneWorkload(workload)
		fresh := &planEntry{
			gen:     snap.Generation(workload),
			opt:     core.NewOptimizer(snap),
			runs:    snap.RunCount(workload),
			samples: snap.SampleCount(workload),
		}
		// Publish only over the entry the staleness decision was made on; if
		// another request got there first, decide again on what it published.
		if slot.entry.CompareAndSwap(e, fresh) {
			s.planRebuild.Inc()
			return fresh
		}
	}
}

// answer returns the tuned configuration of (slot's workload, inputBytes) at
// the current generation, running the optimizer and rendering the body only
// the first time that pair is asked for.
func (s *Server) answer(slot *planSlot, inputBytes int64) (*planAnswer, error) {
	e := s.entry(slot)
	a, ok := e.answers[inputBytes]
	if ok {
		s.planHit.Inc()
		return a, a.err
	}
	s.planMiss.Inc()
	workload := slot.name
	a = &planAnswer{}
	if cf, err := e.opt.GenerateConfig(workload, float64(inputBytes)); err != nil {
		a.err = httpErrf(http.StatusConflict, "service: workload %q not trained: %v", workload, err)
	} else {
		a.cf = cf
		a.resp = &api.RecommendResponse{
			Workload:   workload,
			InputBytes: inputBytes,
			Schemes:    schemeEntries(cf),
			Runs:       e.runs,
			Samples:    e.samples,
		}
		a.body = renderJSON(a.resp)
	}
	next := *e
	next.answers = map[int64]*planAnswer{inputBytes: a}
	if len(e.answers) < planCap {
		for k, v := range e.answers {
			next.answers[k] = v
		}
	}
	// Losing this race (a newer generation, or another new answer) only
	// means the answer is computed again the next time it is asked for.
	slot.entry.CompareAndSwap(e, &next)
	return a, a.err
}
