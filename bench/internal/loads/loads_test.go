package loads

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"chopper/bench/internal/harness"
	"chopper/internal/service"
	"chopper/internal/workloads"
)

func TestServeSequenceIsSeededAndStratified(t *testing.T) {
	a, b, c := ServeSequence(5, serveRequests), ServeSequence(5, serveRequests), ServeSequence(6, serveRequests)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same order")
	}
	count := func(seq []Request) map[Request]int {
		m := map[Request]int{}
		for _, r := range seq {
			m[r]++
		}
		return m
	}
	if !reflect.DeepEqual(count(a), count(c)) {
		t.Fatal("different seeds must replay the same multiset of requests")
	}
	if len(a) != serveRequests || len(count(a)) != len(Builtins)*len(sizeFactors) {
		t.Fatalf("%d requests over %d distinct, want %d over %d", len(a), len(count(a)), serveRequests, len(Builtins)*len(sizeFactors))
	}
}

// tiny is a fast engine job for the planted-failure tests.
func tiny(t *testing.T) workloads.Workload {
	t.Helper()
	w, err := Scaled("kmeans", 1, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPlantedChecksumMismatchFails(t *testing.T) {
	e := &Engine{name: "t", ws: []workloads.Workload{tiny(t)}}
	inst, err := e.Setup()
	if err != nil {
		t.Fatal(err)
	}
	var ops harness.Ops
	if err := inst.Round(&ops, nil, 0); err != nil {
		t.Fatal(err)
	}
	if ops.Attempted != 1 || ops.Failed != 0 {
		t.Fatalf("clean round: attempted %d failed %d", ops.Attempted, ops.Failed)
	}
	inst.(*EngineInst).Want[0] *= 1 + 1e-6 // a wrong answer in the sixth digit
	if err := inst.Round(&ops, nil, 0); err != nil {
		t.Fatal(err)
	}
	if ops.Failed != 1 {
		t.Fatalf("planted checksum mismatch was not counted: failed %d", ops.Failed)
	}
}

func TestPlantedNon200Fails(t *testing.T) {
	// An untrained store answers every recommend with 409.
	d, err := StartDaemon(service.Config{StorePath: filepath.Join(t.TempDir(), "profiles.db"), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rq := Request{Workload: "sql"}
	inst := &ServeInst{D: d, dir: t.TempDir(), Seq: []Request{rq, rq}, First: map[Request][]byte{rq: []byte("{}")}}
	for c := 0; c < serveClients; c++ {
		cl, tr := OneConn(d.URL)
		inst.clients, inst.transports = append(inst.clients, cl), append(inst.transports, tr)
	}
	var ops harness.Ops
	if err := inst.Round(&ops, nil, 0); err != nil {
		t.Fatal(err)
	}
	if ops.Attempted != 2 || ops.Failed != 2 || len(ops.LatMs) != 2 {
		t.Fatalf("attempted %d failed %d latencies %d, want 2, 2, 2", ops.Attempted, ops.Failed, len(ops.LatMs))
	}
	if err := inst.Close(&ops); err != nil {
		t.Fatal(err)
	}
}

// Two runs of one seed must allocate the same bytes per round: it is what
// lets alloc_mb_per_round carry a 2% bound.
func TestEngineShuffleAllocRepeats(t *testing.T) {
	run := func() float64 {
		cfg := harness.DefaultConfig(3, 0.3, t.TempDir())
		cfg.MinRounds, cfg.Setups, cfg.WarmRounds = 2, 1, 1
		rep, err := harness.Run(NewEngineShuffle(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%d of %d ops failed", rep.Failed, rep.Attempted)
		}
		return rep.EndToEnd["alloc_mb_per_round"]
	}
	a, b := run(), run()
	if math.Abs(a-b)/a > 5e-4 {
		t.Fatalf("alloc_mb_per_round %v vs %v: differs in the first four digits", a, b)
	}
}

// One short fleet-write run end to end: every submit recorded and
// journaled once, reads stable, and the replica converged byte for byte.
func TestFleetWriteRunIsCorrect(t *testing.T) {
	cfg := harness.DefaultConfig(2, 0.1, t.TempDir())
	cfg.MinRounds, cfg.Setups, cfg.WarmRounds = 1, 1, 0
	rep, err := harness.Run(NewFleetWrite(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := int(rep.Env["env.rounds"])
	// Per round: the submits, their reads, one journal-record check; then
	// the convergence check at close.
	want := rounds*(fleetSubmits*(1+fleetReadsPer)+1) + 1
	if rep.Attempted != want || rep.Failed != 0 {
		t.Fatalf("attempted %d failed %d, want %d and 0", rep.Attempted, rep.Failed, want)
	}
}
