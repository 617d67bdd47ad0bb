package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chopper/internal/cluster"
	"chopper/internal/dag"
	"chopper/internal/metrics"
	"chopper/internal/model"
	"chopper/internal/rdd"
)

// quadSamples generates samples of texe = base + curve*(P-opt)^2 + dSlope*D,
// sshuffle = sBase + sSlope*P — exactly representable in the full basis.
func quadSamples(opt float64, base, curve float64) []StageObservation {
	var out []StageObservation
	for p := 50.0; p <= 1000; p += 50 {
		for _, d := range []float64{5e9, 10e9, 20e9} {
			out = append(out, StageObservation{
				D: d, P: p,
				Texe:     base + curve*(p-opt)*(p-opt) + 2e-9*d,
				Sshuffle: 1e7 + 2e3*p + 0.001*d,
			})
		}
	}
	return out
}

func seedStage(db *DB, wk, sig, scheme string, opt, base, curve float64, node StageObservation) {
	obs := quadSamples(opt, base, curve)
	for i := range obs {
		obs[i].Signature = sig
		obs[i].Name = node.Name
		obs[i].ParentSigs = node.ParentSigs
		obs[i].Fixed = node.Fixed
		obs[i].IsJoinLike = node.IsJoinLike
		obs[i].Partitioner = scheme
		obs[i].IsDefault = i == 0 && scheme != "range"
		if obs[i].IsDefault {
			obs[i].P = 300
		}
	}
	db.AddRun(wk, 20e9, obs)
}

func TestDBAddRunMergesNodes(t *testing.T) {
	db := NewDB()
	db.AddRun("w", 100, []StageObservation{
		{Signature: "a", Name: "map:x", Partitioner: "hash", D: 50, P: 10, Texe: 1, Sshuffle: 2},
	})
	db.AddRun("w", 100, []StageObservation{
		{Signature: "a", Name: "map:x", ParentSigs: []string{"z"}, Partitioner: "range", D: 100, P: 20, Texe: 2, Sshuffle: 3, IsDefault: true},
	})
	nodes := db.Nodes("w")
	if len(nodes) != 1 {
		t.Fatalf("nodes should merge by signature: %d", len(nodes))
	}
	n := nodes[0]
	if len(n.ParentSigs) != 1 || n.ParentSigs[0] != "z" {
		t.Fatalf("parents not merged: %v", n.ParentSigs)
	}
	if math.Abs(n.InputFraction-0.75) > 1e-9 { // mean of 0.5 and 1.0
		t.Fatalf("input fraction = %v", n.InputFraction)
	}
	if n.DefaultP != 20 || n.DefaultScheme != "range" {
		t.Fatalf("default info wrong: %+v", n)
	}
	if db.SampleCount("w") != 2 {
		t.Fatalf("sample count = %d", db.SampleCount("w"))
	}
	if len(db.SamplesFor("w", "a", "hash")) != 1 || len(db.SamplesFor("w", "a", "range")) != 1 {
		t.Fatalf("hash or range samples missing")
	}
	if db.SamplesFor("nope", "a", "hash") != nil || db.Nodes("nope") != nil {
		t.Fatalf("unknown workload should be empty")
	}
}

// saveSnapshot writes db's snapshot JSON to a temp file and returns its path.
func saveSnapshot(t *testing.T, db *DB) string {
	t.Helper()
	data, err := db.marshalSnapshotWith(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDBSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	seedStage(db, "w", "s1", "hash", 500, 60, 2e-4, StageObservation{Name: "map:a"})
	path := saveSnapshot(t, db)
	got, err := LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleCount("w") != db.SampleCount("w") {
		t.Fatalf("samples lost: %d vs %d", got.SampleCount("w"), db.SampleCount("w"))
	}
	if len(got.Nodes("w")) != 1 || got.Nodes("w")[0].Signature != "s1" {
		t.Fatalf("nodes lost")
	}
	if _, err := LoadDB(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatalf("missing db should error")
	}
}

func TestGetStageParPicksBetterScheme(t *testing.T) {
	db := NewDB()
	// Range: lower floor, optimum at P=300. Hash: optimum at P=500, higher.
	seedStage(db, "w", "s1", "range", 300, 40, 2e-4, StageObservation{})
	seedStage(db, "w", "s1", "hash", 500, 60, 2e-4, StageObservation{})
	o := NewOptimizer(db)
	s, err := o.newPass("w").stagePar("s1", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Partitioner != rdd.SchemeRange {
		t.Fatalf("should pick range: %+v", s)
	}
	if s.NumPartitions < 150 || s.NumPartitions > 420 {
		t.Fatalf("optimum should be near 300 (shuffle term pulls it below): got %d", s.NumPartitions)
	}
}

func TestGetStageParHashOnlyData(t *testing.T) {
	db := NewDB()
	seedStage(db, "w", "s1", "hash", 400, 60, 2e-4, StageObservation{})
	o := NewOptimizer(db)
	s, err := o.newPass("w").stagePar("s1", 10e9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Partitioner != rdd.SchemeHash {
		t.Fatalf("hash-only data must yield hash: %+v", s)
	}
}

func TestGetStageParInsufficientData(t *testing.T) {
	db := NewDB()
	db.AddRun("w", 100, []StageObservation{
		{Signature: "s1", Partitioner: "hash", D: 1, P: 1, Texe: 1, Sshuffle: 1},
	})
	o := NewOptimizer(db)
	if _, err := o.newPass("w").stagePar("s1", 100); err == nil {
		t.Fatalf("expected error with too few samples")
	}
}

func TestGetWorkloadParCoversTrainableStages(t *testing.T) {
	db := NewDB()
	seedStage(db, "w", "s1", "hash", 400, 60, 2e-4, StageObservation{Name: "map:a"})
	seedStage(db, "w", "s2", "hash", 200, 30, 3e-4, StageObservation{Name: "result:b", ParentSigs: []string{"s1"}})
	o := NewOptimizer(db)
	out, err := o.GetWorkloadPar("w", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("expected 2 stage schemes: %+v", out)
	}
	if out[0].NumPartitions == out[1].NumPartitions {
		t.Fatalf("different stages should get different optima: %+v", out)
	}
}

func TestRegroupDAGJoins(t *testing.T) {
	nodes := []*StageNode{
		{Signature: "a"},
		{Signature: "b"},
		{Signature: "j", IsJoinLike: true, ParentSigs: []string{"a", "b"}},
		{Signature: "lone"},
	}
	groups := regroupDAG(nodes)
	if len(groups) != 2 {
		t.Fatalf("expected join group + lone stage, got %d groups", len(groups))
	}
	var joinGroup *group
	for i := range groups {
		if len(groups[i].members) == 3 {
			joinGroup = &groups[i]
		}
	}
	if joinGroup == nil {
		t.Fatalf("join subgraph not formed: %+v", groups)
	}
}

func TestGetGlobalParUnifiesJoinGroup(t *testing.T) {
	db := NewDB()
	seedStage(db, "w", "a", "hash", 400, 60, 2e-4, StageObservation{Name: "map:a"})
	seedStage(db, "w", "b", "hash", 700, 80, 2e-4, StageObservation{Name: "map:b"})
	seedStage(db, "w", "j", "hash", 500, 50, 2e-4, StageObservation{
		Name: "result:join", ParentSigs: []string{"a", "b"}, IsJoinLike: true,
	})
	o := NewOptimizer(db)
	out, err := o.GetGlobalPar("w", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("want 3 schemes, got %d", len(out))
	}
	p0 := out[0].NumPartitions
	for _, s := range out {
		if s.NumPartitions != p0 || s.Partitioner != out[0].Partitioner {
			t.Fatalf("join subgraph must share one scheme: %+v", out)
		}
	}
}

func TestGlobalParFixedStageGammaGate(t *testing.T) {
	mk := func(curP float64) *Optimizer {
		db := NewDB()
		obs := quadSamples(400, 30, 5e-3)
		for i := range obs {
			obs[i].Signature = "fx"
			obs[i].Partitioner = "hash"
			obs[i].Fixed = true
			if i == 0 {
				obs[i].IsDefault = true
				obs[i].P = curP
			}
		}
		db.AddRun("w", 20e9, obs)
		return NewOptimizer(db)
	}
	// Current partitioning near the optimum: repartition not worth it.
	near := mk(420)
	out, err := near.GetGlobalPar("w", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range out {
		if s.Signature == "fx" {
			t.Fatalf("near-optimal fixed stage should be left untouched: %+v", s)
		}
	}
	// Current partitioning terrible: repartition insertion should trigger.
	far := mk(30)
	out, err = far.GetGlobalPar("w", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range out {
		if s.Signature == "fx" {
			if !s.InsertRepartition {
				t.Fatalf("fixed stage scheme without repartition flag: %+v", s)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("badly fixed stage should receive a repartition phase: %+v", out)
	}
}

func TestGenerateConfigValid(t *testing.T) {
	db := NewDB()
	seedStage(db, "w", "s1", "hash", 400, 60, 2e-4, StageObservation{Name: "map:a"})
	o := NewOptimizer(db)
	f, err := o.GenerateConfig("w", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	if f.Workload != "w" || len(f.Entries) != 1 {
		t.Fatalf("config wrong: %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizerErrorsWithoutData(t *testing.T) {
	o := NewOptimizer(NewDB())
	if _, err := o.GetWorkloadPar("none", 1e9); err == nil {
		t.Fatalf("no DAG info should error")
	}
	if _, err := o.GetGlobalPar("none", 1e9); err == nil {
		t.Fatalf("no DAG info should error")
	}
	if _, err := o.GenerateConfig("none", 1e9); err == nil {
		t.Fatalf("no data should error")
	}
}

func TestRecorderHarvest(t *testing.T) {
	rec := NewRecorder()
	rec.OnJob([]dag.StageInfo{
		{ID: 0, Signature: "sA", Name: "map:a", Fixed: false, IsJoinLike: false},
		{ID: 1, Signature: "sB", Name: "result:b", ParentSigs: []string{"sA"}, IsResult: true},
	})
	col := metrics.NewCollector("w", "spark")
	params := cluster.DefaultCostParams()
	col.BeginStage(0, "sA", "map:a", "input", 4, 0)
	col.AddTask(0, "", metrics.TaskMetric{Start: 0, End: 10, InputBytes: 100, ShuffleWrite: 40}, &params)
	col.EndStage(0, 10)
	col.BeginStage(1, "sB", "result:b", "hash", 2, 10)
	col.AddTask(1, "", metrics.TaskMetric{Start: 10, End: 15, ShuffleReadLocal: 40}, &params)
	col.EndStage(1, 15)

	obs := rec.Observations(col, true)
	if len(obs) != 2 {
		t.Fatalf("observations = %d", len(obs))
	}
	if obs[0].Signature != "sA" || obs[0].D != 100 || obs[0].Texe != 10 || obs[0].Sshuffle != 40 {
		t.Fatalf("obs[0] wrong: %+v", obs[0])
	}
	if obs[1].D != 40 || len(obs[1].ParentSigs) != 1 {
		t.Fatalf("obs[1] wrong: %+v", obs[1])
	}
	db := NewDB()
	rec.Harvest(db, "w", 140, col, true)
	if db.SampleCount("w") != 2 {
		t.Fatalf("harvest failed")
	}
}

func TestForceAllConfigurator(t *testing.T) {
	f := &ForceAll{Spec: dag.SchemeSpec{Scheme: rdd.SchemeHash, NumPartitions: 42}}
	spec, ok := f.Scheme("anything")
	if !ok || spec.NumPartitions != 42 {
		t.Fatalf("ForceAll should match any signature")
	}
	f.Refresh() // no-op, no panic
}

func TestCostWithSchemeFallback(t *testing.T) {
	db := NewDB()
	seedStage(db, "w", "s1", "hash", 400, 60, 2e-4, StageObservation{})
	o := NewOptimizer(db)
	// Requesting range cost where only hash data exists must fall back.
	c, err := o.newPass("w").costWithScheme("s1", 10e9, rdd.SchemeRange, 400)
	if err != nil || c <= 0 {
		t.Fatalf("fallback failed: %v %v", c, err)
	}
}

var _ = model.FullFeatures // keep import if assertions change

func TestExplainReport(t *testing.T) {
	db := NewDB()
	seedStage(db, "w", "s1", "hash", 400, 60, 2e-4, StageObservation{Name: "map:a"})
	seedStage(db, "w", "s2", "range", 300, 40, 2e-4, StageObservation{Name: "result:b", ParentSigs: []string{"s1"}})
	o := NewOptimizer(db)
	ex, err := o.Explain("w", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Workload != "w" || len(ex.Stages) != 2 {
		t.Fatalf("explanation shape wrong: %+v", ex)
	}
	decided := 0
	for _, s := range ex.Stages {
		if s.Decision != nil {
			decided++
			if s.Decision.NumPartitions <= 0 {
				t.Fatalf("decision without partitions: %+v", s)
			}
		}
		if s.Samples == 0 {
			t.Fatalf("stage %s should report samples", s.Signature)
		}
	}
	if decided == 0 {
		t.Fatalf("at least one stage should receive a decision")
	}
	out := ex.String()
	for _, want := range []string{"optimization report", "stage s1", "stage s2", "->"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if _, err := o.Explain("missing", 1e9); err == nil {
		t.Fatalf("unknown workload should error")
	}
}

func TestExplainFixedStageNotes(t *testing.T) {
	db := NewDB()
	obs := quadSamples(400, 30, 5e-3)
	for i := range obs {
		obs[i].Signature = "fx"
		obs[i].Name = "result:fixed"
		obs[i].Partitioner = "hash"
		obs[i].Fixed = true
		if i == 0 {
			obs[i].IsDefault = true
			obs[i].P = 420 // near-optimal: gamma gate declines
		}
	}
	db.AddRun("w", 20e9, obs)
	o := NewOptimizer(db)
	ex, err := o.Explain("w", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Stages) != 1 || ex.Stages[0].Decision != nil {
		t.Fatalf("near-optimal fixed stage should keep defaults: %+v", ex.Stages)
	}
	if !strings.Contains(ex.Stages[0].Note, "gamma") {
		t.Fatalf("note should mention the gamma gate: %q", ex.Stages[0].Note)
	}
}

// TestGenerationMovesOnMutationOnly pins the stamp contract the serving
// read path invalidates on: AddRun moves the touched workload's generation
// only, ReplaceAll moves every workload's (even when the incoming DB carries
// larger stamps of its own, as a bootstrap image replayed through AddRun
// does), reads move nothing, and no stamp repeats.
func TestGenerationMovesOnMutationOnly(t *testing.T) {
	db := NewDB()
	seen := map[uint64]bool{db.Generation("w"): true}
	step := func(what string) {
		t.Helper()
		g := db.Generation("w")
		if seen[g] {
			t.Fatalf("%s: generation %d of w was already handed out", what, g)
		}
		seen[g] = true
	}
	db.AddRun("w", 100, []StageObservation{{Signature: "a", Partitioner: "hash", D: 50, P: 10, Texe: 1}})
	step("AddRun")

	other := db.Generation("other")
	g := db.Generation("w")
	_ = db.Nodes("w")
	_ = db.SamplesFor("w", "a", "hash")
	_ = db.RunCount("w") + db.SampleCount("w") + db.OccurrencesPerRun("w", "a")
	if _, err := db.marshalSnapshotWith(nil); err != nil {
		t.Fatal(err)
	}
	if clone := db.CloneWorkload("w"); clone.Generation("w") != g || clone.RunCount("w") != 1 {
		t.Fatalf("clone carries generation %d and %d runs, want %d and 1", clone.Generation("w"), clone.RunCount("w"), g)
	}
	if db.Generation("w") != g {
		t.Fatal("a read moved the generation")
	}
	db.AddRun("w", 100, []StageObservation{{Signature: "a", Partitioner: "hash", D: 50, P: 20, Texe: 1}})
	step("second AddRun")
	if db.Generation("other") != other {
		t.Fatal("AddRun on w moved another workload's generation")
	}

	src := NewDB()
	for i := 0; i < 10; i++ { // src's own stamps run ahead of db's
		src.AddRun("w", 100, []StageObservation{{Signature: "a", Partitioner: "hash", D: 50, P: 10, Texe: 1}})
	}
	db.ReplaceAll(src)
	step("ReplaceAll")
	if db.Generation("other") == other {
		t.Fatal("ReplaceAll left a workload's generation in place")
	}
	db.AddRun("w", 100, []StageObservation{{Signature: "a", Partitioner: "hash", D: 50, P: 30, Texe: 1}})
	step("AddRun after ReplaceAll")
}

// TestGenerationIsNotSerialised: two DBs with the same data and different
// mutation histories marshal to the same bytes.
func TestGenerationIsNotSerialised(t *testing.T) {
	a := NewDB()
	seedStage(a, "w", "s1", "hash", 400, 60, 2e-4, StageObservation{})
	b, err := LoadDB(saveSnapshot(t, a))
	if err != nil {
		t.Fatal(err)
	}
	if a.Generation("w") == b.Generation("w") {
		t.Fatal("test needs two different generation histories")
	}
	ab, _ := a.marshalSnapshotWith(nil)
	bb, _ := b.marshalSnapshotWith(nil)
	if !bytes.Equal(ab, bb) {
		t.Fatal("snapshot bytes depend on the generation history")
	}
	for _, word := range []string{"seq", "touched", "replacedAt"} {
		if bytes.Contains(ab, []byte(word)) {
			t.Fatalf("snapshot mentions %q", word)
		}
	}
}

// TestOptimizerReadsTheDBOfEachCall: the per-pass memo must not outlive the
// call, or an Optimizer held over a live DB (Tuner) would answer from data
// it read before the last AddRun.
func TestOptimizerReadsTheDBOfEachCall(t *testing.T) {
	db := NewDB()
	seedStage(db, "w", "s1", "hash", 400, 60, 2e-4, StageObservation{})
	held := NewOptimizer(db)
	before, err := held.GetGlobalPar("w", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	seedStage(db, "w", "s1", "hash", 1200, 5, 2e-4, StageObservation{})
	got, err := held.GetGlobalPar("w", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewOptimizer(db).GetGlobalPar("w", 20e9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("held optimizer answered %+v, a fresh one %+v", got, want)
	}
	if reflect.DeepEqual(got, before) {
		t.Fatal("test needs the second seeding to change the answer")
	}
}
