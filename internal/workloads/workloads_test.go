package workloads_test

import (
	"math"
	"math/big"
	"testing"

	"chopper/internal/cluster"
	"chopper/internal/dag"
	"chopper/internal/exec"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// smaller returns a laptop-fast variant of each workload for tests.
func smallKMeans() *workloads.KMeans {
	k := workloads.NewKMeans()
	k.Rows = 4000
	return k
}

func smallPCA() *workloads.PCA {
	p := workloads.NewPCA()
	p.Rows = 3000
	p.Dim = 8
	return p
}

func smallSQL() *workloads.SQL {
	s := workloads.NewSQL()
	s.Orders = 6000
	s.Customers = 400
	return s
}

func runLocal(t *testing.T, w workloads.Workload, bytes int64) workloads.Result {
	t.Helper()
	ctx := rdd.NewContext(6)
	ctx.SetRunner(rdd.NewLocalRunner())
	res, err := w.Run(ctx, bytes)
	if err != nil {
		t.Fatalf("%s local run: %v", w.Name(), err)
	}
	return res
}

func runEngine(t *testing.T, w workloads.Workload, bytes int64, coPart bool, cfg dag.StageConfigurator) (workloads.Result, *metrics.Collector, float64) {
	t.Helper()
	ctx := rdd.NewContext(300)
	col := metrics.NewCollector(w.Name(), "test")
	eng := exec.New(cluster.PaperCluster(), cluster.DefaultCostParams(), ctx, col, coPart)
	sch := dag.NewScheduler(ctx, eng)
	sch.Configurator = cfg
	res, err := w.Run(ctx, bytes)
	if err != nil {
		t.Fatalf("%s engine run: %v", w.Name(), err)
	}
	return res, col, eng.Now()
}

func TestRegistry(t *testing.T) {
	if len(workloads.All()) != 3 {
		t.Fatalf("expected 3 workloads")
	}
	for _, name := range []string{"kmeans", "pca", "sql"} {
		w, err := workloads.ByName(name)
		if err != nil || w.Name() != name {
			t.Fatalf("registry lookup %q failed: %v", name, err)
		}
		if w.DefaultInputBytes() <= 0 {
			t.Fatalf("%s has no default input size", name)
		}
	}
	if _, err := workloads.ByName("nope"); err == nil {
		t.Fatalf("unknown workload should error")
	}
}

func TestTableIInputSizes(t *testing.T) {
	k, _ := workloads.ByName("kmeans")
	p, _ := workloads.ByName("pca")
	s, _ := workloads.ByName("sql")
	if math.Abs(float64(k.DefaultInputBytes())-21.8e9) > 1e6 ||
		math.Abs(float64(p.DefaultInputBytes())-27.6e9) > 1e6 ||
		math.Abs(float64(s.DefaultInputBytes())-34.5e9) > 1e6 {
		t.Fatalf("Table I sizes wrong: %d %d %d", k.DefaultInputBytes(), p.DefaultInputBytes(), s.DefaultInputBytes())
	}
}

func TestKMeansEngineMatchesOracle(t *testing.T) {
	w := smallKMeans()
	local := runLocal(t, w, 2e9)
	engine, _, _ := runEngine(t, w, 2e9, false, nil)
	if math.Abs(local.Checksum-engine.Checksum) > 1e-6*math.Abs(local.Checksum) {
		t.Fatalf("kmeans checksum mismatch: %v vs %v", local.Checksum, engine.Checksum)
	}
}

func TestKMeansHasPaperStageStructure(t *testing.T) {
	w := smallKMeans()
	_, col, _ := runEngine(t, w, 2e9, false, nil)
	stages := col.Stages()
	if len(stages) != 20 {
		for _, s := range stages {
			t.Logf("stage %d %s shuffleW=%d shuffleR=%d", s.ID, s.Name, s.ShuffleWrite, s.ShuffleRead)
		}
		t.Fatalf("kmeans must have 20 stages, got %d", len(stages))
	}
	for _, s := range stages {
		shuffles := s.ShuffleWrite > 0 || s.ShuffleRead > 0
		isIter := s.ID >= 12 && s.ID <= 17
		if shuffles != isIter {
			t.Fatalf("stage %d: shuffle=%v but paper says only stages 12-17 shuffle", s.ID, shuffles)
		}
	}
	// Stage 0 (cold parse) and stage 1 (warm cached pass) have distinct
	// signatures: their cost profiles differ by an order of magnitude, so
	// CHOPPER models them separately.
	if stages[0].Signature == stages[1].Signature {
		t.Fatalf("cold and warm passes must not share a signature")
	}
	// Iterative stages share signatures across iterations.
	if stages[12].Signature != stages[14].Signature || stages[13].Signature != stages[15].Signature {
		t.Fatalf("iteration stages should share signatures")
	}
	// Stage 0 dominates: heavy scan+parse.
	if stages[0].Duration() < stages[2].Duration() {
		t.Fatalf("stage 0 should dwarf later stages: %v vs %v", stages[0].Duration(), stages[2].Duration())
	}
}

func TestKMeansDeterministic(t *testing.T) {
	w := smallKMeans()
	r1, _, t1 := runEngine(t, w, 2e9, true, nil)
	r2, _, t2 := runEngine(t, w, 2e9, true, nil)
	if r1.Checksum != r2.Checksum || math.Abs(t1-t2) > 1e-9 {
		t.Fatalf("kmeans not deterministic: %v/%v %v/%v", r1.Checksum, r2.Checksum, t1, t2)
	}
}

func TestKMeansInvariantUnderRepartitioning(t *testing.T) {
	w := smallKMeans()
	base, _, _ := runEngine(t, w, 2e9, false, nil)
	forced, _, _ := runEngine(t, w, 2e9, false, &forceAll{n: 24})
	if math.Abs(base.Checksum-forced.Checksum) > 1e-6*math.Abs(base.Checksum) {
		t.Fatalf("results must not depend on partitioning: %v vs %v", base.Checksum, forced.Checksum)
	}
}

type forceAll struct{ n int }

func (f *forceAll) Scheme(string) (dag.SchemeSpec, bool) {
	return dag.SchemeSpec{Scheme: rdd.SchemeHash, NumPartitions: f.n}, true
}
func (f *forceAll) Refresh() {}

func TestPCAEngineMatchesOracle(t *testing.T) {
	w := smallPCA()
	local := runLocal(t, w, 2e9)
	engine, _, _ := runEngine(t, w, 2e9, false, nil)
	if math.Abs(local.Checksum-engine.Checksum) > 1e-6*math.Abs(local.Checksum) {
		t.Fatalf("pca checksum mismatch: %v vs %v", local.Checksum, engine.Checksum)
	}
	if engine.Details["eigsum"] <= 0 {
		t.Fatalf("pca eigenvalue sum should be positive: %v", engine.Details)
	}
}

func TestPCAStageShape(t *testing.T) {
	w := smallPCA()
	_, col, _ := runEngine(t, w, 2e9, false, nil)
	stages := col.Stages()
	// 1 (scan) + 2 (mean) + 2 (cov) + components*iters*2 + 1 (project).
	want := 1 + 2 + 2 + w.Components*w.PowerIters*2 + 1
	if len(stages) != want {
		t.Fatalf("pca stages = %d, want %d", len(stages), want)
	}
	var shuffling int
	for _, s := range stages {
		if s.ShuffleWrite > 0 {
			shuffling++
		}
	}
	if shuffling != 2+w.Components*w.PowerIters {
		t.Fatalf("pca shuffle-writing stages = %d", shuffling)
	}
}

func TestSQLEngineMatchesOracle(t *testing.T) {
	w := smallSQL()
	local := runLocal(t, w, 2e9)
	engine, _, _ := runEngine(t, w, 2e9, true, nil)
	if math.Abs(local.Checksum-engine.Checksum) > 1e-6*math.Abs(local.Checksum) {
		t.Fatalf("sql checksum mismatch: %v vs %v", local.Checksum, engine.Checksum)
	}
	for _, r := range []string{"AMER", "EMEA", "APAC", "LATAM"} {
		if engine.Details["revenue."+r] <= 0 {
			t.Fatalf("region %s has no revenue: %v", r, engine.Details)
		}
	}
}

func TestSQLKeysAreSkewed(t *testing.T) {
	// The Zipf generator must concentrate orders on head customers.
	w := smallSQL()
	ctx := rdd.NewContext(4)
	ctx.SetRunner(rdd.NewLocalRunner())
	if _, err := w.Run(ctx, 1e9); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < w.Orders; i++ {
		counts[zipfKeyForTest(w, i)]++
	}
	head := 0
	for c := 0; c < w.Customers/10; c++ {
		head += counts[c]
	}
	if float64(head) < 0.5*float64(w.Orders) {
		t.Fatalf("top 10%% customers should hold >50%% of orders, got %d/%d", head, w.Orders)
	}
}

func TestSQLStageShape(t *testing.T) {
	w := smallSQL()
	_, col, _ := runEngine(t, w, 2e9, false, nil)
	stages := col.Stages()
	// Jobs: agg (2 stages) + customers (2 stages) + join (2 map sub-stages +
	// result) = 7 engine stages, reported as paper stages 0-4 with the join
	// job as stage 4's sub-stages.
	if len(stages) != 7 {
		t.Fatalf("sql engine stages = %d, want 7", len(stages))
	}
	join := stages[6]
	if join.ShuffleRead == 0 {
		t.Fatalf("join stage should read shuffle data")
	}
	if !stagesShuffleWrite(stages[4]) || !stagesShuffleWrite(stages[5]) {
		t.Fatalf("join sub-stages should write shuffle data")
	}
}

func stagesShuffleWrite(s *metrics.StageMetric) bool { return s.ShuffleWrite > 0 }

func TestWorkloadsScaleLogicalBytes(t *testing.T) {
	w := smallKMeans()
	ctx := rdd.NewContext(6)
	ctx.SetRunner(rdd.NewLocalRunner())
	if _, err := w.Run(ctx, w.DefaultInputBytes()); err != nil {
		t.Fatal(err)
	}
	if ctx.LogicalScale < 100 {
		t.Fatalf("logical scale implausibly small: %v", ctx.LogicalScale)
	}
}

// zipfKeyForTest mirrors the generator's key derivation.
func zipfKeyForTest(w *workloads.SQL, i int) int {
	return workloads.ZipfIndexForTest(w.Seed, int64(i), w.Customers)
}

func TestPageRankEngineMatchesOracle(t *testing.T) {
	w := workloads.NewPageRank()
	w.Pages = 600
	local := runLocal(t, w, 1e9)
	engine, col, _ := runEngine(t, w, 1e9, true, nil)
	if math.Abs(local.Checksum-engine.Checksum) > 1e-6*math.Abs(local.Checksum) {
		t.Fatalf("pagerank checksum mismatch: %v vs %v", local.Checksum, engine.Checksum)
	}
	// Total rank mass stays near the page count (PageRank invariant).
	if math.Abs(engine.Details["rankTotal"]-engine.Details["pages"]) > 0.25*engine.Details["pages"] {
		t.Fatalf("rank mass implausible: %v", engine.Details)
	}
	// Co-partitioned link table: the per-iteration join must shuffle only
	// the contributions (reduceByKey), never re-shuffle the cached links —
	// so each iteration adds exactly one shuffle-writing stage.
	shuffling := 0
	for _, st := range col.Stages() {
		if st.ShuffleWrite > 0 {
			shuffling++
		}
	}
	// 1 partitionBy + 1 reduce per iteration.
	if shuffling != 1+w.Iterations {
		t.Fatalf("co-partitioning broken: %d shuffle-writing stages, want %d", shuffling, 1+w.Iterations)
	}
}

func TestPageRankRegistered(t *testing.T) {
	w, err := workloads.ByName("pagerank")
	if err != nil || w.Name() != "pagerank" {
		t.Fatalf("pagerank not registered: %v", err)
	}
	if len(workloads.AllWithExtensions()) != 4 {
		t.Fatalf("extensions registry wrong")
	}
	if len(workloads.All()) != 3 {
		t.Fatalf("paper registry must stay at 3")
	}
}

func TestPCAEigenInvariant(t *testing.T) {
	// For converged principal components, the projected energy equals
	// rows x (sum of eigenvalues): sum_x (x . v_i)^2 = N * lambda_i.
	// This cross-checks the distributed power iteration against the
	// driver-side covariance eigenvalues.
	w := smallPCA()
	w.PowerIters = 8 // converge tightly
	res := runLocal(t, w, 2e9)
	rows := res.Details["rows"]
	want := rows * res.Details["eigsum"]
	got := res.Details["energy"]
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("energy %v should approximate rows*eigsum %v", got, want)
	}
}

func TestKMeansConvergesOnSeparatedClusters(t *testing.T) {
	// The generator plants well-separated clusters; after Lloyd iterations
	// the WSSSE per point must be far below the total variance per point.
	w := smallKMeans()
	res := runLocal(t, w, 2e9)
	perPoint := res.Details["wssse"] / res.Details["rows"]
	// Cluster centers are 10 apart with unit noise: within-cluster squared
	// distance should be around Dim * noiseVar ~ 10, far below the ~35+
	// of unclustered data.
	if perPoint > 20 {
		t.Fatalf("kmeans failed to converge: wssse per point %v", perPoint)
	}
}

// TestBuiltinChecksumsPinned pins every built-in's Result.Checksum, bit for
// bit, to the values the tree produced before SQL and PageRank moved their
// float sums to SumByKey and the generators and PageRank's contribution
// closure stopped growing and boxing per element: same floats added in the
// same order, whichever tier carries them.
func TestBuiltinChecksumsPinned(t *testing.T) {
	want := map[string]uint64{
		"kmeans":   0x40eb21946d1f4832,
		"pca":      0x4115766b2af97f92,
		"sql":      0x413eb80efdba4846,
		"pagerank": 0x4078e90e69ad42c2,
	}
	for _, w := range workloads.AllWithExtensions() {
		workloads.Shrink(w, 10)
		res, _, _ := runEngine(t, w, w.DefaultInputBytes(), w.Name() == "pagerank", nil)
		if got := math.Float64bits(res.Checksum); got != want[w.Name()] {
			t.Errorf("%s checksum = %#x (%v), want %#x (%v)", w.Name(), got, res.Checksum, want[w.Name()], math.Float64frombits(want[w.Name()]))
		}
	}
}

// sourceBytes is a JobRunner that records the SourceBytes of every source
// its jobs reach, by op name, and runs each job over empty partitions.
type sourceBytes map[string]int64

// RunJob implements rdd.JobRunner.
func (s sourceBytes) RunJob(target *rdd.RDD, fn func(int, []rdd.Row) (any, error)) ([]any, error) {
	for _, r := range target.Lineage() {
		if len(r.Deps) == 0 {
			s[r.Op] = r.SourceBytes
		}
	}
	out := make([]any, target.NumParts)
	for split := range out {
		res, err := fn(split, nil)
		if err != nil {
			return nil, err
		}
		out[split] = res
	}
	return out, nil
}

// TestSQLSplitsHugeInputsExactly: SQL divides its input between the orders
// and the customers table in proportion to their physical bytes. At inputs
// where the product of the input and the orders' bytes passes 2^63 — 6 TB
// at the paper's size and at the benchmark's doubled one, and the largest
// int64 — both shares stay non-negative and still add up to the input, and
// at every size the orders share is the exact truncated quotient (at the
// paper's 34.5 GB, the one plain int64 arithmetic gives).
func TestSQLSplitsHugeInputsExactly(t *testing.T) {
	for _, orders := range []int{40000, 80000} {
		for _, input := range []int64{int64(34.5 * workloads.GB), 6e12, math.MaxInt64} {
			w := workloads.NewSQL()
			w.Orders = orders
			got := sourceBytes{}
			ctx := rdd.NewContext(4)
			ctx.SetRunner(got)
			if _, err := w.Run(ctx, input); err == nil {
				t.Fatal("a run over empty partitions joined rows")
			}
			o, c := got["ordersTable"], got["customersTable"]
			t.Logf("orders %d, input %d: orders table %d bytes, customers %d", orders, input, o, c)
			if o < 0 || c < 0 || o+c != input {
				t.Fatalf("orders %d, input %d: split into %d + %d", orders, input, o, c)
			}
			physOrders := int64(orders) * 40
			want := new(big.Int).Mul(big.NewInt(input), big.NewInt(physOrders))
			want.Quo(want, big.NewInt(physOrders+int64(w.Customers)*32))
			if !want.IsInt64() || o != want.Int64() {
				t.Fatalf("orders %d, input %d: orders share %d, want %v", orders, input, o, want)
			}
		}
	}
}
