package extract_test

import (
	"testing"

	"chopper"
	"chopper/internal/core"
	"chopper/internal/lint"
	"chopper/internal/plan/extract"
	"chopper/internal/session"
	"chopper/internal/workloads"
)

// TestKeyFactsMatchRuntime is the key-fact drift gate: for every built-in
// workload, the statically inferred partitioner placement, co-partition
// grouping, and dependency kinds must match the plans the scheduler
// actually submits, node for node.
func TestKeyFactsMatchRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and runs every workload")
	}
	ex := sharedExtractor(t)
	for _, name := range []string{"kmeans", "pca", "sql", "pagerank"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			workloads.Shrink(w, shrink)
			bytes := w.DefaultInputBytes()

			rep, err := ex.Extract(w, bytes, core.DefaultParallelism)
			if err != nil {
				t.Fatalf("static extraction failed: %v", err)
			}
			for i, j := range rep.Jobs {
				if len(j.Keys) == 0 {
					t.Fatalf("job %d (%s): no key facts", i, j.Action)
				}
			}

			var keys extract.KeyCapture
			sess := chopper.NewSession(func(c *session.Config) { c.OnPlan = keys.Hook() })
			if _, err := w.Run(sess.Context(), bytes); err != nil {
				t.Fatalf("runtime run failed: %v", err)
			}
			if drift := extract.KeyDrift(rep, keys.Jobs()); len(drift) != 0 {
				for _, d := range drift {
					t.Errorf("key-fact drift: %s", d)
				}
			}
		})
	}
}

// factByOp returns the first fact with the given op across the report's
// jobs, scanning jobs in submission order.
func factByOp(rep *extract.Report, op string) (extract.KeyFacts, bool) {
	for _, j := range rep.Jobs {
		for _, f := range j.Keys {
			if f.Op == op {
				return f, true
			}
		}
	}
	return extract.KeyFacts{}, false
}

// TestKeyFactsLattice pins the interesting lattice inferences on the real
// workloads: co-partitioned joins predicted narrow, key provenance carried
// through identity maps and filters, and the constant-key cardinality that
// cold-start seeding exploits.
func TestKeyFactsLattice(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	ex := sharedExtractor(t)
	reports := map[string]*extract.Report{}
	for _, name := range []string{"pca", "sql", "pagerank"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		workloads.Shrink(w, shrink)
		rep, err := ex.Extract(w, w.DefaultInputBytes(), core.DefaultParallelism)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reports[name] = rep
	}

	// pagerank: links carries the explicit partitioner through the identity
	// parseLinks map's child partitionBy, MapValues preserves it onto ranks,
	// so the join's cogroup sees both parents co-partitioned: narrow-narrow.
	cg, ok := factByOp(reports["pagerank"], "cogroup")
	if !ok {
		t.Fatal("pagerank: no cogroup fact")
	}
	if cg.DepKinds != "nn" || !cg.HasPart || cg.Scheme != "hash" {
		t.Errorf("pagerank cogroup: got deps=%q part=%v/%s, want co-partitioned narrow-narrow hash", cg.DepKinds, cg.HasPart, cg.Scheme)
	}
	mv, ok := factByOp(reports["pagerank"], "mapValues")
	if !ok {
		t.Fatal("pagerank: no mapValues fact")
	}
	if !mv.HasPart || mv.PartID != cg.PartID {
		t.Errorf("pagerank mapValues: partitioner not preserved (hasPart=%v partID=%d, cogroup partID=%d)", mv.HasPart, mv.PartID, cg.PartID)
	}

	// pagerank: JoinFlatMapFloatPairs' flatMap is keyed by its emit calls
	// (the out-link dst), after the cogroup and join Join would build.
	fm, ok := factByOp(reports["pagerank"], "flatMap")
	if !ok {
		t.Fatal("pagerank: no flatMap fact")
	}
	if fm.Keyed != extract.KeyedYes || fm.Prov != "dst" || fm.DepKinds != "n" || fm.HasPart {
		t.Errorf("pagerank flatMap: got keyed=%s prov=%q deps=%q hasPart=%v, want a narrow flatMap keyed by dst with no partitioner",
			fm.Keyed, fm.Prov, fm.DepKinds, fm.HasPart)
	}

	// pagerank: SumByKey(part) is modelled as the reduceByKey shuffle it
	// builds, carrying the explicit partitioner's identity — which is what
	// keeps the next iteration's join narrow on the ranks side.
	sum, ok := factByOp(reports["pagerank"], "reduceByKey")
	if !ok {
		t.Fatal("pagerank: no reduceByKey fact for SumByKey")
	}
	if sum.DepKinds != "s" || !sum.HasPart || sum.PartID != cg.PartID || sum.Keyed != extract.KeyedYes {
		t.Errorf("pagerank SumByKey(part): got deps=%q hasPart=%v partID=%d keyed=%s, want a keyed shuffle under the cogroup's partitioner %d",
			sum.DepKinds, sum.HasPart, sum.PartID, sum.Keyed, cg.PartID)
	}

	// sql: SumByKey(nil) takes the per-call default — a fresh synthetic
	// (negative) hash identity, like ReduceByKey with n <= 0.
	sum, ok = factByOp(reports["sql"], "reduceByKey")
	if !ok {
		t.Fatal("sql: no reduceByKey fact for SumByKey")
	}
	if sum.DepKinds != "s" || !sum.HasPart || sum.Scheme != "hash" || sum.PartID >= 0 {
		t.Errorf("sql SumByKey(nil): got deps=%q part=%v/%s id=%d, want a shuffle under a fresh default hash partitioner",
			sum.DepKinds, sum.HasPart, sum.Scheme, sum.PartID)
	}

	// sql: the join takes a nil partitioner, so neither side can be
	// co-partitioned with the fresh default: shuffle-shuffle.
	cg, ok = factByOp(reports["sql"], "cogroup")
	if !ok {
		t.Fatal("sql: no cogroup fact")
	}
	if cg.DepKinds != "ss" {
		t.Errorf("sql cogroup: got deps=%q, want ss", cg.DepKinds)
	}

	// sql: the orders source's key is data-dependent (ZipfIndex of the row
	// index, the key its generator emits), and the filter and projectOrder
	// closures, which return their key parameter, preserve its provenance
	// verbatim.
	src, ok := factByOp(reports["sql"], "ordersTable")
	if !ok {
		t.Fatal("sql: no ordersTable fact")
	}
	if src.Keyed != extract.KeyedYes || src.Card != lint.CardData || src.Prov == "" {
		t.Errorf("sql ordersTable: got keyed=%s card=%s prov=%q, want a data-carried key", src.Keyed, src.Card, src.Prov)
	}
	flt, ok := factByOp(reports["sql"], "filter")
	if !ok {
		t.Fatal("sql: no filter fact")
	}
	if flt.Prov != src.Prov || flt.Card != src.Card {
		t.Errorf("sql filter: provenance not preserved (got %q/%s, want %q/%s)", flt.Prov, flt.Card, src.Prov, src.Card)
	}
	proj, ok := factByOp(reports["sql"], "projectOrder")
	if !ok {
		t.Fatal("sql: no projectOrder fact")
	}
	if proj.Prov != src.Prov || proj.Card != src.Card {
		t.Errorf("sql projectOrder: provenance not preserved (got %q/%s, want %q/%s)", proj.Prov, proj.Card, src.Prov, src.Card)
	}

	// pca: the partial-mean rewrite keys every partition's contribution by
	// the constant 0 — a provably single-key reduce, the fact cold-start
	// seeding uses to shrink the reduce side to one partition.
	pm, ok := factByOp(reports["pca"], "partialMean")
	if !ok {
		t.Fatal("pca: no partialMean fact")
	}
	if pm.Keyed != extract.KeyedYes || pm.Card != lint.CardConst || pm.Bound != 1 {
		t.Errorf("pca partialMean: got keyed=%s card=%s bound=%d, want a constant single key", pm.Keyed, pm.Card, pm.Bound)
	}
}
