package experiments

import "testing"

// TestColdStartSeeding runs the static cold-start seeding path end to end on
// every workload: static extraction must succeed, the seeded configuration
// must validate, and seeding must never be slower than the default plan —
// with pca (whose reduce keys are provably constant) showing a strict
// first-run improvement.
func TestColdStartSeeding(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and runs every workload twice")
	}
	rows, err := ColdStartSeeding([]string{"kmeans", "pca", "sql", "pagerank"}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ColdStartRow{}
	for _, r := range rows {
		byName[r.Workload] = r
		t.Logf("%s: %d seeded stages, default %.1fs, seeded %.1fs (%.2fx)",
			r.Workload, r.Entries, r.DefaultTime, r.SeededTime, r.Speedup())
		if r.SeededTime > r.DefaultTime*1.001 {
			t.Errorf("%s: seeded first run slower than default (%.2fs > %.2fs)",
				r.Workload, r.SeededTime, r.DefaultTime)
		}
	}
	pca := byName["pca"]
	if pca.Entries == 0 {
		t.Error("pca: constant-key reduces produced no seed entries")
	}
	if pca.SeededTime >= pca.DefaultTime {
		t.Errorf("pca: expected a strict first-run improvement, got default %.2fs, seeded %.2fs",
			pca.DefaultTime, pca.SeededTime)
	}
}
