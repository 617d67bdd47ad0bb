package core

import (
	"errors"
	"strings"
	"testing"

	"chopper/internal/rdd"
)

// joinDAG builds the minimal workload DAG with a join group: two map stages
// feeding a join-like stage.
func joinDAG() []*StageNode {
	return []*StageNode{
		{Signature: "mapA"},
		{Signature: "mapB"},
		{Signature: "join", IsJoinLike: true, ParentSigs: []string{"mapA", "mapB"}},
	}
}

func scheme(sig string, p rdd.SchemeName, n int) StageScheme {
	return StageScheme{Signature: sig, Scheme: Scheme{Partitioner: p, NumPartitions: n}}
}

func TestVerifySchemes(t *testing.T) {
	grid := []int{100, 200, 300}
	agreeing := []StageScheme{
		scheme("mapA", rdd.SchemeHash, 200),
		scheme("mapB", rdd.SchemeHash, 200),
		scheme("join", rdd.SchemeHash, 200),
	}

	cases := []struct {
		name        string
		nodes       []*StageNode
		schemes     []StageScheme
		coPartition bool
		wantChecks  []string
	}{
		{
			name:    "clean per-stage output",
			nodes:   joinDAG(),
			schemes: []StageScheme{scheme("mapA", rdd.SchemeHash, 100), scheme("mapB", rdd.SchemeRange, 300)},
		},
		{
			name:        "clean co-partitioned output",
			nodes:       joinDAG(),
			schemes:     agreeing,
			coPartition: true,
		},
		{
			name:  "duplicate entry",
			nodes: joinDAG(),
			schemes: []StageScheme{
				scheme("mapA", rdd.SchemeHash, 100),
				scheme("mapA", rdd.SchemeHash, 200),
			},
			wantChecks: []string{"signature"},
		},
		{
			name:       "unknown signature",
			nodes:      joinDAG(),
			schemes:    []StageScheme{scheme("ghost", rdd.SchemeHash, 100)},
			wantChecks: []string{"signature"},
		},
		{
			name:       "invalid scheme",
			nodes:      joinDAG(),
			schemes:    []StageScheme{scheme("mapA", "round-robin", 100)},
			wantChecks: []string{"scheme"},
		},
		{
			name:       "non-positive count",
			nodes:      joinDAG(),
			schemes:    []StageScheme{scheme("mapA", rdd.SchemeHash, 0)},
			wantChecks: []string{"count"},
		},
		{
			name:       "count outside candidate grid",
			nodes:      joinDAG(),
			schemes:    []StageScheme{scheme("mapA", rdd.SchemeHash, 250)},
			wantChecks: []string{"count"},
		},
		{
			name:        "fixed stage retuned without repartition",
			nodes:       []*StageNode{{Signature: "mapA", Fixed: true}},
			schemes:     []StageScheme{scheme("mapA", rdd.SchemeHash, 100)},
			coPartition: true,
			wantChecks:  []string{"fixed"},
		},
		{
			name:    "fixed check only applies to Algorithm 3 output",
			nodes:   []*StageNode{{Signature: "mapA", Fixed: true}},
			schemes: []StageScheme{scheme("mapA", rdd.SchemeHash, 100)},
		},
		{
			name:  "join group disagreement",
			nodes: joinDAG(),
			schemes: []StageScheme{
				scheme("mapA", rdd.SchemeHash, 200),
				scheme("mapB", rdd.SchemeRange, 300),
				scheme("join", rdd.SchemeHash, 200),
			},
			coPartition: true,
			wantChecks:  []string{"copartition"},
		},
		{
			name:  "retuned group with missing non-fixed member",
			nodes: joinDAG(),
			schemes: []StageScheme{
				scheme("mapA", rdd.SchemeHash, 200),
				scheme("join", rdd.SchemeHash, 200),
			},
			coPartition: true,
			wantChecks:  []string{"copartition"},
		},
		{
			name: "partition-dependency group disagreement",
			nodes: []*StageNode{
				{Signature: "warm", PinKey: "cache1"},
				{Signature: "cold", PinKey: "cache1"},
			},
			schemes: []StageScheme{
				scheme("warm", rdd.SchemeHash, 100),
				scheme("cold", rdd.SchemeHash, 300),
			},
			coPartition: true,
			wantChecks:  []string{"copartition"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := VerifySchemes(tc.nodes, tc.schemes, grid, tc.coPartition)
			got := map[string]bool{}
			for _, v := range vs {
				got[v.Check] = true
			}
			if len(tc.wantChecks) == 0 && len(vs) > 0 {
				t.Fatalf("expected clean, got %v", vs)
			}
			for _, w := range tc.wantChecks {
				if !got[w] {
					t.Errorf("missing %q violation, got %v", w, vs)
				}
			}
		})
	}
}

func TestSchemeErrorAndOnViolation(t *testing.T) {
	if err := SchemeError("w", nil); err != nil {
		t.Fatalf("SchemeError with no violations = %v", err)
	}
	vs := []SchemeViolation{{Signature: "s", Check: "count", Msg: "bad"}}
	if err := SchemeError("w", vs); err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("SchemeError = %v", err)
	}

	// checkSchemes: strict by default, routed through OnViolation when set.
	db := NewDB()
	o := NewOptimizer(db)
	bad := []StageScheme{scheme("ghost", rdd.SchemeHash, o.Candidates[0])}
	if err := o.newPass("w").checkSchemes(bad, false); err == nil {
		t.Fatal("nil OnViolation must make violations a hard error")
	}
	sentinel := errors.New("observed")
	var seen []SchemeViolation
	o.OnViolation = func(workload string, vs []SchemeViolation) error {
		seen = vs
		return sentinel
	}
	if err := o.newPass("w").checkSchemes(bad, false); !errors.Is(err, sentinel) {
		t.Fatalf("OnViolation result not propagated: %v", err)
	}
	if len(seen) == 0 {
		t.Fatal("OnViolation saw no violations")
	}
}
