package lint_test

import (
	"strings"
	"testing"

	"chopper/internal/lint"
)

// TestGuardRuleNames pins the -rules surface: every guard rule resolves by
// name alongside the determinism suite.
func TestGuardRuleNames(t *testing.T) {
	names := []string{"lockcontract", "copyescape", "journalorder", "tocou", "walltime"}
	as, err := lint.ByName(names)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != len(names) {
		t.Fatalf("resolved %d analyzers, want %d", len(as), len(names))
	}
	for i, a := range as {
		if a.Name != names[i] {
			t.Fatalf("ByName order mismatch: got %s at %d, want %s", a.Name, i, names[i])
		}
	}
	if _, err := lint.ByName([]string{"nosuchrule"}); err == nil {
		t.Fatal("ByName must reject unknown rules")
	}
}

// TestWireSchema pins the unified JSON finding schema shared by the gate
// CLIs (tool/rule/pos/msg/severity), including the suppression-audit
// severity downgrade.
func TestWireSchema(t *testing.T) {
	d := lint.Diagnostic{File: "x.go", Line: 3, Col: 9, Rule: "lockcontract", Message: "m"}
	w := lint.Wire("chopperlint", d)
	if w.Tool != "chopperlint" || w.Rule != "lockcontract" || w.Pos != "x.go:3:9" || w.Msg != "m" || w.Severity != "error" {
		t.Fatalf("unexpected wire form: %+v", w)
	}
	d.Rule = "suppression"
	if got := lint.Wire("chopperlint", d); got.Severity != "warning" {
		t.Fatalf("suppression findings must be warnings, got %+v", got)
	}

	var b strings.Builder
	if err := lint.WriteJSONTool(&b, "chopperlint", nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("empty finding set must serialize as [], got %q", b.String())
	}
	b.Reset()
	if err := lint.WriteJSONTool(&b, "chopperlint", []lint.Diagnostic{d}); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"tool"`, `"rule"`, `"pos"`, `"msg"`, `"severity"`} {
		if !strings.Contains(b.String(), field) {
			t.Fatalf("wire JSON missing %s field: %s", field, b.String())
		}
	}
}

// TestSuppressionAudit pins the directive hygiene rules: a reasonless
// directive does not suppress and is itself reported; a stale directive
// for a rule that ran is reported; "all" directives are exempt from the
// staleness check.
func TestSuppressionAudit(t *testing.T) {
	t.Run("reasonless", func(t *testing.T) {
		diags := plantModule(t, "internal/dag", `package dag

import "time"

func Bad() time.Time {
	//lint:ignore walltime
	return time.Now()
}
`, []*lint.Analyzer{lint.WallTime})
		var rules []string
		for _, d := range diags {
			rules = append(rules, d.Rule)
		}
		if len(diags) != 2 || rules[0] != "suppression" || rules[1] != "walltime" {
			t.Fatalf("want suppression audit + unsuppressed walltime, got %v", diags)
		}
	})
	t.Run("stale", func(t *testing.T) {
		diags := plantModule(t, "internal/dag", `package dag

//lint:ignore walltime nothing here reads the clock anymore
func Fine() int { return 1 }
`, []*lint.Analyzer{lint.WallTime})
		if len(diags) != 1 || diags[0].Rule != "suppression" || !strings.Contains(diags[0].Message, "stale") {
			t.Fatalf("want stale-directive audit, got %v", diags)
		}
	})
	t.Run("all-exempt", func(t *testing.T) {
		diags := plantModule(t, "internal/dag", `package dag

//lint:ignore all generated shim, exempt wholesale
func Fine() int { return 1 }
`, []*lint.Analyzer{lint.WallTime})
		if len(diags) != 0 {
			t.Fatalf("unused 'all' directives must not be flagged, got %v", diags)
		}
	})
	t.Run("rule-not-run", func(t *testing.T) {
		// A directive for a rule outside the run set cannot be judged
		// stale — that rule's findings were never computed.
		diags := plantModule(t, "internal/dag", `package dag

//lint:ignore globalrand seeded stream lives elsewhere
func Fine() int { return 1 }
`, []*lint.Analyzer{lint.WallTime})
		if len(diags) != 0 {
			t.Fatalf("directives for rules that did not run must not be flagged, got %v", diags)
		}
	})
}
