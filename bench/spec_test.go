package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"chopper/bench/internal/harness"
	"chopper/bench/internal/loads"
)

// BENCHMARK.json is generated from the tables in spec.go (bench --spec);
// the committed file must be exactly that.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `bench --spec > BENCHMARK.json`")
	}
}

func TestSpecWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(workloadWhy) != len(loads.All()) {
		t.Fatalf("%d workloads described, %d implemented", len(workloadWhy), len(loads.All()))
	}
	for i, w := range loads.All() {
		if w.Name() != workloadWhy[i].Name {
			t.Errorf("workload %d is %q in loads, %q in the spec", i, w.Name(), workloadWhy[i].Name)
		}
		use(w.Name())
		if why := workloadWhy[i].Why; len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("why of %s is %d chars", w.Name(), len(why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

func TestMetricsJSONEmitsExactlyTheListedNames(t *testing.T) {
	listed := []Metric{{"a", "ms", "lower", 0.1}, {"b", "count", "higher", 0}}
	got, err := metricsJSON(listed, map[string]float64{"a": 1.5, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["a"]["unit"] != "ms" || got["a"]["value"] != 1.5 || got["b"]["unit"] != "count" {
		t.Fatalf("bad metrics object: %v", got)
	}
	if _, err := metricsJSON(listed, map[string]float64{"a": 1}); err == nil {
		t.Error("a listed metric without a value must be an error")
	}
	if _, err := metricsJSON(listed, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an unlisted metric must be an error")
	}
	nan := 0.0
	if _, err := metricsJSON(listed, map[string]float64{"a": nan / nan, "b": 2}); err == nil {
		t.Error("NaN must be an error")
	}
}

// A real (short) run emits every end-to-end name once and nothing else.
func TestRealRunEmitsTheEndToEndList(t *testing.T) {
	cfg := harness.DefaultConfig(1, 0.3, t.TempDir())
	cfg.MinRounds, cfg.Setups, cfg.WarmRounds = 2, 1, 1
	rep, err := harness.Run(loads.NewTuneSweep(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d of %d ops failed", rep.Failed, rep.Attempted)
	}
	if _, err := metricsJSON(endToEnd, rep.EndToEnd); err != nil {
		t.Fatal(err)
	}
}
