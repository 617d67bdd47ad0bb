package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"chopper/bench/internal/loads"
	"chopper/bench/internal/stats"
)

// childRun runs one workload in a fresh child process of this binary, so
// peak RSS, GC state and page-cache warmth of one workload cannot colour
// the next. It relays the child's report and returns its parsed result
// line and full report.
func childRun(name string, seed int64, seconds float64, trace bool, outDir string, quiet bool) (*result, *fullReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	reportPath := filepath.Join(outDir, "report-"+name+".json")
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t,
		"--outdir", outDir, "--report", reportPath)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("child %s: %w", name, err)
	}
	out = bytes.TrimRight(out, "\n")
	cut := bytes.LastIndexByte(out, '\n')
	if !quiet {
		fmt.Println(string(out[:max(cut, 0)]))
	}
	var res result
	if err := json.Unmarshal(out[cut+1:], &res); err != nil {
		return nil, nil, fmt.Errorf("child %s: bad result line: %w", name, err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, nil, err
	}
	var full fullReport
	if err := json.Unmarshal(data, &full); err != nil {
		return nil, nil, fmt.Errorf("child %s: bad report: %w", name, err)
	}
	return &res, &full, nil
}

// runAll runs every workload once and writes the results, keyed by
// workload, to result.json in outDir.
func runAll(seed int64, seconds float64, trace bool, outDir string) error {
	all := map[string]*result{}
	failed := 0
	for _, w := range loads.All() {
		res, _, err := childRun(w.Name(), seed, seconds, trace, outDir, false)
		if err != nil {
			return err
		}
		all[w.Name()] = res
		failed += res.Failed
	}
	data, err := json.MarshalIndent(all, "", " ") // map keys marshal in sorted order
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed their output checks", failed)
	}
	return nil
}

// runAA is the benchmark's own acceptance: two back-to-back sets of n runs
// of the same code must agree within every end-to-end bound, and each
// set's interquartile spread must stay inside the bound too.
func runAA(n int, seconds float64, outDir string) error {
	type cell map[string][]float64 // metric -> values over the set's runs
	sets := [2]map[string]cell{{}, {}}
	for s := range sets {
		for i := 1; i <= n; i++ {
			for _, w := range loads.All() {
				res, full, err := childRun(w.Name(), int64(i), seconds, false, outDir, true)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", w.Name(), i, res.Failed, res.Attempted)
				}
				c := sets[s][w.Name()]
				if c == nil {
					c = cell{}
					sets[s][w.Name()] = c
				}
				for _, m := range endToEnd {
					c[m.Name] = append(c[m.Name], full.EndToEnd[m.Name])
				}
				c["env.steal_pct"] = append(c["env.steal_pct"], full.Env["env.steal_pct"])
				c["env.p50_over_p10"] = append(c["env.p50_over_p10"], full.Env["env.round_ms_p50"]/full.EndToEnd["round_ms"])
				fmt.Fprintf(os.Stderr, "set %c run %d/%d %s done\n", 'A'+s, i, n, w.Name())
			}
		}
	}
	bad := 0
	fmt.Printf("| workload | metric | median A | median B | B/A | spread A | spread B | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range loads.All() {
		a, b := sets[0][w.Name()], sets[1][w.Name()]
		for _, m := range endToEnd {
			ma, mb := stats.Median(a[m.Name]), stats.Median(b[m.Name])
			sa, sb := stats.Spread(a[m.Name]), stats.Spread(b[m.Name])
			verdict := "ok"
			switch {
			case mb/ma-1 > m.Bound, m.Name != "setup_s" && max(sa, sb) > m.Bound:
				verdict = "FAIL"
				bad++
			case m.Name != "setup_s" && max(sa, sb) > m.Bound/3:
				verdict = "wide"
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %.4f | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.Name(), m.Name, ma, mb, mb/ma, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		fmt.Printf("| %s | env.steal_pct | %.2f | %.2f | | | | | |\n", w.Name(), stats.Median(a["env.steal_pct"]), stats.Median(b["env.steal_pct"]))
		fmt.Printf("| %s | env.round_ms_p50/p10 | %.3f | %.3f | | | | | |\n", w.Name(), stats.Median(a["env.p50_over_p10"]), stats.Median(b["env.p50_over_p10"]))
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d (workload, metric) pairs outside their bound", bad)
	}
	return nil
}
