package chopper_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chopper"
	"chopper/internal/config"
)

// saveConfig writes cf to path in the configuration file format.
func saveConfig(t *testing.T, path string, cf *chopper.ConfigFile) {
	t.Helper()
	var b strings.Builder
	if err := cf.Write(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// wordish builds a small aggregation app over the public API.
func wordish(rows, keys int) chopper.AppFunc {
	return chopper.AppFunc{
		AppName: "wordish",
		Bytes:   2e9,
		Fn: func(sess *chopper.Session, inputBytes int64) error {
			sess.SetLogicalScale(float64(inputBytes) / float64(rows*24))
			src := sess.Generate("words", 0, inputBytes, func(split, total int) []chopper.Row {
				var out []chopper.Row
				for i := split; i < rows; i += total {
					out = append(out, chopper.Pair{K: i % keys, V: 1.0})
				}
				return out
			})
			counts := src.ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
			_, err := counts.Count()
			return err
		},
	}
}

func TestSessionRunsPipeline(t *testing.T) {
	sess := chopper.NewSession()
	data := sess.Parallelize([]chopper.Row{1, 2, 3, 4, 5}, 2)
	rows, err := data.Collect()
	sum := 0
	for _, r := range rows {
		sum += r.(int)
	}
	if err != nil || sum != 15 {
		t.Fatalf("sum = %v err=%v", sum, err)
	}
	if sess.Elapsed() <= 0 {
		t.Fatalf("simulated time should advance")
	}
	if len(sess.Stages()) == 0 {
		t.Fatalf("stages should be recorded")
	}
	if sess.Topology() == nil || sess.Metrics() == nil || sess.Context() == nil {
		t.Fatalf("accessors should be non-nil")
	}
}

func TestSessionOptions(t *testing.T) {
	sess := chopper.NewSession(
		chopper.WithTopology(chopper.UniformCluster(3, 4, 2.0)),
		chopper.WithDefaultParallelism(12),
	)
	data := sess.Generate("g", 0, 1000, func(split, total int) []chopper.Row {
		return []chopper.Row{split}
	})
	n, err := data.Count()
	if err != nil || n != 12 {
		t.Fatalf("default parallelism should set source splits: n=%d err=%v", n, err)
	}
}

func TestPartitionerConstructors(t *testing.T) {
	h := chopper.NewHashPartitioner(4)
	if h.NumPartitions() != 4 || h.Name() != "hash" {
		t.Fatalf("hash partitioner wrong")
	}
	r := chopper.NewRangePartitioner(3, []any{1, 2, 3, 4, 5, 6})
	if r.NumPartitions() != 3 || r.Name() != "range" {
		t.Fatalf("range partitioner wrong")
	}
}

func TestTunerEndToEnd(t *testing.T) {
	app := wordish(3000, 40)
	tuner := chopper.NewTuner(chopper.WithDefaultParallelism(300))
	tuner.Plan = chopper.TrialPlan{
		SizeFractions: []float64{0.5, 1.0},
		Partitions:    []int{150, 300, 450, 600},
		Range:         true,
	}
	vanilla, tuned, cf, err := tuner.RunComparison(app)
	if err != nil {
		t.Fatal(err)
	}
	if cf == nil || len(cf.Entries) == 0 {
		t.Fatalf("training should produce a configuration")
	}
	if vanilla <= 0 || tuned <= 0 {
		t.Fatalf("times should be positive: %v %v", vanilla, tuned)
	}
	if tuned >= vanilla {
		t.Fatalf("tuned run (%.1fs) should beat vanilla (%.1fs)", tuned, vanilla)
	}
	if tuner.DB.SampleCount(app.Name()) == 0 {
		t.Fatalf("database should hold observations")
	}
}

func TestDynamicTuningFromFile(t *testing.T) {
	app := wordish(2000, 20)
	tuner := chopper.NewTuner()
	tuner.Plan = chopper.TrialPlan{SizeFractions: []float64{1.0}, Partitions: []int{150, 300, 600}}
	cf, err := tuner.Train(app)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wordish.conf")
	saveConfig(t, path, cf)
	sess := chopper.NewSession(chopper.WithDynamicTuning(path))
	if err := app.Run(sess, app.InputBytes()); err != nil {
		t.Fatal(err)
	}
	if sess.Elapsed() <= 0 {
		t.Fatalf("dynamic-tuned run should execute")
	}
}

func TestBuiltinApps(t *testing.T) {
	app, err := chopper.Builtin("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	app.Shrink(8)
	app.SetInputBytes(2e9)
	if app.InputBytes() != 2e9 || app.Name() != "kmeans" {
		t.Fatalf("builtin accessors wrong")
	}
	sess := chopper.NewSession()
	if err := app.Run(sess, app.InputBytes()); err != nil {
		t.Fatal(err)
	}
	if app.LastResult["checksum"] == 0 {
		t.Fatalf("builtin should record a checksum")
	}
	if len(sess.Stages()) != 20 {
		t.Fatalf("kmeans should have 20 stages, got %d", len(sess.Stages()))
	}
	if _, err := chopper.Builtin("nope"); err == nil {
		t.Fatalf("unknown builtin should error")
	}
}

func TestTunedBuiltinImproves(t *testing.T) {
	app, err := chopper.Builtin("sql")
	if err != nil {
		t.Fatal(err)
	}
	app.Shrink(8)
	tuner := chopper.NewTuner()
	tuner.Plan = chopper.TrialPlan{
		SizeFractions: []float64{0.5, 1.0},
		Partitions:    []int{150, 300, 450, 600},
		Range:         true,
	}
	vanilla, tuned, _, err := tuner.RunComparison(app)
	if err != nil {
		t.Fatal(err)
	}
	improvement := (vanilla - tuned) / vanilla
	if improvement <= 0.05 {
		t.Fatalf("tuned SQL should improve by >5%%: vanilla=%.1f tuned=%.1f", vanilla, tuned)
	}
	if math.IsNaN(improvement) {
		t.Fatalf("NaN improvement")
	}
}

func TestExplainLineage(t *testing.T) {
	sess := chopper.NewSession()
	r := sess.Parallelize([]chopper.Row{chopper.Pair{K: 1, V: 1.0}}, 1).
		ReduceByKey(func(a, b any) any { return a }, 2)
	tree := chopper.Explain(r)
	if !strings.Contains(tree, "reduceByKey") || !strings.Contains(tree, "= ") {
		t.Fatalf("explain tree wrong:\n%s", tree)
	}
	dot := chopper.ExplainDOT(r, "g")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "shuffle") {
		t.Fatalf("explain dot wrong:\n%s", dot)
	}
}

func TestSessionTraceExport(t *testing.T) {
	sess := chopper.NewSession()
	if _, err := sess.Parallelize([]chopper.Row{1, 2, 3}, 2).Count(); err != nil {
		t.Fatal(err)
	}
	l := sess.Trace(true)
	if len(l.Stages) != 1 || len(l.Stages[0].Tasks) != 2 {
		t.Fatalf("trace wrong: %+v", l)
	}
	if !strings.Contains(l.Gantt(80), "#") {
		t.Fatalf("gantt should render bars")
	}
}

func TestKillNodePublicAPI(t *testing.T) {
	sess := chopper.NewSession()
	if len(sess.AliveWorkers()) != 5 {
		t.Fatalf("paper cluster has 5 workers: %v", sess.AliveWorkers())
	}
	if err := sess.KillNode("C"); err != nil {
		t.Fatal(err)
	}
	if len(sess.AliveWorkers()) != 4 {
		t.Fatalf("worker not removed: %v", sess.AliveWorkers())
	}
	if err := sess.KillNode("Z"); err == nil {
		t.Fatalf("unknown node should error")
	}
	// Work continues on the survivors.
	if _, err := sess.Parallelize([]chopper.Row{1, 2, 3}, 2).Count(); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicReconfigurationMidWorkload exercises the paper's dynamic
// updates (Section III-A): the configuration file changes while a workload
// runs, and the scheduler adopts the new scheme for subsequent jobs.
func TestDynamicReconfigurationMidWorkload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dyn.conf")

	// Discover the reduce stage's signature with a throwaway run.
	var sig string
	probe := chopper.NewSession()
	buildJob := func(sess *chopper.Session, tag int) *chopper.RDD {
		src := sess.Generate("dynsrc", 0, 1e9, func(split, total int) []chopper.Row {
			var out []chopper.Row
			for i := split; i < 600; i += total {
				out = append(out, chopper.Pair{K: i % 9, V: 1.0})
			}
			return out
		})
		return src.ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
	}
	if _, err := buildJob(probe, 0).Count(); err != nil {
		t.Fatal(err)
	}
	for _, st := range probe.Stages() {
		if st.Partitioner == "hash" {
			sig = st.Signature
		}
	}
	if sig == "" {
		t.Fatalf("no reduce stage found")
	}

	write := func(n int) {
		cf := &chopper.ConfigFile{Workload: "dyn"}
		cf.Set(config.Entry{Signature: sig, Scheme: "hash", NumPartitions: n})
		saveConfig(t, path, cf)
		// Force a visible mtime change on coarse filesystems.
		future := time.Now().Add(time.Duration(n) * time.Second)
		if err := os.Chtimes(path, future, future); err != nil {
			t.Fatal(err)
		}
	}

	write(5)
	sess := chopper.NewSession(chopper.WithDynamicTuning(path))
	if _, err := buildJob(sess, 1).Count(); err != nil {
		t.Fatal(err)
	}
	first := sess.Stages()
	if first[len(first)-1].NumTasks != 5 {
		t.Fatalf("first job should run at 5 partitions, got %d", first[len(first)-1].NumTasks)
	}

	// Update the file mid-workload; the next job must adopt it.
	write(11)
	if _, err := buildJob(sess, 2).Count(); err != nil {
		t.Fatal(err)
	}
	all := sess.Stages()
	if all[len(all)-1].NumTasks != 11 {
		t.Fatalf("updated configuration not adopted: %d tasks", all[len(all)-1].NumTasks)
	}
}

// TestFullSizeSimulatedTimePinned pins, bit for bit, the simulated time
// each built-in ends at full size on a vanilla session — what the
// benchmark's exec.sim_s reports — on one app run three times: the
// generating run, the one recording its source partitions and the one
// replaying them.
func TestFullSizeSimulatedTimePinned(t *testing.T) {
	for _, pin := range []struct {
		name string
		want uint64
	}{
		{"kmeans", 0x408c7d3d3f294df7},
		{"pca", 0x408e0e990804fcbe},
		{"sql", 0x4074fa4bf7e5cd56},
		{"pagerank", 0x40827060a5fe094f},
	} {
		app, err := chopper.Builtin(pin.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"generating", "recording", "replayed"} {
			sess := chopper.NewSession()
			if err := app.Run(sess, app.InputBytes()); err != nil {
				t.Fatalf("%s, %s run: %v", pin.name, phase, err)
			}
			if now := sess.Elapsed(); math.Float64bits(now) != pin.want {
				t.Errorf("%s, %s run: ends at %v (%#x), want %v (%#x)",
					pin.name, phase, now, math.Float64bits(now), math.Float64frombits(pin.want), pin.want)
			}
		}
	}
}

// TestTunerAnswerPinned pins, bit for bit, the tuner's answer on the
// benchmark's tune-sweep grid — size fractions {0.5, 1}, 150 and 600
// partitions, hash only — for tiny sql and kmeans: the simulated seconds of
// RunComparison's vanilla and tuned runs. Host-side changes to the engine,
// the shuffle manager or the collector must leave every simulated second
// where it was.
func TestTunerAnswerPinned(t *testing.T) {
	for _, pin := range []struct {
		name           string
		vanilla, tuned uint64
	}{
		{"sql", 0x4075b2741991a994, 0x4070b57528aa0e95},
		{"kmeans", 0x408befa4a4d05739, 0x408683c0cc03a933},
	} {
		app, err := chopper.Builtin(pin.name)
		if err != nil {
			t.Fatal(err)
		}
		app.Shrink(12)
		tuner := chopper.NewTuner()
		tuner.Plan = chopper.TrialPlan{SizeFractions: []float64{0.5, 1}, Partitions: []int{150, 600}}
		vanilla, tuned, _, err := tuner.RunComparison(app)
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		if math.Float64bits(vanilla) != pin.vanilla || math.Float64bits(tuned) != pin.tuned {
			t.Errorf("%s: vanilla %v s (%#x), tuned %v s (%#x); want %v (%#x) and %v (%#x)",
				pin.name, vanilla, math.Float64bits(vanilla), tuned, math.Float64bits(tuned),
				math.Float64frombits(pin.vanilla), pin.vanilla, math.Float64frombits(pin.tuned), pin.tuned)
		}
	}
}
