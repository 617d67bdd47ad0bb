package trace

import (
	"bytes"
	"strings"
	"testing"

	"chopper/internal/cluster"
	"chopper/internal/metrics"
)

func sampleCollector() *metrics.Collector {
	col := metrics.NewCollector("demo", "spark")
	p := cluster.DefaultCostParams()
	col.BeginStage(0, "sigA", "map:scan", "input", 2, 0)
	col.AddTask(0, "A", metrics.TaskMetric{TaskID: 0, Start: 0, End: 8, InputBytes: 100, Records: 5}, &p)
	col.AddTask(0, "B", metrics.TaskMetric{TaskID: 1, Start: 0, End: 10, ShuffleWrite: 40}, &p)
	col.EndStage(0, 10)
	col.BeginStage(1, "sigB", "result:reduce", "hash", 1, 10)
	col.AddTask(1, "A", metrics.TaskMetric{TaskID: 0, Start: 10, End: 14, ShuffleReadLocal: 20, ShuffleReadRemote: 20}, &p)
	col.EndStage(1, 14)
	return col
}

func TestFromCollector(t *testing.T) {
	l := FromCollector(sampleCollector(), true)
	if l.Workload != "demo" || l.Mode != "spark" || l.TotalTime != 14 {
		t.Fatalf("header wrong: %+v", l)
	}
	if len(l.Stages) != 2 || len(l.Stages[0].Tasks) != 2 {
		t.Fatalf("stages/tasks wrong")
	}
	if l.Stages[0].ShuffleWrite != 40 || l.Stages[1].ShuffleRead != 40 {
		t.Fatalf("shuffle aggregates wrong: %+v", l.Stages)
	}
	lean := FromCollector(sampleCollector(), false)
	if len(lean.Stages[0].Tasks) != 0 {
		t.Fatalf("includeTasks=false should drop task events")
	}
}

func TestWriteJSON(t *testing.T) {
	l := FromCollector(sampleCollector(), true)
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"workload\": \"demo\"", "\"totalTime\": 14", "\"shuffleReadRemote\": 20"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("json missing %s:\n%s", want, buf.String())
		}
	}
}

func TestGantt(t *testing.T) {
	l := FromCollector(sampleCollector(), false)
	g := l.Gantt(80)
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt should have header + 2 stages:\n%s", g)
	}
	if !strings.Contains(lines[1], "#") || !strings.Contains(lines[2], "#") {
		t.Fatalf("bars missing:\n%s", g)
	}
	// Stage 1 starts after stage 0's bar.
	if strings.Index(lines[2], "#") <= strings.Index(lines[1], "#") {
		t.Fatalf("stage 1 bar should start later:\n%s", g)
	}
	empty := &Log{}
	if !strings.Contains(empty.Gantt(80), "empty") {
		t.Fatalf("empty log should render a placeholder")
	}
	// Tiny widths clamp instead of panicking.
	_ = l.Gantt(1)
}
