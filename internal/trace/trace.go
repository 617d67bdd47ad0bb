// Package trace exports a run's execution history in a Spark-event-log-like
// JSON form and renders text Gantt charts of stage timelines — the
// diagnostics surface for inspecting what the scheduler and optimizer did.
// The JSON form is also the byte-comparable record the determinism tests
// diff across runs.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"chopper/internal/metrics"
)

// TaskEvent is one executed task in the exported log.
type TaskEvent struct {
	Stage             int     `json:"stage"`
	Task              int     `json:"task"`
	Node              string  `json:"node"`
	Start             float64 `json:"start"`
	End               float64 `json:"end"`
	InputBytes        int64   `json:"inputBytes,omitempty"`
	ShuffleReadLocal  int64   `json:"shuffleReadLocal,omitempty"`
	ShuffleReadRemote int64   `json:"shuffleReadRemote,omitempty"`
	ShuffleWrite      int64   `json:"shuffleWrite,omitempty"`
	Records           int64   `json:"records,omitempty"`
}

// StageEvent is one executed stage.
type StageEvent struct {
	ID           int         `json:"id"`
	Signature    string      `json:"signature"`
	Name         string      `json:"name"`
	Partitioner  string      `json:"partitioner"`
	NumTasks     int         `json:"numTasks"`
	Start        float64     `json:"start"`
	End          float64     `json:"end"`
	InputBytes   int64       `json:"inputBytes"`
	ShuffleRead  int64       `json:"shuffleRead"`
	ShuffleWrite int64       `json:"shuffleWrite"`
	Tasks        []TaskEvent `json:"tasks,omitempty"`
}

// Log is a full exported run.
type Log struct {
	Workload  string       `json:"workload"`
	Mode      string       `json:"mode"`
	TotalTime float64      `json:"totalTime"`
	Stages    []StageEvent `json:"stages"`
}

// FromCollector converts a run's metrics into an exportable log.
// includeTasks controls whether per-task events are kept (they dominate the
// log size for large stages).
func FromCollector(col *metrics.Collector, includeTasks bool) *Log {
	l := &Log{Workload: col.Workload, Mode: col.Mode, TotalTime: col.TotalTime()}
	for _, st := range col.Stages() {
		se := StageEvent{
			ID: st.ID, Signature: st.Signature, Name: st.Name,
			Partitioner: st.Partitioner, NumTasks: st.NumTasks,
			Start: st.Start, End: st.End,
			InputBytes: st.InputBytes, ShuffleRead: st.ShuffleRead, ShuffleWrite: st.ShuffleWrite,
		}
		if includeTasks {
			for _, tm := range st.Tasks {
				se.Tasks = append(se.Tasks, TaskEvent{
					Stage: st.ID, Task: int(tm.TaskID), Node: col.TaskNode(&tm),
					Start: tm.Start, End: tm.End,
					InputBytes:        tm.InputBytes,
					ShuffleReadLocal:  tm.ShuffleReadLocal,
					ShuffleReadRemote: tm.ShuffleReadRemote,
					ShuffleWrite:      tm.ShuffleWrite,
					Records:           tm.Records,
				})
			}
		}
		l.Stages = append(l.Stages, se)
	}
	return l
}

// Write serializes the log as indented JSON.
func (l *Log) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// Gantt renders a text timeline of the stages: one row per stage, bars
// proportional to [Start, End) over the run, at the given terminal width.
func (l *Log) Gantt(width int) string {
	if width < 40 {
		width = 40
	}
	if len(l.Stages) == 0 {
		return "(empty run)\n"
	}
	total := l.TotalTime
	if total <= 0 {
		for _, s := range l.Stages {
			if s.End > total {
				total = s.End
			}
		}
	}
	if total <= 0 {
		total = 1
	}
	bar := width - 34
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-22s %s (0 .. %.0fs)\n", "id", "stage", "timeline", total)
	for _, s := range l.Stages {
		lo := int(math.Round(s.Start / total * float64(bar)))
		hi := int(math.Round(s.End / total * float64(bar)))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > bar {
			hi = bar
		}
		line := strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) + strings.Repeat(" ", bar-hi)
		name := s.Name
		if len(name) > 22 {
			name = name[:22]
		}
		fmt.Fprintf(&b, "%-4d %-22s |%s| %.1fs\n", s.ID, name, line, s.End-s.Start)
	}
	return b.String()
}
