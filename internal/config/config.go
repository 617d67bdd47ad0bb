// Package config implements CHOPPER's workload configuration files
// (paper Fig. 6): a list of tuples, each holding a stage signature, the
// partitioner to use, and the number of partitions for that stage. The DAG
// scheduler consults the configuration before executing each stage; a
// Dynamic configurator re-reads the file when it changes, enabling the
// paper's dynamic updates during workload execution.
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"chopper/internal/dag"
	"chopper/internal/rdd"
)

// Entry is one stage tuple.
type Entry struct {
	Signature         string
	Scheme            rdd.SchemeName
	NumPartitions     int
	InsertRepartition bool
}

// File is a parsed workload configuration.
type File struct {
	Workload string
	Entries  []Entry
}

// Lookup finds the entry for a stage signature.
func (f *File) Lookup(sig string) (Entry, bool) {
	for _, e := range f.Entries {
		if e.Signature == sig {
			return e, true
		}
	}
	return Entry{}, false
}

// Set inserts or replaces the entry for a signature.
func (f *File) Set(e Entry) {
	for i := range f.Entries {
		if f.Entries[i].Signature == e.Signature {
			f.Entries[i] = e
			return
		}
	}
	f.Entries = append(f.Entries, e)
}

// Validate checks every entry.
func (f *File) Validate() error {
	seen := map[string]bool{}
	for _, e := range f.Entries {
		if e.Signature == "" {
			return fmt.Errorf("config: empty signature")
		}
		if seen[e.Signature] {
			return fmt.Errorf("config: duplicate signature %q", e.Signature)
		}
		seen[e.Signature] = true
		if !rdd.ValidScheme(e.Scheme) {
			return fmt.Errorf("config: stage %s: unknown partitioner %q", e.Signature, e.Scheme)
		}
		if e.NumPartitions <= 0 {
			return fmt.Errorf("config: stage %s: invalid partition count %d", e.Signature, e.NumPartitions)
		}
	}
	return nil
}

// Write renders the file in the Fig. 6 text format:
//
//	# chopper workload configuration
//	workload <name>
//	stage <signature> <partitioner> <numPartitions> [repartition]
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# chopper workload configuration")
	if f.Workload != "" {
		fmt.Fprintf(bw, "workload %s\n", f.Workload)
	}
	entries := make([]Entry, len(f.Entries))
	copy(entries, f.Entries)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Signature < entries[j].Signature })
	for _, e := range entries {
		line := fmt.Sprintf("stage %s %s %d", e.Signature, e.Scheme, e.NumPartitions)
		if e.InsertRepartition {
			line += " repartition"
		}
		fmt.Fprintln(bw, line)
	}
	return bw.Flush()
}

// Parse reads the Fig. 6 text format.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "workload":
			if len(fields) != 2 {
				return nil, fmt.Errorf("config: line %d: workload needs a name", lineNo)
			}
			f.Workload = fields[1]
		case "stage":
			if len(fields) < 4 || len(fields) > 5 {
				return nil, fmt.Errorf("config: line %d: want 'stage <sig> <partitioner> <n> [repartition]'", lineNo)
			}
			n, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("config: line %d: bad partition count %q", lineNo, fields[3])
			}
			e := Entry{Signature: fields[1], Scheme: rdd.SchemeName(fields[2]), NumPartitions: n}
			if len(fields) == 5 {
				if fields[4] != "repartition" {
					return nil, fmt.Errorf("config: line %d: unknown flag %q", lineNo, fields[4])
				}
				e.InsertRepartition = true
			}
			f.Entries = append(f.Entries, e)
		default:
			return nil, fmt.Errorf("config: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Load reads a configuration from disk.
func Load(path string) (*File, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return Parse(r)
}

// Static is an in-memory StageConfigurator over a fixed File.
type Static struct {
	F *File
}

var _ dag.StageConfigurator = (*Static)(nil)

// Scheme implements dag.StageConfigurator.
func (s *Static) Scheme(sig string) (dag.SchemeSpec, bool) {
	if s.F == nil {
		return dag.SchemeSpec{}, false
	}
	e, ok := s.F.Lookup(sig)
	if !ok {
		return dag.SchemeSpec{}, false
	}
	return dag.SchemeSpec{
		Scheme:            e.Scheme,
		NumPartitions:     e.NumPartitions,
		InsertRepartition: e.InsertRepartition,
	}, true
}

// Refresh implements dag.StageConfigurator (no-op for Static).
func (s *Static) Refresh() {}

// Dynamic is a StageConfigurator backed by a file path; Refresh re-reads
// the file when its modification time changes, so configuration updates
// produced while a workload runs are adopted before the next job.
type Dynamic struct {
	Path string

	mu      sync.Mutex
	current *File
	modTime time.Time
}

var _ dag.StageConfigurator = (*Dynamic)(nil)

// NewDynamic creates a dynamic configurator and performs an initial load
// (missing file is tolerated: the configurator stays empty until the file
// appears).
func NewDynamic(path string) *Dynamic {
	d := &Dynamic{Path: path}
	d.Refresh()
	return d
}

// Refresh re-reads the backing file if it changed.
func (d *Dynamic) Refresh() {
	d.mu.Lock()
	defer d.mu.Unlock()
	info, err := os.Stat(d.Path)
	if err != nil {
		return
	}
	if d.current != nil && info.ModTime().Equal(d.modTime) {
		return
	}
	f, err := Load(d.Path)
	if err != nil {
		return // keep the last good configuration
	}
	d.current = f
	d.modTime = info.ModTime()
}

// Scheme implements dag.StageConfigurator.
func (d *Dynamic) Scheme(sig string) (dag.SchemeSpec, bool) {
	d.mu.Lock()
	f := d.current
	d.mu.Unlock()
	if f == nil {
		return dag.SchemeSpec{}, false
	}
	return (&Static{F: f}).Scheme(sig)
}
