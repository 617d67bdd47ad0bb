// Package core implements CHOPPER itself — the paper's contribution: the
// workload database of observed stage statistics, the statistics recorder,
// the test-run profiler, and the partition optimizer implementing the
// paper's Algorithm 1 (stage-level scheme), Algorithm 2 (per-stage workload
// scheme) and Algorithm 3 (globally optimized scheme with DAG regrouping and
// repartition insertion), and the workload configuration generator.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"chopper/internal/model"
)

// StageNode is the merged DAG metadata of one stage signature within a
// workload, accumulated across profiled jobs.
type StageNode struct {
	Signature  string   `json:"sig"`
	Name       string   `json:"name"`
	ParentSigs []string `json:"parents,omitempty"`
	Fixed      bool     `json:"fixed,omitempty"`
	IsJoinLike bool     `json:"join,omitempty"`
	IsResult   bool     `json:"result,omitempty"`
	// PinKey groups stages with a partition dependency on one cached RDD.
	PinKey string `json:"pinKey,omitempty"`

	// InputFraction is the mean observed stage input size divided by the
	// workload input size; it projects a new workload size onto per-stage
	// input sizes (getStageInput in the paper's algorithms). FracSamples is
	// its accumulation count; it is persisted so a node recovered from a
	// snapshot keeps accumulating with the same weights as one that lived
	// through every AddRun — the property that keeps a replica bootstrapped
	// from a primary's snapshot byte-converged with the primary under
	// subsequent journal shipping.
	InputFraction float64 `json:"inputFraction"`
	FracSamples   int     `json:"fracSamples,omitempty"`

	// DefaultP and DefaultScheme describe the partitioning last observed
	// under the default (vanilla) configuration.
	DefaultP      int    `json:"defaultP"`
	DefaultScheme string `json:"defaultScheme"`
}

// WorkloadData is everything the DB knows about one workload.
type WorkloadData struct {
	Nodes []*StageNode `json:"nodes"`
	// Samples maps stage signature -> partitioner scheme -> observations.
	Samples map[string]map[string][]model.Sample `json:"samples"`
	// Runs counts profiled executions; with per-stage sample counts it
	// yields each stage's occurrences per run (iterative stages run the
	// same signature several times per execution).
	Runs int `json:"runs"`
}

// DB is CHOPPER's workload database (paper Fig. 5, "Workload DB"): observed
// input sizes, stage structure, task counts and runtime statistics, keyed by
// workload and stage signature.
//
// Locking contract: a DB is safe for concurrent use by multiple goroutines.
// AddRun and ReplaceAll are the only mutators and take the write lock; every
// accessor takes the read lock and returns data the caller owns — Nodes
// deep-copies the stage nodes and SamplesFor copies the sample slice, so no
// caller ever holds a reference into live DB state (copy-on-read). Long
// read-mostly pipelines (the optimizer behind a recommend endpoint) should
// take one CloneWorkload snapshot, run lock-free on the clone, and keep it
// for as long as Generation still reports the clone's stamp, so they never
// block behind — or are blocked by — concurrent training writes.
type DB struct {
	mu        sync.RWMutex
	observer  func(workload string, workloadInputBytes float64, obs []StageObservation)
	Workloads map[string]*WorkloadData `json:"workloads"`

	// seq counts mutations (AddRun, ReplaceAll); touched is its value at each
	// workload's last AddRun and replacedAt its value at the last ReplaceAll
	// (see Generation). All three are process-local and never serialised, so
	// snapshot and journal bytes do not depend on them.
	seq, replacedAt uint64
	touched         map[string]uint64
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{Workloads: map[string]*WorkloadData{}, touched: map[string]uint64{}}
}

func (db *DB) workload(name string) *WorkloadData {
	wd, ok := db.Workloads[name]
	if !ok {
		wd = &WorkloadData{Samples: map[string]map[string][]model.Sample{}}
		db.Workloads[name] = wd
	}
	return wd
}

// StageObservation is one stage execution reported by the recorder. The
// JSON tags pin the journal's on-disk record format (core.Store).
type StageObservation struct {
	Signature   string   `json:"sig"`
	Name        string   `json:"name,omitempty"`
	ParentSigs  []string `json:"parents,omitempty"`
	Fixed       bool     `json:"fixed,omitempty"`
	IsJoinLike  bool     `json:"join,omitempty"`
	IsResult    bool     `json:"result,omitempty"`
	Partitioner string   `json:"part"`             // scheme name used ("hash", "range", "input")
	PinKey      string   `json:"pinKey,omitempty"` // partition-dependency group
	D           float64  `json:"d"`                // stage input bytes (source + cache + shuffle read)
	P           float64  `json:"p"`                // partition count
	Texe        float64  `json:"texe"`
	Sshuffle    float64  `json:"sshuffle"`
	IsDefault   bool     `json:"default,omitempty"` // observed under the default configuration
}

// SetObserver installs a hook invoked on every AddRun, while the write lock
// is still held, with exactly the arguments that were applied — so the
// observation order seen by the hook is the order the DB state was mutated
// in (the property journal replay relies on). Install it once, before the
// DB is shared across goroutines; the durable Store uses it to journal.
func (db *DB) SetObserver(fn func(workload string, workloadInputBytes float64, obs []StageObservation)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.observer = fn
}

// AddRun merges one profiled run into the database. It is the DB's only
// mutator and takes the write lock for the whole merge.
func (db *DB) AddRun(workload string, workloadInputBytes float64, obs []StageObservation) {
	db.mu.Lock()
	defer db.mu.Unlock()
	wd := db.workload(workload)
	db.seq++
	db.touched[workload] = db.seq
	wd.Runs++
	for _, o := range obs {
		node := wd.node(o.Signature)
		if node == nil {
			node = &StageNode{Signature: o.Signature, Name: o.Name}
			wd.Nodes = append(wd.Nodes, node)
		}
		node.ParentSigs = mergeSigs(node.ParentSigs, o.ParentSigs)
		node.Fixed = node.Fixed || o.Fixed
		node.IsJoinLike = node.IsJoinLike || o.IsJoinLike
		node.IsResult = node.IsResult || o.IsResult
		if o.PinKey != "" {
			node.PinKey = o.PinKey
		}
		if workloadInputBytes > 0 {
			frac := o.D / workloadInputBytes
			node.InputFraction = (node.InputFraction*float64(node.FracSamples) + frac) / float64(node.FracSamples+1)
			node.FracSamples++
		}
		if o.IsDefault {
			node.DefaultP = int(o.P)
			node.DefaultScheme = o.Partitioner
		}
		bySig, ok := wd.Samples[o.Signature]
		if !ok {
			bySig = map[string][]model.Sample{}
			wd.Samples[o.Signature] = bySig
		}
		bySig[o.Partitioner] = append(bySig[o.Partitioner], model.Sample{
			D: o.D, P: o.P, Texe: o.Texe, Sshuffle: o.Sshuffle,
		})
	}
	if db.observer != nil {
		db.observer(workload, workloadInputBytes, obs)
	}
}

func (wd *WorkloadData) node(sig string) *StageNode {
	for _, n := range wd.Nodes {
		if n.Signature == sig {
			return n
		}
	}
	return nil
}

func mergeSigs(into, add []string) []string {
	seen := map[string]bool{}
	for _, s := range into {
		seen[s] = true
	}
	for _, s := range add {
		if !seen[s] {
			seen[s] = true
			into = append(into, s)
		}
	}
	return into
}

// Nodes returns the stage nodes of a workload in first-appearance order.
// The nodes are deep copies: AddRun mutates node fields in place, so
// handing out the live pointers would race with concurrent training.
func (db *DB) Nodes(workload string) []*StageNode {
	db.mu.RLock()
	defer db.mu.RUnlock()
	wd, ok := db.Workloads[workload]
	if !ok {
		return nil
	}
	out := make([]*StageNode, len(wd.Nodes))
	for i, n := range wd.Nodes {
		out[i] = n.clone()
	}
	return out
}

// clone returns an independent copy of the node.
func (n *StageNode) clone() *StageNode {
	c := *n
	c.ParentSigs = append([]string(nil), n.ParentSigs...)
	return &c
}

// SamplesFor returns a copy of the observations of (workload, signature,
// scheme); the caller owns the returned slice.
func (db *DB) SamplesFor(workload, sig, scheme string) []model.Sample {
	db.mu.RLock()
	defer db.mu.RUnlock()
	wd, ok := db.Workloads[workload]
	if !ok {
		return nil
	}
	bySig, ok := wd.Samples[sig]
	if !ok {
		return nil
	}
	ss, ok := bySig[scheme]
	if !ok {
		return nil
	}
	return append([]model.Sample(nil), ss...)
}

// RunCount reports how many profiled executions the workload has.
func (db *DB) RunCount(workload string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	wd, ok := db.Workloads[workload]
	if !ok {
		return 0
	}
	return wd.Runs
}

// OccurrencesPerRun estimates how many times the stage with the given
// signature executes in one workload run.
func (db *DB) OccurrencesPerRun(workload, sig string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	wd, ok := db.Workloads[workload]
	if !ok || wd.Runs == 0 {
		return 1
	}
	n := 0
	for _, ss := range wd.Samples[sig] {
		n += len(ss)
	}
	occ := n / wd.Runs
	if occ < 1 {
		occ = 1
	}
	return occ
}

// SampleCount reports the total observation count for a workload.
func (db *DB) SampleCount(workload string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	wd, ok := db.Workloads[workload]
	if !ok {
		return 0
	}
	n := 0
	for _, bySig := range wd.Samples {
		for _, ss := range bySig {
			n += len(ss)
		}
	}
	return n
}

// Generation reports a stamp that changes whenever the workload's data
// does: every AddRun on that workload and every ReplaceAll moves it, reads
// and writes to other workloads never do. It is O(1), so a reader holding a
// CloneWorkload snapshot can ask whether the snapshot is still current
// without copying anything. Stamps are process-local: they order mutations
// of one DB and mean nothing across processes or restarts.
func (db *DB) Generation(workload string) uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t := db.touched[workload]; t > db.replacedAt {
		return t
	}
	return db.replacedAt
}

// CloneWorkload returns a new DB holding an independent deep copy of one
// workload's data (empty if the workload is unknown). It holds the read
// lock only for the copy; the returned DB is private to the caller, so
// running the optimizer over it never contends with concurrent AddRun
// writers — the copy-on-read snapshot behind the recommend endpoints. The
// clone carries the source's stamp, captured under the same read-lock hold
// as the copy: clone.Generation(workload) is the generation copied.
func (db *DB) CloneWorkload(workload string) *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := NewDB()
	out.seq, out.replacedAt, out.touched[workload] = db.seq, db.replacedAt, db.touched[workload]
	wd, ok := db.Workloads[workload]
	if !ok {
		return out
	}
	out.Workloads[workload] = wd.clone()
	return out
}

// clone returns an independent deep copy of the workload data.
func (wd *WorkloadData) clone() *WorkloadData {
	c := &WorkloadData{
		Nodes:   make([]*StageNode, len(wd.Nodes)),
		Samples: make(map[string]map[string][]model.Sample, len(wd.Samples)),
		Runs:    wd.Runs,
	}
	for i, n := range wd.Nodes {
		c.Nodes[i] = n.clone()
	}
	for sig, bySig := range wd.Samples {
		m := make(map[string][]model.Sample, len(bySig))
		for scheme, ss := range bySig {
			cp := make([]model.Sample, len(ss))
			copy(cp, ss)
			m[scheme] = cp
		}
		c.Samples[sig] = m
	}
	return c
}

// marshalSnapshotWith marshals the database, first invoking capture under
// the same read-lock hold. Because AddRun runs its observer while holding
// the write lock, whatever capture records (the Store's journal position,
// say) is exactly consistent with the marshaled state: no observation can
// land between the capture and the marshal.
func (db *DB) marshalSnapshotWith(capture func()) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if capture != nil {
		capture()
	}
	data, err := json.MarshalIndent(db, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("core: marshal db: %w", err)
	}
	return data, nil
}

// LoadDB reads a database snapshot (the JSON Store.Snapshot writes).
func LoadDB(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	db := NewDB()
	if err := json.Unmarshal(data, db); err != nil {
		return nil, fmt.Errorf("core: unmarshal db: %w", err)
	}
	normalizeDB(db)
	return db, nil
}

// normalizeDB repairs the nil maps a JSON round-trip can produce. It runs
// on freshly unmarshaled DBs that no other goroutine can reach yet, so the
// accesses below are deliberately lock-free.
func normalizeDB(db *DB) {
	if db.Workloads == nil { //lint:ignore lockcontract freshly unmarshaled DB, not yet shared with any other goroutine
		db.Workloads = map[string]*WorkloadData{}
	}
	for _, wd := range db.Workloads { //lint:ignore lockcontract freshly unmarshaled DB, not yet shared with any other goroutine
		if wd.Samples == nil {
			wd.Samples = map[string]map[string][]model.Sample{}
		}
	}
}

// ReplaceAll swaps in src's entire workload map under the write lock and
// takes ownership of it — the caller must not touch src afterwards. This is
// the replica bootstrap path: the observer is deliberately not invoked (the
// records behind src are already durable in the shipped journal, so
// re-journaling them here would double them on replay). Every workload's
// Generation changes, including workloads that src no longer holds.
func (db *DB) ReplaceAll(src *DB) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.seq++
	db.replacedAt = db.seq
	//lint:ignore journalorder bootstrap swap: the records behind src are already durable in the shipped journal; re-journaling would double them on replay
	db.Workloads = src.Workloads //lint:ignore lockcontract src is exclusively owned by the caller (ownership transfer), never shared
}
