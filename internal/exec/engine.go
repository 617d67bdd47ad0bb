// Package exec is the task execution engine: it really computes RDD
// partitions (Go closures over real rows, run on a worker-goroutine pool)
// while charging their cost to a deterministic simulated clock using the
// cluster cost model. Shuffle volumes, skew, stragglers and locality effects
// are therefore measured from genuine data, while time stays reproducible
// and laptop-fast.
//
// Execution of one wave proceeds in three passes:
//
//  1. compute pass (parallel, node-agnostic): materialize every task's rows,
//     accounting input/shuffle/cost bytes. A task allocates its rows, its
//     map-output arena and the records it hands on, whatever its pipeline
//     depth: workers reuse one pipeline scratch, one-to-one dependencies
//     skip Splits, and locality profiles are adopted read-only;
//  2. placement pass (sequential, deterministic): list-schedule tasks onto
//     executor cores in simulated time, honoring each task's preferred node
//     (resolved by the compute pass) with a bounded locality wait, then
//     derive each task's duration from the cost model on its chosen node.
//     Core availability is one contiguous array and a core is picked in
//     one scan; nothing is allocated per task;
//  3. commit pass: register shuffle outputs, cache partitions, and emit
//     metrics at the simulated timestamps.
package exec

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"chopper/internal/cluster"
	"chopper/internal/dag"
	"chopper/internal/freelist"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/shuffle"
	"chopper/internal/storage"
)

// StorageFraction is the share of executor memory available to the cache
// (spark.memory.storageFraction analogue).
const StorageFraction = 0.6

// hdfsBlockBytes is the simulated HDFS block size (128 MB).
const hdfsBlockBytes = 128 << 20

// Engine executes stages on the simulated cluster.
type Engine struct {
	Topo   *cluster.Topology
	Params cluster.CostParams
	Ctx    *rdd.Context

	Shuffle *shuffle.Manager
	Cache   *storage.MemStore
	Blocks  *storage.BlockStore
	Col     *metrics.Collector

	// CoPartitionAware enables CHOPPER's scheduling extensions: overlap of
	// independent stages in a wave (combined shuffle writes), locality-aware
	// reduce placement, and partitioner-pinned cache placement.
	CoPartitionAware bool

	// ComputeWorkers bounds the real goroutine pool (defaults to NumCPU).
	ComputeWorkers int

	// AfterStage, when non-nil, runs after each stage completes (simulated
	// time already advanced past it). Fault-injection experiments use it to
	// kill nodes at precise points of a workload.
	AfterStage func(stageID int)

	// Speculate enables speculative execution (off by default, matching
	// spark.speculation): straggling tasks get a backup attempt on a free
	// core once most of their stage has finished.
	Speculate bool

	mu         sync.Mutex
	now        float64
	srcFiles   map[int]string // source RDD id -> block-store file
	workerList []*cluster.Node
}

// Scratch shared by every engine in the process (a tuning sweep builds one
// per run), each returned emptied so it keeps nothing of a finished wave.
var (
	taskSlabs   slabPool[task]
	errSlabs    slabPool[error]
	workerAccts freelist.List[*acct]
)

// slabPool hands out slabs of T, cleared when they come back.
type slabPool[T any] struct{ list freelist.List[[]T] }

// take returns an empty slab with room for n.
func (p *slabPool[T]) take(n int) []T {
	s := p.list.Get()
	if cap(s) < n {
		s = make([]T, 0, n)
	}
	return s[:0]
}

// put clears s, the slab as its wave used it, and keeps it for the next.
func (p *slabPool[T]) put(s []T) {
	clear(s)
	p.list.Put(s[:0])
}

// New creates an engine over the given topology and cost model.
func New(topo *cluster.Topology, params cluster.CostParams, ctx *rdd.Context, col *metrics.Collector, coPartition bool) *Engine {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	workers := topo.Workers()
	names := make([]string, len(workers))
	capPerNode := map[string]int64{}
	for i, w := range workers {
		names[i] = w.Name
		capPerNode[w.Name] = int64(cluster.ExecutorMemGB * StorageFraction * 1e9)
	}
	return &Engine{
		Topo:             topo,
		Params:           params,
		Ctx:              ctx,
		Shuffle:          shuffle.NewManager(int64(params.ShuffleBlockOverheadBytes), int64(params.ShuffleEmptyBlockBytes)),
		Cache:            storage.NewMemStore(capPerNode),
		Blocks:           storage.NewBlockStore(hdfsBlockBytes, 2, names),
		Col:              col,
		CoPartitionAware: coPartition,
		ComputeWorkers:   runtime.NumCPU(),
		srcFiles:         map[int]string{},
		workerList:       workers,
	}
}

// Now reports the engine's simulated time.
func (e *Engine) Now() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// ensureSource registers a generator source with the block store so its
// splits gain HDFS-like preferred locations.
func (e *Engine) ensureSource(r *rdd.RDD) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if f, ok := e.srcFiles[r.ID]; ok {
		return f
	}
	name := fmt.Sprintf("src-%d", r.ID)
	bytes := r.SourceBytes
	if bytes <= 0 {
		bytes = 1
	}
	e.Blocks.AddFile(name, bytes)
	e.srcFiles[r.ID] = name
	return name
}

// task is one unit of execution within a wave.
type task struct {
	stage *dag.Stage
	split int
	idx   int // dispatch index within the stage

	// Filled by the compute pass.
	rows     []rdd.Row
	col      rdd.ColBlock // a result task's typed Final, as rows[0] hands it on
	part     [1]rdd.Row   // rows' backing array when it carries col
	records  int64
	srcBytes int64
	srcNodes []string
	cacheBy  []shuffle.NodeBytes // cached-input bytes by node, sorted by node
	shufBy   []shuffle.NodeBytes // shuffle-input bytes by node, sorted by node
	cost     float64             // logical byte-cost units
	pending  []pendingCache      // in pend when the stage caches one RDD, as stages mostly do
	pend     [1]pendingCache
	mapOut   shuffle.MapOutput // map output (map stages only)
	writeB   int64
	pref     int32 // index of the preferred wave worker, -1 for none (see prefer)

	// Filled by the placement pass.
	node   *cluster.Node
	start  float64
	end    float64
	result any
}

type pendingCache struct {
	key   storage.CacheKey
	bytes int64
	rows  []rdd.Row
	part  rdd.Partitioner // partitioner of the cached RDD, for pinning
}

func (t *task) inputBytes() int64 {
	return t.srcBytes + sumBytes(t.cacheBy) + sumBytes(t.shufBy)
}

// RunWave implements dag.StageRunner. CHOPPER mode overlaps the wave's
// stages on the shared core pool; vanilla mode runs them one by one.
func (e *Engine) RunWave(stages []*dag.Stage) error {
	if e.CoPartitionAware {
		_, err := e.runStages(stages, nil)
		return err
	}
	for _, st := range stages {
		if _, err := e.runStages([]*dag.Stage{st}, nil); err != nil {
			return err
		}
	}
	return nil
}

// RunResult implements dag.StageRunner.
func (e *Engine) RunResult(st *dag.Stage, fn func(split int, rows []rdd.Row) (any, error)) ([]any, error) {
	return e.runStages([]*dag.Stage{st}, fn)
}

// Materialize implements dag.StageRunner: driver-side evaluation with no
// simulated cost and no cache mutation (used for range-bounds sampling).
func (e *Engine) Materialize(r *rdd.RDD, split int) ([]rdd.Row, error) {
	var a acct
	rows, _, err := e.materialize(r, split, &a)
	return rows, err
}

// KillNode removes a worker from the cluster at the current simulated time,
// modeling a node failure (the paper's future-work scenario): the node
// receives no further tasks and every partition it cached is lost — later
// stages recompute the lost partitions from lineage, exactly like Spark.
// Shuffle outputs are unaffected across jobs because each job re-executes
// (or cache-skips) its map stages. Killing the last worker is an error.
func (e *Engine) KillNode(name string) error {
	e.mu.Lock()
	var kept []*cluster.Node
	found := false
	for _, w := range e.workerList {
		if w.Name == name {
			found = true
			continue
		}
		kept = append(kept, w)
	}
	if !found {
		e.mu.Unlock()
		return fmt.Errorf("exec: unknown worker %q", name)
	}
	if len(kept) == 0 {
		e.mu.Unlock()
		return fmt.Errorf("exec: cannot kill the last worker")
	}
	e.workerList = kept
	now := e.now
	e.mu.Unlock()

	for _, dropped := range e.Cache.DropNode(name) {
		if e.Col != nil {
			e.Col.MemDelta(now, -float64(dropped.Bytes))
		}
	}
	return nil
}

// AliveWorkers reports the names of workers still accepting tasks.
func (e *Engine) AliveWorkers() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.workerList))
	for i, w := range e.workerList {
		out[i] = w.Name
	}
	return out
}

// CachedComplete implements dag.StageRunner: true when every partition of r
// (at its current partition count) is resident in the memory store.
func (e *Engine) CachedComplete(r *rdd.RDD) bool {
	if !r.Cached {
		return false
	}
	for s := 0; s < r.NumParts; s++ {
		if _, ok := e.Cache.Peek(storage.CacheKey{RDD: r.ID, Split: s, Of: r.NumParts}); !ok {
			return false
		}
	}
	return true
}

// RetireShufflesExcept implements dag.ShuffleRetirer: the scheduler hands
// over the shuffle ids still reachable from the submitted job's lineage,
// and every other tracked shuffle — its output tables and columnar arenas
// — is released as one generation, keeping long tuning runs from
// accumulating every historical shuffle in memory.
func (e *Engine) RetireShufflesExcept(live []int) {
	e.Shuffle.RetireExcept(live)
}

// runStages executes a set of independent stages as one scheduling round.
func (e *Engine) runStages(stages []*dag.Stage, resultFn func(int, []rdd.Row) (any, error)) ([]any, error) {
	start := e.Now()
	// Nodes die only between rounds (KillNode from AfterStage), so one
	// snapshot serves both passes.
	workers := e.aliveSnapshot()

	n := 0
	for _, st := range stages {
		n += st.NumTasks()
	}
	tasks := taskSlabs.take(n) // the passes address it by index
	for _, st := range stages {
		if st.OutDep != nil {
			e.Shuffle.Register(st.OutDep.ShuffleID, st.NumTasks(), st.OutDep.Part.NumPartitions())
		}
		for split := 0; split < st.NumTasks(); split++ {
			tasks = append(tasks, task{stage: st, split: split, idx: split})
		}
	}
	defer taskSlabs.put(tasks)

	if err := e.computePass(tasks, workers); err != nil {
		return nil, err
	}
	e.placementPass(tasks, start, workers)
	end, err := e.commitPass(stages, tasks, start, resultFn)

	e.mu.Lock()
	if end > e.now {
		e.now = end
	}
	e.mu.Unlock()

	if err != nil {
		return nil, err
	}
	if e.AfterStage != nil {
		for _, st := range stages {
			e.AfterStage(st.ID)
		}
	}
	if resultFn == nil {
		return nil, nil
	}
	out := make([]any, len(tasks))
	for i := range tasks {
		out[i] = tasks[i].result
	}
	return out, nil
}

// computePass materializes every task in parallel (node-agnostic). Workers
// pull task indexes from a shared counter — no goroutine-per-task churn —
// each with its own pipeline scratch, and record errors into an
// index-addressed pooled slice. The first error in task order is returned,
// matching what a sequential loop would surface.
func (e *Engine) computePass(tasks []task, alive []*cluster.Node) error {
	n := len(tasks)
	if n == 0 {
		return nil
	}
	workers := e.ComputeWorkers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	errs := errSlabs.take(n)[:n]
	defer errSlabs.put(errs)
	var next atomic.Int64
	if workers == 1 {
		e.computeTasks(tasks, alive, errs, &next)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.computeTasks(tasks, alive, errs, &next)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// computeTasks is one compute worker: it claims task indexes from next until
// none is left, runs each on its pipeline scratch and records its error.
func (e *Engine) computeTasks(tasks []task, alive []*cluster.Node, errs []error, next *atomic.Int64) {
	a := workerAccts.Get()
	if a == nil {
		a = new(acct)
	}
	defer workerAccts.Put(a)
	for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
		errs[i] = e.computeTask(&tasks[i], alive, a)
	}
}

// computeTask materializes one task on a worker's pipeline scratch a,
// released again before it returns, and resolves the task's preferred node
// among the wave's workers.
//
// A Final with a Typed compute that nothing caches is computed as columns
// when all its rows feed are folds: a result stage's action gets the task's
// own block (SumFloat adds it in place; any other action boxes it, as the
// Final's Compute would), and a map stage whose aggregator CombinesF64
// folds the worker's block straight into its arena. Typed parents up the
// chain are pulled as columns too (see materializeTyped).
func (e *Engine) computeTask(t *task, workers []*cluster.Node, a *acct) error {
	defer release(a)
	fin, dep := t.stage.Final, t.stage.OutDep
	var typed *rdd.ColBlock
	if fin.Typed != nil && !fin.Cached {
		if dep == nil {
			typed = &t.col
		} else if dep.Agg.CombinesF64() {
			typed = &a.col
		}
	}
	var err error
	if typed != nil {
		_, err = e.materializeTyped(fin, t.split, a, typed)
		t.records = int64(typed.Len())
		if dep == nil {
			t.part[0] = rdd.ColPart(typed)
			t.rows = t.part[:]
		}
	} else {
		t.rows, _, err = e.materialize(fin, t.split, a)
		t.records = int64(len(t.rows))
	}
	if err != nil {
		return fmt.Errorf("exec: stage %d task %d: %w", t.stage.ID, t.split, err)
	}
	t.srcBytes = a.srcBytes
	t.srcNodes = a.srcNodes
	t.cacheBy = a.cacheBy
	t.shufBy = a.shufBy
	t.cost = a.cost
	t.pending = append(t.pend[:0], a.pending...)
	t.pref = e.prefer(t, workers)

	if dep != nil {
		var cols *rdd.ColBuckets
		var buckets [][]rdd.Pair
		if typed != nil {
			cols, buckets, err = rdd.PartitionTypedCol(typed, dep.Part, dep.Agg)
		} else {
			cols, buckets, err = rdd.PartitionPairsCol(t.rows, dep.Part, dep.Agg)
		}
		if err != nil {
			return fmt.Errorf("exec: stage %d shuffle write: %w", t.stage.ID, err)
		}
		// Size the buckets that hold pairs; the rest are empty blocks,
		// charged from their count alone.
		scale := e.Ctx.LogicalScale
		out := shuffle.MapOutput{Cols: cols, Boxed: buckets}
		n := len(buckets)
		if cols != nil {
			// The arena's own list: listed bucket i is at arena position i.
			n = cols.NumBuckets()
			out.NonEmpty = cols.NonEmpty()
		} else {
			for r, b := range buckets {
				if len(b) > 0 {
					out.NonEmpty = append(out.NonEmpty, int32(r))
				}
			}
		}
		if len(out.NonEmpty) > 0 { // else both stay nil: a task without rows
			out.Payloads = make([]int64, len(out.NonEmpty))
		}
		for i, r := range out.NonEmpty {
			var payload int64
			if cols != nil {
				payload = int64(cols.BlockLogicalBytes(i, scale))
			} else {
				payload = int64(rdd.LogicalPairsBytes(buckets[r], scale))
			}
			out.Payloads[i] = payload
			t.writeB += payload + e.Shuffle.BlockOverhead(payload)
		}
		t.writeB += int64(n-len(out.NonEmpty)) * e.Shuffle.BlockOverhead(0)
		t.mapOut = out
	}
	return nil
}

// placementPass assigns tasks to cores in simulated time.
func (e *Engine) placementPass(tasks []task, waveStart float64, workers []*cluster.Node) {
	cs := newCoreSet(workers, waveStart)
	peers := make([]*cluster.Node, len(workers))
	for i, w := range workers {
		peers[i] = bottleneckPeer(w, workers)
	}
	// Ties on availability are broken round-robin so equal-readiness cores
	// spread tasks across executors the way Spark's task scheduler does,
	// instead of piling every task on the first node.
	rr := 0
	for i := range tasks {
		t := &tasks[i]
		rr++
		dispatch := waveStart + float64(t.idx)*e.Params.DriverDispatchSec
		chosen := cs.earliest(cs.all, rr)
		if t.pref >= 0 { // only the top preference gets the locality wait
			if pc := cs.earliest(cs.byNode[t.pref], rr); cs.avail[pc] <= cs.avail[chosen]+e.Params.LocalityWaitSec {
				chosen = pc
			}
		}
		w := cs.node[chosen]
		t.node = workers[w]
		t.start = cs.avail[chosen]
		if dispatch > t.start {
			t.start = dispatch
		}
		t.end = t.start + e.taskDuration(t, t.node, peers[w])*e.Params.Jitter(t.stage.ID, t.split)
		cs.avail[chosen] = t.end
	}

	if e.Speculate {
		e.speculatePass(tasks, cs, workers, peers)
	}
}

// coreSet is the executor cores of one wave during list scheduling. Cores
// are interleaved across nodes (A0,B0,...,A1,B1,...) so the round-robin
// tie-break spreads simultaneous tasks over machines.
type coreSet struct {
	avail  []float64 // core → simulated time it is next free
	node   []int32   // core → index of its worker
	all    []int32   // every core
	byNode [][]int32 // worker index → its cores
}

func newCoreSet(workers []*cluster.Node, start float64) *coreSet {
	maxCores := 0
	for _, w := range workers {
		maxCores = max(maxCores, w.Cores)
	}
	cs := &coreSet{byNode: make([][]int32, len(workers))}
	for k := 0; k < maxCores; k++ {
		for i, w := range workers {
			if k < w.Cores {
				c := int32(len(cs.avail))
				cs.avail = append(cs.avail, start)
				cs.node = append(cs.node, int32(i))
				cs.all = append(cs.all, c)
				cs.byNode[i] = append(cs.byNode[i], c)
			}
		}
	}
	return cs
}

// earliest returns the core of cores that is free first; among equally
// free ones, the first in cyclic order from position rr mod len(cores).
// One scan: starting there, only a strictly earlier core displaces the one
// held.
func (cs *coreSet) earliest(cores []int32, rr int) int32 {
	start := rr % len(cores)
	best := cores[start]
	first := cs.avail[best]
	for _, c := range cores[start+1:] {
		if cs.avail[c] < first {
			best, first = c, cs.avail[c]
		}
	}
	for _, c := range cores[:start] {
		if cs.avail[c] < first {
			best, first = c, cs.avail[c]
		}
	}
	return best
}

// speculatePass models spark.speculation: for each stage with enough tasks,
// once the configured quantile of tasks has finished, stragglers running
// longer than Multiplier x the median duration get a backup attempt on the
// earliest-free core; the task finishes at the earlier attempt. Backups help
// against slow nodes and unlucky placements, not against data skew — the
// copy of a hot partition is just as large.
func (e *Engine) speculatePass(tasks []task, cs *coreSet, workers, peers []*cluster.Node) {
	byStage := map[*dag.Stage][]*task{}
	for i := range tasks {
		t := &tasks[i]
		byStage[t.stage] = append(byStage[t.stage], t)
	}
	mult := e.Params.SpeculationMultiplier
	if mult <= 1 {
		mult = 1.5
	}
	quant := e.Params.SpeculationQuantile
	if quant <= 0 || quant >= 1 {
		quant = 0.75
	}
	// Deterministic stage order.
	stages := make([]*dag.Stage, 0, len(byStage))
	for st := range byStage {
		stages = append(stages, st)
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].ID < stages[j].ID })
	for _, st := range stages {
		group := byStage[st]
		if len(group) < 8 {
			continue
		}
		durs := make([]float64, len(group))
		ends := make([]float64, len(group))
		for i, t := range group {
			durs[i] = t.end - t.start
			ends[i] = t.end
		}
		sort.Float64s(durs)
		sort.Float64s(ends)
		median := durs[len(durs)/2]
		detect := ends[int(quant*float64(len(ends)))]
		for _, t := range group {
			if t.end-t.start <= mult*median || t.end <= detect {
				continue
			}
			// Backup attempt on the earliest-free core (the first of them).
			best := cs.earliest(cs.all, 0)
			start := cs.avail[best]
			if detect > start {
				start = detect
			}
			w := cs.node[best]
			dur := e.taskDuration(t, workers[w], peers[w]) * e.Params.Jitter(t.stage.ID, t.split+1000003)
			if start+dur < t.end {
				t.end = start + dur
				t.node = workers[w]
				cs.avail[best] = t.end
			}
		}
	}
}

// prefer returns the index in workers of the node t should wait for, -1
// for none: the first live worker among pinned cache placement (CHOPPER),
// the node caching the most of the task's input, the node holding the
// most of its shuffle input (CHOPPER), and the source block locations.
// Byte ties go to the first node by name, the order both profiles keep.
func (e *Engine) prefer(t *task, workers []*cluster.Node) int32 {
	if e.CoPartitionAware {
		for _, p := range t.pending {
			if p.part != nil {
				return int32(pinNode(t.split, workers))
			}
		}
	}
	if w := heaviest(t.cacheBy, workers); w >= 0 {
		return w
	}
	if e.CoPartitionAware { // vanilla placement ignores shuffle locality
		if w := heaviest(t.shufBy, workers); w >= 0 {
			return w
		}
	}
	for _, name := range t.srcNodes {
		if w := workerIndex(workers, name); w >= 0 {
			return w
		}
	}
	return -1
}

// heaviest returns the index in workers of the live node of by holding
// the most bytes, the first by name on a tie, or -1.
func heaviest(by []shuffle.NodeBytes, workers []*cluster.Node) int32 {
	best, most := int32(-1), int64(0)
	for _, nb := range by {
		if w := workerIndex(workers, nb.Node); w >= 0 && (best < 0 || nb.Bytes > most) {
			best, most = w, nb.Bytes
		}
	}
	return best
}

// workerIndex returns the index of the named node in workers, -1 if it is
// not a live worker.
func workerIndex(workers []*cluster.Node, name string) int32 {
	for i, w := range workers {
		if w.Name == name {
			return int32(i)
		}
	}
	return -1
}

// aliveSnapshot returns the current worker list under the lock.
func (e *Engine) aliveSnapshot() []*cluster.Node {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*cluster.Node, len(e.workerList))
	copy(out, e.workerList)
	return out
}

// pinNode deterministically maps a partition id to the index of a worker,
// weighted by core count, so equal splits of co-partitioned RDDs land on
// the same machine (the paper's "partitions in the same key range on the
// same machine"). The mapping depends only on the split and the live
// workers, so runs are reproducible regardless of how many partitioner
// instances were created before.
func pinNode(split int, workers []*cluster.Node) int {
	total := 0
	for _, w := range workers {
		total += w.Cores
	}
	slot := (split * 7919) % total
	for i, w := range workers {
		if slot < w.Cores {
			return i
		}
		slot -= w.Cores
	}
	return 0
}

// taskDuration evaluates the cost model for a task on a node; peer is the
// node's bottleneck peer among the wave's workers (see bottleneckPeer).
func (e *Engine) taskDuration(t *task, node, peer *cluster.Node) float64 {
	p := e.Params
	d := p.TaskFixedSec

	if t.srcBytes > 0 {
		d += p.DiskReadSec(float64(t.srcBytes))
		if !containsStr(t.srcNodes, node.Name) {
			// Non-local HDFS read also crosses the network.
			d += float64(t.srcBytes) * p.NetSecPerByte(node, peer)
		}
	}
	// Both profiles are sorted by node name: float addition is not
	// associative, so the accumulation order is part of the timings.
	for _, nb := range t.cacheBy {
		if nb.Node == node.Name {
			d += p.MemReadSec(float64(nb.Bytes))
		} else {
			d += float64(nb.Bytes) * p.NetSecPerByte(node, e.nodeOrSelf(nb.Node, node))
		}
	}
	for _, nb := range t.shufBy {
		if nb.Node == node.Name {
			d += p.DiskReadSec(float64(nb.Bytes))
		} else {
			d += float64(nb.Bytes) * p.NetSecPerByte(node, e.nodeOrSelf(nb.Node, node))
		}
	}
	d += p.ComputeSec(t.cost, 1.0, node) * p.MemPressurePenalty(float64(t.inputBytes()))
	if t.writeB > 0 {
		d += p.DiskWriteSec(float64(t.writeB))
	}
	return d
}

func (e *Engine) nodeOrSelf(name string, fallback *cluster.Node) *cluster.Node {
	if n := e.Topo.Node(name); n != nil {
		return n
	}
	return fallback
}

// bottleneckPeer picks a representative remote peer for source reads: the
// slowest-linked other worker, a conservative stand-in for an unknown
// replica (the node itself when it is the only one).
func bottleneckPeer(node *cluster.Node, workers []*cluster.Node) *cluster.Node {
	best := node
	for _, w := range workers {
		if w.Name == node.Name {
			continue
		}
		if best == node || w.LinkGbps < best.LinkGbps {
			best = w
		}
	}
	return best
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// commitPass publishes shuffle outputs and caches, evaluates result
// closures, and emits metrics. Returns the round's end time.
func (e *Engine) commitPass(stages []*dag.Stage, tasks []task, start float64, resultFn func(int, []rdd.Row) (any, error)) (float64, error) {
	for _, st := range stages {
		if e.Col != nil {
			e.Col.BeginStage(st.ID, st.Signature, st.Name(), st.PartitionerName(), st.NumTasks(), start)
		}
	}
	end := start
	var firstErr error
	stageEnd := map[*dag.Stage]float64{}
	for i := range tasks {
		t := &tasks[i]
		if t.end > end {
			end = t.end
		}
		if t.end > stageEnd[t.stage] {
			stageEnd[t.stage] = t.end
		}
		if dep := t.stage.OutDep; dep != nil {
			e.Shuffle.PutMapOutput(dep.ShuffleID, t.split, t.node.Name, t.mapOut)
		}
		for _, pc := range t.pending {
			evicted := e.Cache.Put(pc.key, t.node.Name, pc.bytes, pc.rows)
			if e.Col != nil {
				e.Col.MemDelta(t.end, float64(pc.bytes))
				for _, ev := range evicted {
					e.Col.MemDelta(t.end, -float64(ev.Bytes))
				}
			}
		}
		var local, remote int64
		for _, nb := range t.shufBy {
			if nb.Node == t.node.Name {
				local += nb.Bytes
			} else {
				remote += nb.Bytes
			}
		}
		if resultFn != nil && firstErr == nil {
			res, err := resultFn(t.split, t.rows)
			if err != nil {
				firstErr = err
			}
			t.result = res
		}
		if e.Col != nil {
			e.Col.AddTask(metrics.TaskMetric{
				StageID: t.stage.ID, TaskID: t.split, Node: t.node.Name,
				Start: t.start, End: t.end,
				InputBytes:        t.srcBytes + sumBytes(t.cacheBy),
				ShuffleReadLocal:  local,
				ShuffleReadRemote: remote,
				ShuffleWrite:      t.writeB,
				Records:           t.records,
			}, e.Params)
		}
	}
	for _, st := range stages {
		if e.Col != nil {
			se := stageEnd[st]
			if se == 0 {
				se = start
			}
			e.Col.EndStage(st.ID, se)
		}
	}
	return end, firstErr
}

func sumBytes(by []shuffle.NodeBytes) int64 {
	var s int64
	for _, nb := range by {
		s += nb.Bytes
	}
	return s
}
