// Package cluster models the compute cluster the simulated analytics engine
// runs on: nodes with heterogeneous core counts, clock speeds, memory and
// network links, plus the cost-model parameters that translate work
// (records, bytes, shuffle blocks) into simulated seconds.
//
// The default topology, PaperCluster, reproduces the 6-node heterogeneous
// testbed from the CHOPPER paper (Section II-B): three 32-core/2.0 GHz/64 GB
// AMD nodes on 10 Gbps Ethernet, two 8-core/2.3 GHz/48 GB Intel nodes and one
// 8-core/2.5 GHz/64 GB Intel master on 1 Gbps Ethernet.
package cluster

import (
	"fmt"
	"sort"
)

// Node describes one machine in the cluster.
type Node struct {
	Name     string
	Cores    int     // physical cores available to the executor
	SpeedGHz float64 // per-core clock speed; scales compute cost
	MemGB    float64 // total machine memory
	LinkGbps float64 // network link speed to the switch
	IsMaster bool    // master nodes run the driver, not tasks
}

// ExecutorMemGB is the memory configured per executor in the paper's setup
// ("every worker node has one executor with 40 GB memory").
const ExecutorMemGB = 40.0

// Topology is a set of nodes forming a cluster.
type Topology struct {
	Nodes []*Node
}

// PaperCluster returns the exact 6-node heterogeneous topology used in the
// paper's evaluation. Nodes A-E are workers; node F is the master.
func PaperCluster() *Topology {
	return &Topology{Nodes: []*Node{
		{Name: "A", Cores: 32, SpeedGHz: 2.0, MemGB: 64, LinkGbps: 10},
		{Name: "B", Cores: 32, SpeedGHz: 2.0, MemGB: 64, LinkGbps: 10},
		{Name: "C", Cores: 32, SpeedGHz: 2.0, MemGB: 64, LinkGbps: 10},
		{Name: "D", Cores: 8, SpeedGHz: 2.3, MemGB: 48, LinkGbps: 1},
		{Name: "E", Cores: 8, SpeedGHz: 2.3, MemGB: 48, LinkGbps: 1},
		{Name: "F", Cores: 8, SpeedGHz: 2.5, MemGB: 64, LinkGbps: 1, IsMaster: true},
	}}
}

// UniformCluster returns a homogeneous cluster of n worker nodes plus one
// master, useful for tests that want predictable scheduling.
func UniformCluster(n, cores int, speedGHz float64) *Topology {
	t := &Topology{}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, &Node{
			Name:     fmt.Sprintf("w%d", i),
			Cores:    cores,
			SpeedGHz: speedGHz,
			MemGB:    64,
			LinkGbps: 10,
		})
	}
	t.Nodes = append(t.Nodes, &Node{Name: "master", Cores: cores, SpeedGHz: speedGHz, MemGB: 64, LinkGbps: 10, IsMaster: true})
	return t
}

// Workers returns the worker nodes in a stable (name-sorted) order.
func (t *Topology) Workers() []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if !n.IsMaster {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Node returns the node with the given name, or nil.
func (t *Topology) Node(name string) *Node {
	for _, n := range t.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// TotalWorkerCores reports the total task slots across worker nodes.
func (t *Topology) TotalWorkerCores() int {
	sum := 0
	for _, n := range t.Workers() {
		sum += n.Cores
	}
	return sum
}

// Validate reports an error if the topology is unusable (no workers, nodes
// without cores, duplicate names).
func (t *Topology) Validate() error {
	if len(t.Workers()) == 0 {
		return fmt.Errorf("cluster: no worker nodes")
	}
	seen := map[string]bool{}
	for _, n := range t.Nodes {
		if n.Name == "" {
			return fmt.Errorf("cluster: node with empty name")
		}
		if seen[n.Name] {
			return fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		if n.Cores <= 0 {
			return fmt.Errorf("cluster: node %q has no cores", n.Name)
		}
		if n.SpeedGHz <= 0 {
			return fmt.Errorf("cluster: node %q has non-positive speed", n.Name)
		}
	}
	return nil
}

// CostParams are the knobs of the simulated cost model. Durations are
// seconds; sizes are logical bytes (the engine scales laptop-size physical
// data up to paper-size logical data, see internal/rdd).
type CostParams struct {
	// TaskFixedSec is the fixed per-task cost (launch, deserialization,
	// JVM-era scheduling overhead). This is the force that punishes very
	// high partition counts.
	TaskFixedSec float64

	// ComputeSecPerGBPerGHz converts processed logical gigabytes into core
	// seconds for a task with cost factor 1.0 on a 1 GHz core. Individual
	// operators scale this via their cost factors.
	ComputeSecPerGBPerGHz float64

	// DiskReadMBps and DiskWriteMBps model the local disk used for input
	// blocks and shuffle files.
	DiskReadMBps  float64
	DiskWriteMBps float64

	// MemReadGBps models reading a cached (in-memory) partition.
	MemReadGBps float64

	// MemPressureBytes is the per-task input size beyond which memory
	// pressure (GC, spill) sets in; MemPressureFactor controls how fast the
	// penalty grows. Penalty multiplier = 1 + f * max(0, b/B0 - 1).
	// This is the force that punishes very low partition counts. Calibrated
	// against the paper's Fig. 3 (73 MB tasks run ~2x slower per byte than
	// 24 MB tasks).
	MemPressureBytes  float64
	MemPressureFactor float64
	// MemPressureCap bounds the penalty multiplier (a pathological partition
	// spills and thrashes, but does not take days).
	MemPressureCap float64

	// ShuffleBlockOverheadBytes is the fixed cost, in bytes, of each
	// non-empty (map task x reduce partition) shuffle block: headers, index
	// entries, compression framing; ShuffleEmptyBlockBytes is the residual
	// index cost of an empty block. Shuffle data therefore grows with the
	// partition count even at constant payload (paper Fig. 4).
	ShuffleBlockOverheadBytes float64
	ShuffleEmptyBlockBytes    float64

	// NetEfficiency discounts the nominal link bandwidth (protocol
	// overheads, incast); effective Gbps = LinkGbps * NetEfficiency.
	NetEfficiency float64

	// LocalityWaitSec is how long the scheduler is willing to delay a task
	// waiting for a slot on its preferred node (Spark's spark.locality.wait).
	LocalityWaitSec float64

	// DriverDispatchSec is the serial per-task dispatch cost at the driver;
	// large stages pay it P times.
	DriverDispatchSec float64

	// PacketBytes and DiskTransactionBytes convert byte volumes into the
	// packets/s and transactions/s units of paper Figs. 13-14.
	PacketBytes          float64
	DiskTransactionBytes float64

	// TaskJitterFrac is the +/- fractional spread of deterministic per-task
	// duration noise (JVM, GC, IO variance). Without it every task of a
	// stage runs identically long and makespan becomes a crisp sawtooth in
	// the partition count — an artifact real clusters do not show.
	TaskJitterFrac float64

	// SpeculationMultiplier and SpeculationQuantile configure speculative
	// execution when the engine enables it: once SpeculationQuantile of a
	// stage's tasks have finished, tasks running longer than Multiplier x
	// the median get a backup copy on a free core and finish at whichever
	// attempt ends first (spark.speculation semantics).
	SpeculationMultiplier float64
	SpeculationQuantile   float64
}

// DefaultCostParams returns the calibrated cost model used for the paper
// reproduction. Constants were tuned so the vanilla-Spark baselines land in
// the magnitude ranges the paper reports (e.g. KMeans stage 0 at 21.8 GB in
// the ~370 s range with 300 partitions).
func DefaultCostParams() CostParams {
	return CostParams{
		TaskFixedSec:              3.0,
		ComputeSecPerGBPerGHz:     130.0,
		DiskReadMBps:              180,
		DiskWriteMBps:             140,
		MemReadGBps:               2.0,
		MemPressureBytes:          48e6,
		MemPressureFactor:         2.0,
		MemPressureCap:            1.8,
		ShuffleBlockOverheadBytes: 96,
		ShuffleEmptyBlockBytes:    8,
		NetEfficiency:             0.7,
		LocalityWaitSec:           3.0,
		DriverDispatchSec:         0.004,
		PacketBytes:               1500,
		DiskTransactionBytes:      64 * 1024,
		TaskJitterFrac:            0.12,
		SpeculationMultiplier:     1.5,
		SpeculationQuantile:       0.75,
	}
}

// MemPressurePenalty returns the compute multiplier for a task that reads
// inputBytes of (logical) data.
func (p *CostParams) MemPressurePenalty(inputBytes float64) float64 {
	if p.MemPressureBytes <= 0 || inputBytes <= p.MemPressureBytes {
		return 1.0
	}
	x := inputBytes/p.MemPressureBytes - 1
	pen := 1 + p.MemPressureFactor*x
	if p.MemPressureCap > 0 && pen > p.MemPressureCap {
		return p.MemPressureCap
	}
	return pen
}

// NetSecPerByte returns the per-byte transfer time between two nodes: the
// bottleneck of the two links, discounted by NetEfficiency. Transfers to the
// same node are free (handled by the caller as local reads).
func (p *CostParams) NetSecPerByte(a, b *Node) float64 {
	gbps := a.LinkGbps
	if b.LinkGbps < gbps {
		gbps = b.LinkGbps
	}
	eff := gbps * p.NetEfficiency
	if eff <= 0 {
		panic("cluster: non-positive effective bandwidth")
	}
	return 8.0 / (eff * 1e9)
}

// DiskReadSec converts a read volume in bytes to seconds of disk time.
func (p *CostParams) DiskReadSec(bytes float64) float64 { return bytes / (p.DiskReadMBps * 1e6) }

// DiskWriteSec converts a write volume in bytes to seconds of disk time.
func (p *CostParams) DiskWriteSec(bytes float64) float64 { return bytes / (p.DiskWriteMBps * 1e6) }

// MemReadSec converts cached-read byte volumes to seconds.
func (p *CostParams) MemReadSec(bytes float64) float64 { return bytes / (p.MemReadGBps * 1e9) }

// ComputeSec converts processed logical bytes into seconds on the given node
// for an operator chain with the given aggregate cost factor.
func (p *CostParams) ComputeSec(bytes, costFactor float64, n *Node) float64 {
	return bytes / 1e9 * p.ComputeSecPerGBPerGHz * costFactor / n.SpeedGHz
}

// Jitter returns the deterministic duration multiplier for task (stage,
// split): uniform in [1-TaskJitterFrac, 1+TaskJitterFrac].
func (p *CostParams) Jitter(stageID, split int) float64 {
	if p.TaskJitterFrac <= 0 {
		return 1
	}
	x := uint64(stageID)*0x9e3779b97f4a7c15 + uint64(split)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	u := float64(x>>11) / float64(1<<53)
	return 1 - p.TaskJitterFrac + 2*p.TaskJitterFrac*u
}
