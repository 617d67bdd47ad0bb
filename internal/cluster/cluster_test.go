package cluster

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPaperClusterShape(t *testing.T) {
	topo := PaperCluster()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(topo.Nodes) != 6 {
		t.Fatalf("paper cluster has 6 nodes, got %d", len(topo.Nodes))
	}
	w := topo.Workers()
	if len(w) != 5 {
		t.Fatalf("paper cluster has 5 workers, got %d", len(w))
	}
	if got := topo.TotalWorkerCores(); got != 3*32+2*8 {
		t.Fatalf("total worker cores = %d, want 112", got)
	}
	f := topo.Node("F")
	if f == nil || !f.IsMaster || f.SpeedGHz != 2.5 {
		t.Fatalf("node F should be the 2.5 GHz master: %+v", f)
	}
	a := topo.Node("A")
	if a.LinkGbps != 10 || a.Cores != 32 || a.SpeedGHz != 2.0 {
		t.Fatalf("node A mismatch: %+v", a)
	}
	d := topo.Node("D")
	if d.LinkGbps != 1 || d.MemGB != 48 {
		t.Fatalf("node D mismatch: %+v", d)
	}
}

func TestWorkersSortedAndStable(t *testing.T) {
	topo := PaperCluster()
	w := topo.Workers()
	for i := 1; i < len(w); i++ {
		if w[i-1].Name >= w[i].Name {
			t.Fatalf("workers not name-sorted: %s >= %s", w[i-1].Name, w[i].Name)
		}
	}
}

func TestUniformCluster(t *testing.T) {
	topo := UniformCluster(4, 8, 2.0)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(topo.Workers()) != 4 || topo.TotalWorkerCores() != 32 {
		t.Fatalf("uniform cluster wrong shape")
	}
	if topo.Node("master") == nil {
		t.Fatalf("uniform cluster missing master")
	}
}

func TestValidateCatchesBadTopologies(t *testing.T) {
	cases := []*Topology{
		{}, // no workers
		{Nodes: []*Node{{Name: "a", Cores: 0, SpeedGHz: 1}}},
		{Nodes: []*Node{{Name: "a", Cores: 1, SpeedGHz: 0}}},
		{Nodes: []*Node{{Name: "", Cores: 1, SpeedGHz: 1}}},
		{Nodes: []*Node{{Name: "a", Cores: 1, SpeedGHz: 1}, {Name: "a", Cores: 1, SpeedGHz: 1}}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNodeLookupMissing(t *testing.T) {
	if PaperCluster().Node("Z") != nil {
		t.Fatalf("lookup of missing node should return nil")
	}
}

func TestTotalWorkerSpeed(t *testing.T) {
	got := PaperCluster().TotalWorkerSpeed()
	want := 3*32*2.0 + 2*8*2.3
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalWorkerSpeed = %v, want %v", got, want)
	}
}

func TestMemPressurePenaltyShape(t *testing.T) {
	p := DefaultCostParams()
	if got := p.MemPressurePenalty(p.MemPressureBytes / 2); got != 1.0 {
		t.Fatalf("no penalty expected below threshold, got %v", got)
	}
	at1 := p.MemPressurePenalty(p.MemPressureBytes)
	if at1 != 1.0 {
		t.Fatalf("penalty at threshold should be 1, got %v", at1)
	}
	p13 := p.MemPressurePenalty(1.3 * p.MemPressureBytes)
	p16 := p.MemPressurePenalty(1.6 * p.MemPressureBytes)
	if p13 <= 1 || p16 <= p13 {
		t.Fatalf("penalty should grow with size below the cap: %v %v", p13, p16)
	}
	// Linear growth below the cap: at 1.3x threshold x=0.3.
	want13 := 1 + p.MemPressureFactor*0.3
	if math.Abs(p13-want13) > 1e-9 {
		t.Fatalf("penalty(1.3*B0) = %v, want %v", p13, want13)
	}
	// Saturation: huge partitions hit the cap instead of exploding.
	if got := p.MemPressurePenalty(100 * p.MemPressureBytes); got != p.MemPressureCap {
		t.Fatalf("penalty should cap at %v, got %v", p.MemPressureCap, got)
	}
}

func TestNetSecPerByteBottleneck(t *testing.T) {
	p := DefaultCostParams()
	fast := &Node{Name: "f", LinkGbps: 10}
	slow := &Node{Name: "s", LinkGbps: 1}
	ff := p.NetSecPerByte(fast, fast)
	fs := p.NetSecPerByte(fast, slow)
	ss := p.NetSecPerByte(slow, slow)
	if !(ff < fs) {
		t.Fatalf("fast-fast should beat fast-slow: %v vs %v", ff, fs)
	}
	if math.Abs(fs-ss) > 1e-15 {
		t.Fatalf("bottleneck link should dominate: %v vs %v", fs, ss)
	}
	// 1 GB over an effective 7 Gbps link ~ 1.14 s.
	sec := p.NetSecPerByte(fast, fast) * 1e9
	want := 8.0 / (10 * p.NetEfficiency)
	if math.Abs(sec-want) > 1e-9 {
		t.Fatalf("transfer time = %v, want %v", sec, want)
	}
}

func TestComputeSecScalesWithSpeed(t *testing.T) {
	p := DefaultCostParams()
	slow := &Node{SpeedGHz: 1.0}
	fast := &Node{SpeedGHz: 2.0}
	cs := p.ComputeSec(1e9, 1.0, slow)
	cf := p.ComputeSec(1e9, 1.0, fast)
	if math.Abs(cs-2*cf) > 1e-9 {
		t.Fatalf("2x clock should halve compute: %v vs %v", cs, cf)
	}
	if math.Abs(p.ComputeSec(1e9, 2.0, slow)-2*cs) > 1e-9 {
		t.Fatalf("cost factor should scale linearly")
	}
}

func TestDiskAndMemReadSec(t *testing.T) {
	p := DefaultCostParams()
	if got := p.DiskReadSec(p.DiskReadMBps * 1e6); math.Abs(got-1) > 1e-9 {
		t.Fatalf("DiskReadSec off: %v", got)
	}
	if got := p.DiskWriteSec(p.DiskWriteMBps * 1e6); math.Abs(got-1) > 1e-9 {
		t.Fatalf("DiskWriteSec off: %v", got)
	}
	if got := p.MemReadSec(p.MemReadGBps * 1e9); math.Abs(got-1) > 1e-9 {
		t.Fatalf("MemReadSec off: %v", got)
	}
	if p.MemReadSec(1e9) >= p.DiskReadSec(1e9) {
		t.Fatalf("cached reads must be faster than disk reads")
	}
}

// Property: memory-pressure penalty is monotonically non-decreasing in input size.
func TestQuickMemPressureMonotone(t *testing.T) {
	p := DefaultCostParams()
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		lo, hi := math.Min(a, b), math.Max(a, b)
		return p.MemPressurePenalty(lo) <= p.MemPressurePenalty(hi)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: compute time is non-negative and linear in bytes.
func TestQuickComputeLinear(t *testing.T) {
	p := DefaultCostParams()
	n := &Node{SpeedGHz: 2.0}
	f := func(gbRaw float64) bool {
		gb := math.Mod(math.Abs(gbRaw), 100)
		one := p.ComputeSec(gb*1e9, 1.0, n)
		two := p.ComputeSec(2*gb*1e9, 1.0, n)
		return one >= 0 && math.Abs(two-2*one) < 1e-9*(1+two)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCostConstantsPinned pins the cost model's constants field by field:
// every CostParams field DefaultCostParams sets, every field of every node
// of the paper topology, and the executor memory. Floats compare by their
// bits, so any change of a constant — and a field added or dropped — fails
// and names the field. Simulated times everywhere derive from these.
func TestCostConstantsPinned(t *testing.T) {
	// same reports whether got pins want: equal bits for a float, equal
	// values otherwise.
	same := func(got reflect.Value, want any) bool {
		if got.Kind() == reflect.Float64 {
			w, ok := want.(float64)
			return ok && math.Float64bits(got.Float()) == math.Float64bits(w)
		}
		return reflect.DeepEqual(got.Interface(), want)
	}
	params := map[string]any{
		"TaskFixedSec":              3.0,
		"ComputeSecPerGBPerGHz":     130.0,
		"DiskReadMBps":              180.0,
		"DiskWriteMBps":             140.0,
		"MemReadGBps":               2.0,
		"MemPressureBytes":          48e6,
		"MemPressureFactor":         2.0,
		"MemPressureCap":            1.8,
		"ShuffleBlockOverheadBytes": 96.0,
		"ShuffleEmptyBlockBytes":    8.0,
		"NetEfficiency":             0.7,
		"LocalityWaitSec":           3.0,
		"DriverDispatchSec":         0.004,
		"PacketBytes":               1500.0,
		"DiskTransactionBytes":      65536.0,
		"TaskJitterFrac":            0.12,
		"SpeculationMultiplier":     1.5,
		"SpeculationQuantile":       0.75,
	}
	p := reflect.ValueOf(DefaultCostParams())
	for i := range p.NumField() {
		name := p.Type().Field(i).Name
		want, ok := params[name]
		if !ok {
			t.Errorf("CostParams.%s = %v is not pinned", name, p.Field(i))
			continue
		}
		if !same(p.Field(i), want) {
			t.Errorf("CostParams.%s = %v, pinned %v", name, p.Field(i), want)
		}
		delete(params, name)
	}
	for name := range params {
		t.Errorf("pinned CostParams.%s is no field", name)
	}

	nodes := []map[string]any{
		{"Name": "A", "Cores": 32, "SpeedGHz": 2.0, "MemGB": 64.0, "LinkGbps": 10.0, "IsMaster": false},
		{"Name": "B", "Cores": 32, "SpeedGHz": 2.0, "MemGB": 64.0, "LinkGbps": 10.0, "IsMaster": false},
		{"Name": "C", "Cores": 32, "SpeedGHz": 2.0, "MemGB": 64.0, "LinkGbps": 10.0, "IsMaster": false},
		{"Name": "D", "Cores": 8, "SpeedGHz": 2.3, "MemGB": 48.0, "LinkGbps": 1.0, "IsMaster": false},
		{"Name": "E", "Cores": 8, "SpeedGHz": 2.3, "MemGB": 48.0, "LinkGbps": 1.0, "IsMaster": false},
		{"Name": "F", "Cores": 8, "SpeedGHz": 2.5, "MemGB": 64.0, "LinkGbps": 1.0, "IsMaster": true},
	}
	topo := PaperCluster()
	if len(topo.Nodes) != len(nodes) {
		t.Fatalf("paper topology has %d nodes, pinned %d", len(topo.Nodes), len(nodes))
	}
	for i, n := range topo.Nodes {
		v := reflect.ValueOf(*n)
		for j := range v.NumField() {
			name := v.Type().Field(j).Name
			want, ok := nodes[i][name]
			if !ok {
				t.Errorf("node %d: Node.%s = %v is not pinned", i, name, v.Field(j))
			} else if !same(v.Field(j), want) {
				t.Errorf("node %d: Node.%s = %v, pinned %v", i, name, v.Field(j), want)
			}
		}
		if v.NumField() != len(nodes[i]) {
			t.Errorf("node %d: %d fields, %d pinned", i, v.NumField(), len(nodes[i]))
		}
	}
	if math.Float64bits(ExecutorMemGB) != math.Float64bits(40) {
		t.Errorf("ExecutorMemGB = %v, pinned 40", ExecutorMemGB)
	}
}

// TotalWorkerSpeed reports the aggregate compute speed (cores x GHz) across
// workers, a rough measure of cluster throughput used in calibration.
func (t *Topology) TotalWorkerSpeed() float64 {
	sum := 0.0
	for _, n := range t.Workers() {
		sum += float64(n.Cores) * n.SpeedGHz
	}
	return sum
}
