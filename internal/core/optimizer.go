package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"chopper/internal/config"
	"chopper/internal/model"
	"chopper/internal/rdd"
)

// Scheme is an optimizer decision for one stage.
type Scheme struct {
	Partitioner   rdd.SchemeName
	NumPartitions int
	Cost          float64
}

// StageScheme binds a decision to a stage signature.
type StageScheme struct {
	Signature string
	Scheme
	InsertRepartition bool
}

// DefaultParallelism is the vanilla configuration's spark.default.parallelism
// ("set to 300 for all the workloads" in the paper's evaluation): the
// partition count a session uses and the optimizer normalizes costs by.
const DefaultParallelism = 300

// Optimizer computes partition schemes from the workload DB — the paper's
// partition optimizer component.
type Optimizer struct {
	DB *DB

	// Alpha and Beta weight execution time versus shuffle volume in the
	// cost objective (Eq. 3); the paper defaults both to 0.5.
	Alpha, Beta float64

	// Gamma is the benefit factor required before inserting an extra
	// repartition phase for a user-fixed stage (the paper uses 1.5).
	Gamma float64

	// DefaultParallelism is the reference P used for cost normalization
	// (the vanilla configuration, DefaultParallelism).
	DefaultParallelism int

	// Candidates is the searched grid of partition counts.
	Candidates []int

	// Features selects the model basis (FullFeatures reproduces the paper).
	Features model.FeatureSet

	// Ridge is the fit regularization strength.
	Ridge float64

	// RepartitionPassFraction estimates the cost of an inserted repartition
	// phase as a fraction of the optimized stage's cost: one extra
	// read-shuffle-write pass over the data without the stage's compute.
	RepartitionPassFraction float64

	// ShuffleBytesPerSec converts shuffle volume into time for the subgraph
	// objective, so a kilobyte-scale shuffle cannot outvote minute-scale
	// compute when both are normalized (aggregate cluster bandwidth).
	ShuffleBytesPerSec float64

	// OnViolation handles configuration-verifier findings (VerifySchemes runs
	// after every optimization pass). nil is strict: any violation becomes a
	// hard error from the pass that produced it. Production drivers install a
	// handler that logs and returns nil to keep going.
	OnViolation func(workload string, vs []SchemeViolation) error
}

// defaultCandidates is the default search grid, 10..2000 in steps of 10. It
// is shared by every Optimizer and never written after init.
var defaultCandidates = func() []int {
	out := make([]int, 0, 200)
	for p := 10; p <= 2000; p += 10 {
		out = append(out, p)
	}
	return out
}()

// NewOptimizer returns an optimizer with the paper's default settings.
func NewOptimizer(db *DB) *Optimizer {
	return &Optimizer{
		DB:                      db,
		Alpha:                   0.5,
		Beta:                    0.5,
		Gamma:                   1.5,
		DefaultParallelism:      DefaultParallelism,
		Candidates:              defaultCandidates,
		Features:                model.FullFeatures,
		Ridge:                   1e-6,
		RepartitionPassFraction: 0.5,
		ShuffleBytesPerSec:      3e9,
	}
}

// pass is one optimization pass over one workload: the stage nodes and sample
// sets are read from the DB once, and each (stage, scheme, d) model is fitted
// once however many of Algorithms 1-3's steps ask for it. Every exported
// entry point starts a fresh pass, so an Optimizer holds no state between
// calls: over a live DB (Tuner) each call sees the data of its own moment,
// and concurrent calls on one Optimizer are independent.
type pass struct {
	*Optimizer
	workload string
	nodes    []*StageNode
	bySig    map[string]*StageNode
	samples  map[[2]string][]model.Sample // by (signature, scheme)
	fits     map[fitKey]fitResult
}

type fitKey struct {
	sig, scheme string
	d           float64
}

type fitResult struct {
	sm  *model.StageModels
	err error
}

func (o *Optimizer) newPass(workload string) *pass {
	p := &pass{
		Optimizer: o,
		workload:  workload,
		nodes:     o.DB.Nodes(workload),
		samples:   map[[2]string][]model.Sample{},
		fits:      map[fitKey]fitResult{},
	}
	p.bySig = make(map[string]*StageNode, len(p.nodes))
	for _, n := range p.nodes {
		p.bySig[n.Signature] = n
	}
	return p
}

// samplesFor is DB.SamplesFor, copied out of the DB once per pass.
func (p *pass) samplesFor(sig, scheme string) []model.Sample {
	k := [2]string{sig, scheme}
	ss, ok := p.samples[k]
	if !ok {
		ss = p.DB.SamplesFor(p.workload, sig, scheme)
		p.samples[k] = ss
	}
	return ss
}

// referenceFor returns the Eq. 3 normalization references of a stage: the
// predicted texe and sshuffle of the DEFAULT configuration (the default
// scheme at the default parallelism). Both partitioner candidates of
// Algorithm 1 normalize against this one reference, so their costs are
// directly comparable.
func (p *pass) referenceFor(sig string, d float64) (refT, refS float64, err error) {
	order := []string{"", "hash", "input", "range"}
	if n := p.bySig[sig]; n != nil {
		order[0] = n.DefaultScheme
	}
	var lastErr error
	for _, scheme := range order {
		if scheme == "" {
			continue
		}
		sm, err := p.fitScheme(sig, scheme, d)
		if err != nil {
			lastErr = err
			continue
		}
		dp := float64(p.DefaultParallelism)
		return sm.Texe.Predict(d, dp), sm.Shuffle.Predict(d, dp), nil
	}
	return 0, 0, lastErr
}

// fitScheme fits the (texe, sshuffle) models of one (stage, scheme) pair
// for decisions at stage input size d. Samples far from d are excluded when
// enough local ones exist: the additive basis has no D-P interaction terms,
// so mixing distant sizes distorts the partition-count profile at the
// operating point (the paper's model shares this coarseness; CHOPPER
// decides "based on the current statistics").
func (p *pass) fitScheme(sig, scheme string, d float64) (*model.StageModels, error) {
	k := fitKey{sig, scheme, d}
	if r, ok := p.fits[k]; ok {
		return r.sm, r.err
	}
	samples := p.samplesFor(sig, scheme)
	if d > 0 {
		var local []model.Sample
		for _, s := range samples {
			if s.D >= 0.55*d && s.D <= 1.8*d {
				local = append(local, s)
			}
		}
		if len(local) >= model.MinSamples {
			samples = local
		}
	}
	var r fitResult
	if len(samples) < model.MinSamples {
		r.err = fmt.Errorf("core: stage %s has %d %q samples, need %d",
			sig, len(samples), scheme, model.MinSamples)
	} else {
		r.sm, r.err = model.FitStage(samples, p.Features, p.Ridge)
	}
	p.fits[k] = r
	return r.sm, r.err
}

// stagePar implements Algorithm 1 (GetStagePar): it trains the range- and
// hash-partitioner models of a stage and returns the partitioner and count
// with the minimum predicted cost for input size d.
func (p *pass) stagePar(sig string, d float64) (Scheme, error) {
	type attempt struct {
		name rdd.SchemeName
		db   string
	}
	attempts := []attempt{
		{rdd.SchemeRange, "range"},
		{rdd.SchemeHash, "hash"},
		// Source stages record under "input"; their decision is count-only
		// and reported as hash (the scheduler ignores the scheme for
		// sources).
		{rdd.SchemeHash, "input"},
	}
	refT, refS, refErr := p.referenceFor(sig, d)
	if refErr != nil {
		return Scheme{}, fmt.Errorf("core: GetStagePar(%s): %w", sig, refErr)
	}
	best := Scheme{Cost: math.Inf(1)}
	var lastErr error
	for _, at := range attempts {
		sm, err := p.fitScheme(sig, at.db, d)
		if err != nil {
			lastErr = err
			continue
		}
		cands := p.candidatesWithin(sig, at.db)
		n, cost, err := sm.MinimizeCostWithRef(d, cands, refT, refS, p.Alpha, p.Beta)
		if err != nil {
			lastErr = err
			continue
		}
		if cost < best.Cost {
			best = Scheme{Partitioner: at.name, NumPartitions: n, Cost: cost}
		}
	}
	if best.NumPartitions == 0 {
		if lastErr == nil {
			lastErr = errors.New("no samples")
		}
		return Scheme{}, fmt.Errorf("core: GetStagePar(%s): %w", sig, lastErr)
	}
	return best, nil
}

// candidatesWithin restricts the search grid to the partition-count range
// actually observed for (sig, scheme): the cubic basis extrapolates wildly
// outside the sampled range (predictions clamp to zero and look free).
func (p *pass) candidatesWithin(sig, scheme string) []int {
	lo, hi := math.Inf(1), 0.0
	for _, s := range p.samplesFor(sig, scheme) {
		if s.P < lo {
			lo = s.P
		}
		if s.P > hi {
			hi = s.P
		}
	}
	var out []int
	if hi > 0 {
		for _, c := range p.Candidates {
			if float64(c) >= lo && float64(c) <= hi {
				out = append(out, c)
			}
		}
	}
	if len(out) == 0 {
		return p.Candidates
	}
	return out
}

// costWithScheme evaluates Eq. 3 for a stage forced to a given scheme and
// count, falling back across schemes when the requested one has no models.
// Normalization uses the stage's single default-configuration reference.
func (p *pass) costWithScheme(sig string, d float64, scheme rdd.SchemeName, n int) (float64, error) {
	refT, refS, err := p.referenceFor(sig, d)
	if err != nil {
		return 0, err
	}
	sm, _, err := p.memberModels(sig, scheme, d)
	if err != nil {
		return 0, err
	}
	return model.Cost(sm.Texe.Predict(d, float64(n)), sm.Shuffle.Predict(d, float64(n)), refT, refS, p.Alpha, p.Beta), nil
}

// stageInput projects the workload input size onto one stage.
func stageInput(n *StageNode, workloadInput float64) float64 {
	d := n.InputFraction * workloadInput
	if d <= 0 {
		d = workloadInput
	}
	return d
}

// GetWorkloadPar implements Algorithm 2: the naive per-stage optimum,
// ignoring inter-stage dependencies.
func (o *Optimizer) GetWorkloadPar(workload string, workloadInput float64) ([]StageScheme, error) {
	p := o.newPass(workload)
	if len(p.nodes) == 0 {
		return nil, fmt.Errorf("core: no DAG information for workload %q", workload)
	}
	var out []StageScheme
	for _, n := range p.nodes {
		s, err := p.stagePar(n.Signature, stageInput(n, workloadInput))
		if err != nil {
			continue // stages without enough data keep their defaults
		}
		out = append(out, StageScheme{Signature: n.Signature, Scheme: s})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no stage of %q has enough samples", workload)
	}
	if err := p.checkSchemes(out, false); err != nil {
		return nil, err
	}
	return out, nil
}

// group is a regrouped-DAG node: one stage or a join-connected subgraph.
type group struct {
	members []*StageNode
}

// regroupDAG implements the grouping step of Algorithm 3: walking from the
// end stages toward the sources, stages connected by join/cogroup
// dependencies or partition dependencies (shared cached-RDD partitioning)
// collapse into subgraphs (union-find over signatures).
func regroupDAG(nodes []*StageNode) []group {
	parent := map[string]string{}
	var find func(string) string
	find = func(s string) string {
		p, ok := parent[s]
		if !ok || p == s {
			parent[s] = s
			return s
		}
		root := find(p)
		parent[s] = root
		return root
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		if !n.IsJoinLike {
			continue
		}
		for _, ps := range n.ParentSigs {
			union(ps, n.Signature)
		}
	}
	// Partition dependencies: stages whose task counts are all determined by
	// one cached RDD's partitioning must share a scheme (the scheduler will
	// only honor the materializing stage's entry anyway).
	byPin := map[string]string{}
	for _, n := range nodes {
		if n.PinKey == "" {
			continue
		}
		if first, ok := byPin[n.PinKey]; ok {
			union(n.Signature, first)
		} else {
			byPin[n.PinKey] = n.Signature
		}
	}
	byRoot := map[string][]*StageNode{}
	var roots []string
	for _, n := range nodes {
		r := find(n.Signature)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], n)
	}
	out := make([]group, 0, len(roots))
	for _, r := range roots {
		out = append(out, group{members: byRoot[r]})
	}
	return out
}

// memberModels fits the best-available models for one subgraph member under
// a preferred scheme, with cross-scheme fallback.
// It also reports which DB scheme the fit used, so candidate clamping can
// look at the same sample set.
func (p *pass) memberModels(sig string, scheme rdd.SchemeName, d float64) (*model.StageModels, string, error) {
	order := []string{string(scheme), "hash", "range", "input"}
	var lastErr error
	for _, dbScheme := range order {
		sm, err := p.fitScheme(sig, dbScheme, d)
		if err == nil {
			return sm, dbScheme, nil
		}
		lastErr = err
	}
	return nil, "", lastErr
}

// getSubGraphPar finds the single scheme minimizing the subgraph's total
// cost (the paper's getSubGraphPar). The objective is Eq. 3 evaluated at
// group granularity: summed predicted execution time and shuffle volume
// over all members, normalized by the group's totals under the default
// configuration — so one stage's dominance is weighted by its actual
// magnitude, not flattened by per-stage normalization.
func (p *pass) getSubGraphPar(g group, workloadInput float64) (Scheme, error) {
	type member struct {
		n        *StageNode
		d        float64
		w        float64 // executions of this stage per workload run
		sm       *model.StageModels
		dbScheme string
	}
	best := Scheme{Cost: math.Inf(1)}
	for _, scheme := range []rdd.SchemeName{rdd.SchemeHash, rdd.SchemeRange} {
		var members []member
		for _, n := range g.members {
			d := stageInput(n, workloadInput)
			sm, dbScheme, err := p.memberModels(n.Signature, scheme, d)
			if err != nil {
				continue
			}
			members = append(members, member{
				n: n, d: d,
				w:        float64(p.DB.OccurrencesPerRun(p.workload, n.Signature)),
				sm:       sm,
				dbScheme: dbScheme,
			})
		}
		if len(members) == 0 {
			continue
		}
		// The group objective works in time units: shuffle bytes convert to
		// seconds so each term's weight reflects its actual magnitude.
		bw := p.ShuffleBytesPerSec
		if bw <= 0 {
			bw = 3e9
		}
		var refCost float64
		for _, m := range members {
			refCost += m.w * (p.Alpha*m.sm.Texe.Predict(m.d, float64(p.DefaultParallelism)) +
				p.Beta*m.sm.Shuffle.Predict(m.d, float64(p.DefaultParallelism))/bw)
		}
		// Intersect the candidate grid with each member's sampled range
		// (the range of the samples its model was actually fitted on).
		cands := p.Candidates
		for _, m := range members {
			cands = intersect(cands, p.candidatesWithin(m.n.Signature, m.dbScheme))
		}
		if len(cands) == 0 {
			cands = p.Candidates
		}
		for _, n := range cands {
			var total float64
			for _, m := range members {
				total += m.w * (p.Alpha*m.sm.Texe.Predict(m.d, float64(n)) +
					p.Beta*m.sm.Shuffle.Predict(m.d, float64(n))/bw)
			}
			c := total
			if refCost > 0 {
				c = total / refCost
			}
			if c < best.Cost {
				best = Scheme{Partitioner: scheme, NumPartitions: n, Cost: c}
			}
		}
	}
	if best.NumPartitions == 0 {
		return Scheme{}, fmt.Errorf("core: subgraph has no trainable member")
	}
	return best, nil
}

func intersect(a, b []int) []int {
	inB := map[int]bool{}
	for _, x := range b {
		inB[x] = true
	}
	var out []int
	for _, x := range a {
		if inB[x] {
			out = append(out, x)
		}
	}
	return out
}

// GetGlobalPar implements Algorithm 3: it regroups the DAG over join
// dependencies, computes per-node or per-subgraph schemes, and for
// user-fixed stages decides whether inserting an extra repartition phase is
// worth it (benefit factor Gamma).
func (o *Optimizer) GetGlobalPar(workload string, workloadInput float64) ([]StageScheme, error) {
	return o.newPass(workload).globalPar(workloadInput)
}

func (p *pass) globalPar(workloadInput float64) ([]StageScheme, error) {
	if len(p.nodes) == 0 {
		return nil, fmt.Errorf("core: no DAG information for workload %q", p.workload)
	}
	var out []StageScheme
	for _, g := range regroupDAG(p.nodes) {
		var sch Scheme
		var err error
		if len(g.members) == 1 {
			n := g.members[0]
			sch, err = p.stagePar(n.Signature, stageInput(n, workloadInput))
		} else {
			sch, err = p.getSubGraphPar(g, workloadInput)
		}
		if err != nil {
			continue
		}
		for _, n := range g.members {
			ss := StageScheme{Signature: n.Signature, Scheme: sch}
			if n.Fixed {
				ok, repart := p.repartitionBeneficial(n, workloadInput, sch)
				if !ok {
					continue // keep the user's partitioning untouched
				}
				ss.InsertRepartition = repart
			}
			out = append(out, ss)
		}
	}
	// An empty result is legal: every trainable stage may be user-fixed and
	// already near-optimal, in which case CHOPPER leaves the workload alone.
	sort.Slice(out, func(i, j int) bool { return out[i].Signature < out[j].Signature })
	if err := p.checkSchemes(out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// repartitionBeneficial decides whether to insert a repartition phase for a
// fixed stage: the current cost must exceed Gamma times the optimized cost
// plus the estimated cost of the extra repartition pass itself.
func (p *pass) repartitionBeneficial(n *StageNode, workloadInput float64, opt Scheme) (decided, insert bool) {
	d := stageInput(n, workloadInput)
	curScheme := rdd.SchemeName(n.DefaultScheme)
	if !rdd.ValidScheme(curScheme) {
		curScheme = rdd.SchemeHash
	}
	curP := n.DefaultP
	if curP <= 0 {
		curP = p.DefaultParallelism
	}
	curCost, err := p.costWithScheme(n.Signature, d, curScheme, curP)
	if err != nil {
		return false, false
	}
	// The inserted phase re-reads and re-shuffles the stage input without
	// the stage's compute; charge it as a fraction of the optimized cost.
	repCost := p.RepartitionPassFraction * opt.Cost
	optCost := opt.Cost + repCost
	if curCost > p.Gamma*optCost {
		return true, true
	}
	return false, false
}

// GenerateConfig runs the global optimizer and renders the workload
// configuration file the scheduler consumes (paper Fig. 6).
func (o *Optimizer) GenerateConfig(workload string, workloadInput float64) (*config.File, error) {
	schemes, err := o.GetGlobalPar(workload, workloadInput)
	if err != nil {
		return nil, err
	}
	f := &config.File{Workload: workload}
	for _, s := range schemes {
		f.Set(config.Entry{
			Signature:         s.Signature,
			Scheme:            s.Partitioner,
			NumPartitions:     s.NumPartitions,
			InsertRepartition: s.InsertRepartition,
		})
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}
