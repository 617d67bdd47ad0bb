package rdd

import "fmt"

// LocalRunner is a single-threaded, in-process reference evaluator of RDD
// jobs. It implements JobRunner without a cluster, scheduler or cost model,
// and serves two purposes: unit-testing the RDD layer in isolation, and
// acting as a semantic oracle the full engine's results are checked against.
type LocalRunner struct {
	// cache memoizes every materialized partition, not just Cached RDDs:
	// RDDs are immutable and deterministic, so this changes nothing
	// semantically and keeps deep shuffle chains linear instead of
	// exponential (each reduce partition re-reads every map partition).
	cache map[[3]int][]Row
}

// NewLocalRunner returns an empty local evaluator.
func NewLocalRunner() *LocalRunner {
	return &LocalRunner{cache: map[[3]int][]Row{}}
}

// RunJob evaluates fn over every partition of target.
func (l *LocalRunner) RunJob(target *RDD, fn func(split int, rows []Row) (any, error)) ([]any, error) {
	PropagateCounts(target)
	out := make([]any, target.NumParts)
	for s := 0; s < target.NumParts; s++ {
		rows, err := l.Materialize(target, s)
		if err != nil {
			return nil, err
		}
		res, err := fn(s, rows)
		if err != nil {
			return nil, err
		}
		out[s] = res
	}
	return out, nil
}

// Materialize evaluates one partition of r recursively.
func (l *LocalRunner) Materialize(r *RDD, split int) ([]Row, error) {
	if split < 0 || split >= r.NumParts {
		return nil, fmt.Errorf("rdd: split %d out of range for %s", split, r)
	}
	// The key includes the partition count so retuned RDDs miss instead of
	// serving rows computed under a different partitioning.
	key := [3]int{r.ID, split, r.NumParts}
	if rows, ok := l.cache[key]; ok {
		return rows, nil
	}
	inputs := make([][]Row, len(r.Deps))
	for i, d := range r.Deps {
		switch dep := d.(type) {
		case *NarrowDep:
			rows, err := l.Materialize(dep.P, split)
			if err != nil {
				return nil, err
			}
			inputs[i] = rows
		case *ShuffleDep:
			rows, err := l.shuffleRead(dep, split)
			if err != nil {
				return nil, err
			}
			inputs[i] = rows
		default:
			return nil, fmt.Errorf("rdd: unknown dependency type %T", d)
		}
	}
	rows := r.Compute(split, inputs)
	l.cache[key] = rows
	return rows, nil
}

// shuffleRead evaluates the full map side of dep and merges the blocks for
// the requested reduce partition.
func (l *LocalRunner) shuffleRead(dep *ShuffleDep, reduce int) ([]Row, error) {
	blocks := make([][]Pair, 0, dep.P.NumParts)
	for m := 0; m < dep.P.NumParts; m++ {
		rows, err := l.Materialize(dep.P, m)
		if err != nil {
			return nil, err
		}
		buckets, err := partitionPairs(rows, dep.Part, dep.Agg)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, buckets[reduce])
	}
	return mergeReduceBlocks(blocks, dep.Agg), nil
}
