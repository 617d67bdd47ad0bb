package rdd

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoRunner is returned when an action runs before a scheduler is attached.
var ErrNoRunner = errors.New("rdd: context has no job runner attached")

// runJob runs fn over every partition of r as rows: a partition the
// runner produced as columns (see ColPart) is boxed first, into exactly
// the rows r's Compute returns.
func (r *RDD) runJob(fn func(split int, rows []Row) (any, error)) ([]any, error) {
	return r.runParts(func(split int, rows []Row) (any, error) {
		if blk := partCols(rows); blk != nil {
			rows = blk.Rows()
		}
		return fn(split, rows)
	})
}

// runParts runs fn over every partition of r in whichever form the runner
// produced it: rows, or one ColPart row holding the columns of r's Typed
// compute.
func (r *RDD) runParts(fn func(split int, rows []Row) (any, error)) ([]any, error) {
	if r.Ctx.runner == nil {
		return nil, ErrNoRunner
	}
	return r.Ctx.runner.RunJob(r, fn)
}

// Collect materializes every partition at the driver, in partition order.
func (r *RDD) Collect() ([]Row, error) {
	parts, err := r.runJob(func(_ int, rows []Row) (any, error) {
		out := make([]Row, len(rows))
		copy(out, rows)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var all []Row
	for _, p := range parts {
		all = append(all, p.([]Row)...)
	}
	return all, nil
}

// Count returns the number of rows.
func (r *RDD) Count() (int64, error) {
	parts, err := r.runJob(func(_ int, rows []Row) (any, error) {
		return int64(len(rows)), nil
	})
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range parts {
		n += p.(int64)
	}
	return n, nil
}

// CollectPairsMap collects a pair RDD into a key-value map at the driver.
// Duplicate keys keep the last value in partition order.
func (r *RDD) CollectPairsMap() (map[any]any, error) {
	rows, err := r.Collect()
	if err != nil {
		return nil, err
	}
	m := make(map[any]any, len(rows))
	for _, row := range rows {
		p, ok := row.(Pair)
		if !ok {
			return nil, fmt.Errorf("rdd: CollectPairsMap on non-pair row %T", row)
		}
		m[p.K] = p.V
	}
	return m, nil
}

// SumFloat sums an RDD of float64 rows. A partition produced as a ColF64
// column (MapFloat) is added in place, in row order, without boxing.
func (r *RDD) SumFloat() (float64, error) {
	parts, err := r.runParts(func(_ int, rows []Row) (any, error) {
		s := 0.0
		if blk := partCols(rows); blk != nil {
			if blk.Kind == ColF64 {
				for _, v := range blk.F64 {
					s += v
				}
				return s, nil
			}
			rows = blk.Rows()
		}
		for _, row := range rows {
			s += row.(float64)
		}
		return s, nil
	})
	if err != nil {
		return 0, err
	}
	s := 0.0
	for _, p := range parts {
		s += p.(float64)
	}
	return s, nil
}

// TopByKey returns the n pairs with the largest keys, in descending key
// order (CompareKeys); pairs with equal keys keep partition order. Rows must
// be pairs with comparable keys.
func (r *RDD) TopByKey(n int) ([]Pair, error) {
	if n <= 0 {
		return nil, nil
	}
	parts, err := r.runJob(func(_ int, rows []Row) (any, error) {
		local := make([]Pair, 0, len(rows))
		for _, row := range rows {
			local = append(local, row.(Pair))
		}
		sort.Slice(local, func(i, j int) bool { return CompareKeys(local[i].K, local[j].K) > 0 })
		if len(local) > n {
			local = local[:n]
		}
		return local, nil
	})
	if err != nil {
		return nil, err
	}
	var all []Pair
	for _, raw := range parts {
		all = append(all, raw.([]Pair)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return CompareKeys(all[i].K, all[j].K) > 0 })
	if len(all) > n {
		all = all[:n]
	}
	return all, nil
}
