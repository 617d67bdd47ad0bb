package workloads

import (
	"fmt"

	"chopper/internal/rdd"
)

// SQL reproduces the SparkBench SQL workload: count, aggregate and join
// over two generated tables, compute-intensive in the scan/aggregate phase
// and shuffle-intensive in the join phase (paper Section IV):
//
//	stages 0-1  orders scan, filter and per-customer aggregation
//	stages 2-3  customers scan and deduplication
//	stage 4     the join job (reported with its sub-stages, cf. Fig. 10)
//
// Order keys follow a Zipf-like distribution, so hash partitioning piles the
// head customers onto few reduce tasks — the skew CHOPPER's range scheme
// mitigates.
type SQL struct {
	Orders    int // physical order rows
	Customers int // physical customer rows
	Seed      int64
}

// NewSQL returns the paper-shaped SQL workload.
func NewSQL() *SQL {
	return &SQL{Orders: 40000, Customers: 1500, Seed: 3}
}

// Name implements Workload.
func (s *SQL) Name() string { return "sql" }

// DefaultInputBytes implements Workload (Table I: 34.5 GB).
func (s *SQL) DefaultInputBytes() int64 { return int64(34.5 * GB) }

var regions = []string{"AMER", "EMEA", "APAC", "LATAM"}

// Run implements Workload.
func (s *SQL) Run(ctx *rdd.Context, inputBytes int64) (Result, error) {
	physOrder := int64(40)
	physCust := int64(32)
	physTotal := int64(s.Orders)*physOrder + int64(s.Customers)*physCust
	if physTotal <= 0 {
		return Result{}, fmt.Errorf("sql: empty input")
	}
	setScale(ctx, inputBytes, physTotal)

	// The orders' share, inputBytes·ordersPhys/physTotal truncated, taken
	// as quotient and remainder: exact in int64 at every input size, since
	// the remainder's product stays under physTotal² (physTotal, the bytes
	// of rows held in memory, stays far below 2^31.5).
	ordersPhys := int64(s.Orders) * physOrder
	ordersBytes := inputBytes/physTotal*ordersPhys + inputBytes%physTotal*ordersPhys/physTotal
	custBytes := inputBytes - ordersBytes

	// The orders scan stays in int/float64 columns from the generator to
	// the map-side combine: no order row is boxed on the engine.
	orders := ctx.GenerateFloatPairs("ordersTable", 0, ordersBytes, func(split, total int, emit func(int, float64)) {
		strideRows(s.Orders, split, total, func(i int) {
			cust := zipfIndex(s.Seed, int64(i), s.Customers)
			amount := 10 + det01(s.Seed+5, int64(i))*990
			emit(cust, amount)
		})
	})
	customers := ctx.Generate("customersTable", 0, custBytes, func(split, total int) []rdd.Row {
		rows := strideBuf(s.Customers, split, total)
		strideRows(s.Customers, split, total, func(i int) {
			rows = append(rows, rdd.Pair{K: i, V: regions[i%len(regions)]})
		})
		return rows
	})

	// Stages 0-1: filter + aggregate revenue per customer, cache, count.
	revenue := orders.
		MapFloatPairs("filter", 0.4, func(cust int, amount float64) (int, float64, bool) { return cust, amount, amount >= 20 }).
		MapFloatPairs("projectOrder", 8.0, func(cust int, amount float64) (int, float64, bool) { return cust, amount, true }).
		SumByKey(nil).
		Cache()
	aggCount, err := revenue.Count()
	if err != nil {
		return Result{}, err
	}

	// Stages 2-3: normalize + dedup customers, cache, count.
	custTable := customers.
		MapCost("parseCustomer", 8.0, func(r rdd.Row) rdd.Row { return r }).
		ReduceByKey(func(a, b any) any { return a }, 0).
		Cache()
	custCount, err := custTable.Count()
	if err != nil {
		return Result{}, err
	}

	// Stage 4 (join job, with its shuffle-write sub-stages): revenue per
	// region via join + aggregation at the driver.
	joined := revenue.Join(custTable, nil)
	regionRows, err := joined.MapCost("regionRevenue", 1.0, func(r rdd.Row) rdd.Row {
		pr := r.(rdd.Pair)
		jv := pr.V.(rdd.JoinedValue)
		return rdd.Pair{K: jv.Right.(string), V: jv.Left.(float64)}
	}).Collect()
	if err != nil {
		return Result{}, err
	}
	byRegion := map[string]float64{}
	for _, row := range regionRows {
		pr := row.(rdd.Pair)
		byRegion[pr.K.(string)] += pr.V.(float64)
	}
	if len(byRegion) == 0 {
		return Result{}, fmt.Errorf("sql: join produced no rows")
	}

	total := 0.0
	details := map[string]float64{
		"aggCustomers": float64(aggCount),
		"custRows":     float64(custCount),
	}
	for _, r := range regions {
		details["revenue."+r] = byRegion[r]
		total += byRegion[r]
	}
	return Result{Checksum: total, Details: details}, nil
}
