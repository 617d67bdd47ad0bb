// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each BenchmarkFigN / BenchmarkTableN executes (or reuses) the relevant
// experiment and reports the headline quantities via b.ReportMetric; the
// full tables are emitted through b.Logf (visible with -v) and are identical
// to `go run ./cmd/experiments` output.
//
// The heavyweight experiment state is computed once and shared across
// benchmarks, so `go test -bench=.` performs two full evaluations
// (motivation sweep + trained comparison) regardless of which benchmarks
// are selected.
package chopper_test

import (
	"sync"
	"testing"

	"chopper"
	"chopper/internal/experiments"
	"chopper/internal/linalg"
	"chopper/internal/model"
	"chopper/internal/rdd"
)

var (
	motOnce sync.Once
	motVal  *experiments.Motivation
	motErr  error

	evalOnce sync.Once
	evalVal  *experiments.Evaluation
	evalErr  error

	ablOnce sync.Once
	ablVal  []experiments.Table
	ablErr  error
)

func motivation(b *testing.B) *experiments.Motivation {
	motOnce.Do(func() { motVal, motErr = experiments.RunMotivation(true, nil) })
	if motErr != nil {
		b.Fatal(motErr)
	}
	return motVal
}

func evaluation(b *testing.B) *experiments.Evaluation {
	evalOnce.Do(func() { evalVal, evalErr = experiments.RunEvaluation(true) })
	if evalErr != nil {
		b.Fatal(evalErr)
	}
	return evalVal
}

func ablations(b *testing.B) []experiments.Table {
	ablOnce.Do(func() { ablVal, ablErr = experiments.RunAblations(true) })
	if ablErr != nil {
		b.Fatal(ablErr)
	}
	return ablVal
}

func logTable(b *testing.B, t experiments.Table) {
	b.Helper()
	b.Logf("\n%s", t)
}

// BenchmarkFig2PerStageTimeVsPartitions regenerates Fig. 2: KMeans per-stage
// execution time under partition counts 100-500.
func BenchmarkFig2PerStageTimeVsPartitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := motivation(b)
		logTable(b, m.Fig2())
	}
}

// BenchmarkFig3Stage0TimeVsPartitions regenerates Fig. 3 and reports the
// worst-to-best stage-0 time ratio (the paper's ~2x at P=100).
func BenchmarkFig3Stage0TimeVsPartitions(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		m := motivation(b)
		logTable(b, m.Fig3())
		worst, best := 0.0, 1e18
		for j := range m.Partitions {
			d := m.Runs[j].Metrics().StageByID(0).Duration()
			if d > worst {
				worst = d
			}
			if d < best {
				best = d
			}
		}
		ratio = worst / best
	}
	b.ReportMetric(ratio, "worst/best")
}

// BenchmarkFig4ShuffleDataVsPartitions regenerates Fig. 4 and reports the
// shuffle growth factor between the smallest and largest partition counts.
func BenchmarkFig4ShuffleDataVsPartitions(b *testing.B) {
	var growth float64
	for i := 0; i < b.N; i++ {
		m := motivation(b)
		logTable(b, m.Fig4())
		lo, hi := m.ShuffleGrowth()
		growth = float64(hi) / float64(lo)
	}
	b.ReportMetric(growth, "growth_x")
}

// BenchmarkTable1InputSizes regenerates Table I.
func BenchmarkTable1InputSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, experiments.TableI())
	}
}

// BenchmarkFig7OverallSparkVsChopper regenerates Fig. 7 and reports the
// per-workload improvements (paper: PCA 23.6%, KMeans 35.2%, SQL 33.9%).
func BenchmarkFig7OverallSparkVsChopper(b *testing.B) {
	ev := evaluation(b)
	for i := 0; i < b.N; i++ {
		logTable(b, ev.Fig7())
	}
	b.ReportMetric(ev.PCA.Improvement(), "pca_%")
	b.ReportMetric(ev.KMeans.Improvement(), "kmeans_%")
	b.ReportMetric(ev.SQL.Improvement(), "sql_%")
}

// BenchmarkFig8KMeansStageBreakdown regenerates Fig. 8.
func BenchmarkFig8KMeansStageBreakdown(b *testing.B) {
	ev := evaluation(b)
	for i := 0; i < b.N; i++ {
		logTable(b, ev.Fig8())
	}
}

// BenchmarkTable2KMeansStage0 regenerates Table II (paper: CHOPPER 250 s vs
// Spark 372 s) and reports both measured values.
func BenchmarkTable2KMeansStage0(b *testing.B) {
	ev := evaluation(b)
	for i := 0; i < b.N; i++ {
		logTable(b, ev.TableII())
	}
	b.ReportMetric(ev.KMeans.Chopper.Metrics().StageByID(0).Duration(), "chopper_s")
	b.ReportMetric(ev.KMeans.Spark.Metrics().StageByID(0).Duration(), "spark_s")
}

// BenchmarkTable3ChosenPartitions regenerates Table III.
func BenchmarkTable3ChosenPartitions(b *testing.B) {
	ev := evaluation(b)
	for i := 0; i < b.N; i++ {
		logTable(b, ev.TableIII())
	}
}

// BenchmarkFig9SQLShufflePerStage regenerates Fig. 9.
func BenchmarkFig9SQLShufflePerStage(b *testing.B) {
	ev := evaluation(b)
	for i := 0; i < b.N; i++ {
		logTable(b, ev.Fig9())
	}
}

// BenchmarkFig10SQLStageTimes regenerates Fig. 10 and reports the join-job
// (paper stage 4) speedup under CHOPPER.
func BenchmarkFig10SQLStageTimes(b *testing.B) {
	ev := evaluation(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		t := ev.Fig10()
		logTable(b, t)
	}
	chS := ev.SQL.Chopper.Metrics().Stages()
	spS := ev.SQL.Spark.Metrics().Stages()
	chJoin := chS[len(chS)-1].End - chS[4].Start
	spJoin := spS[len(spS)-1].End - spS[4].Start
	speedup = spJoin / chJoin
	b.ReportMetric(speedup, "join_speedup_x")
}

// BenchmarkFig11CPUUtilization regenerates Fig. 11.
func BenchmarkFig11CPUUtilization(b *testing.B) {
	ev := evaluation(b)
	for i := 0; i < b.N; i++ {
		logTable(b, ev.Fig11().Table())
	}
	b.ReportMetric(ev.KMeans.Chopper.Metrics().CPUSeries(ev.KMeans.Chopper.Topology(), 20).Mean(), "kmeans_chopper_cpu_%")
	b.ReportMetric(ev.KMeans.Spark.Metrics().CPUSeries(ev.KMeans.Spark.Topology(), 20).Mean(), "kmeans_spark_cpu_%")
}

// BenchmarkFig12MemoryUtilization regenerates Fig. 12.
func BenchmarkFig12MemoryUtilization(b *testing.B) {
	ev := evaluation(b)
	for i := 0; i < b.N; i++ {
		logTable(b, ev.Fig12().Table())
	}
}

// BenchmarkFig13NetworkPackets regenerates Fig. 13.
func BenchmarkFig13NetworkPackets(b *testing.B) {
	ev := evaluation(b)
	for i := 0; i < b.N; i++ {
		logTable(b, ev.Fig13().Table())
	}
}

// BenchmarkFig14DiskTransactions regenerates Fig. 14.
func BenchmarkFig14DiskTransactions(b *testing.B) {
	ev := evaluation(b)
	for i := 0; i < b.N; i++ {
		logTable(b, ev.Fig14().Table())
	}
}

// BenchmarkAblationGlobalVsPerStage compares Algorithm 2 vs Algorithm 3.
func BenchmarkAblationGlobalVsPerStage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, ablations(b)[0])
	}
}

// BenchmarkAblationGammaSensitivity sweeps the repartition benefit factor.
func BenchmarkAblationGammaSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, ablations(b)[1])
	}
}

// BenchmarkAblationPartitionerChoice compares hash-only / range-only /
// learned per-stage partitioner selection under key skew.
func BenchmarkAblationPartitionerChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, ablations(b)[2])
	}
}

// BenchmarkAblationModelFeatures compares the paper's full model basis with
// a linear-only basis.
func BenchmarkAblationModelFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, ablations(b)[3])
	}
}

// BenchmarkAblationSpeculation contrasts speculative execution with
// CHOPPER's proactive partitioning under skew.
func BenchmarkAblationSpeculation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, ablations(b)[4])
	}
}

// BenchmarkAblationHeterogeneity compares gains on heterogeneous vs
// homogeneous clusters.
func BenchmarkAblationHeterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, ablations(b)[5])
	}
}

// BenchmarkExtensionFailureRecovery runs the fault-tolerance study (node C
// killed mid-KMeans) and reports the recovery overheads of both systems.
func BenchmarkExtensionFailureRecovery(b *testing.B) {
	var spark, chop float64
	for i := 0; i < b.N; i++ {
		results, tbl, err := experiments.RunFailureStudy(true, 5)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, tbl)
		spark, chop = results[0].OverheadPct, results[1].OverheadPct
	}
	b.ReportMetric(spark, "spark_overhead_%")
	b.ReportMetric(chop, "chopper_overhead_%")
}

// BenchmarkExtensionModelAccuracy reports the mean absolute out-of-sample
// prediction error of the fitted Eq. 1 models.
func BenchmarkExtensionModelAccuracy(b *testing.B) {
	var mae float64
	for i := 0; i < b.N; i++ {
		tbl, m, err := experiments.ModelAccuracy(true)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, tbl)
		mae = m
	}
	b.ReportMetric(mae, "mae_%")
}

// BenchmarkExtensionSensitivity re-runs the SQL comparison under perturbed
// cost constants; CHOPPER must win in every scenario.
func BenchmarkExtensionSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.SensitivityStudy(true)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, tbl)
	}
}

// ---------- micro-benchmarks of the substrate hot paths ----------

// BenchmarkEnginePipeline measures one full engine pipeline execution
// (generate -> reduceByKey -> count) end to end.
func BenchmarkEnginePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess := chopper.NewSession(chopper.WithDefaultParallelism(64))
		src := sess.Generate("bench", 0, 1e9, func(split, total int) []chopper.Row {
			var out []chopper.Row
			for j := split; j < 5000; j += total {
				out = append(out, chopper.Pair{K: j % 97, V: 1.0})
			}
			return out
		})
		if _, err := src.ReduceByKey(func(a, c any) any { return a.(float64) + c.(float64) }, 0).Count(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashPartitioner measures key routing throughput.
func BenchmarkHashPartitioner(b *testing.B) {
	p := rdd.NewHashPartitioner(300)
	for i := 0; i < b.N; i++ {
		p.PartitionFor(i)
	}
}

// BenchmarkRangePartitioner measures range lookup throughput.
func BenchmarkRangePartitioner(b *testing.B) {
	var sample []any
	for i := 0; i < 2000; i++ {
		sample = append(sample, i*7%2000)
	}
	p := rdd.NewRangePartitionerFromSample(300, sample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PartitionFor(i % 2000)
	}
}

// BenchmarkModelFit measures one per-stage model fit (Eqs. 1-2).
func BenchmarkModelFit(b *testing.B) {
	var samples []model.Sample
	for p := 100.0; p <= 1000; p += 50 {
		for _, d := range []float64{5e9, 10e9, 20e9} {
			samples = append(samples, model.Sample{
				D: d, P: p, Texe: d/1e9 + 1e4/p + 0.1*p, Sshuffle: 0.01*d + 1e4*p,
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.FitStage(samples, model.FullFeatures, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeastSquares measures the normal-equations solver.
func BenchmarkLeastSquares(b *testing.B) {
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		f := float64(i)
		x = append(x, []float64{f * f, f, 1})
		y = append(y, 3*f*f+2*f+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.LeastSquares(x, y, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}
