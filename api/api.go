// Package api defines the wire types of chopperd, the tuning-as-a-service
// daemon: request and response bodies for every /v1 endpoint. Both the
// server (internal/service) and the typed client (client) build on these,
// so the two sides can never drift apart.
//
// Endpoint map (all JSON unless noted):
//
//	POST /v1/jobs        SubmitRequest    -> SubmitResponse
//	POST /v1/train       TrainRequest     -> TrainResponse
//	GET  /v1/recommend   query params     -> RecommendResponse
//	GET  /v1/explain     query params     -> text/plain optimizer report
//	GET  /v1/workloads                    -> WorkloadsResponse
//	GET  /healthz                         -> Health
//	GET  /metrics                         -> Prometheus text format
//	GET  /debug/pprof/*                   -> runtime profiles
//
// Primaries in a fleet (internal/fleet) additionally serve the journal-
// shipping protocol:
//
//	GET  /v1/repl/status                  -> ReplStatus
//	GET  /v1/repl/segment?epoch=&from=&max= -> raw journal bytes (octet-stream)
//	GET  /v1/repl/bootstrap               -> ReplBootstrap
package api

// MaxRequestBytes bounds every request body chopperd and the fleet router
// read: a larger one is refused with 413 before it is decoded.
const MaxRequestBytes = 1 << 20

// Bounds on what a submit or train request may ask for, checked before
// any job is queued; a request outside them is refused with 400. Neither
// may carry a negative inputBytes or shrink, and every size fraction of a
// train request's plan must be finite and in (0, 1].
const (
	// MaxPartitions bounds each partition count a train request lists;
	// the least is 1. A daemon bounds it lower where its cluster's plan
	// verifier would refuse more (100 tasks per core: 11,200 on the paper
	// cluster).
	MaxPartitions = 1 << 14
	// MaxPlanEntries bounds the length of each list in a train request's
	// plan.
	MaxPlanEntries = 32
)

// Error is the JSON error body every non-2xx /v1 response carries.
type Error struct {
	Status int    `json:"status"`
	Error  string `json:"error"`
	// RetryAfterSeconds echoes the Retry-After header on 429 responses.
	RetryAfterSeconds float64 `json:"retryAfterSeconds,omitempty"`
}

// SubmitRequest runs a named built-in workload once through a pooled
// session.
type SubmitRequest struct {
	// Workload is the built-in workload name (kmeans, pca, sql, pagerank).
	Workload string `json:"workload"`
	// InputBytes is the logical input size; 0 means the workload default.
	InputBytes int64 `json:"inputBytes,omitempty"`
	// Shrink scales the physical dataset down; 0 means the server default.
	Shrink int `json:"shrink,omitempty"`
	// Tuned runs under the CHOPPER configuration generated from the
	// profile store instead of the vanilla Spark configuration.
	Tuned bool `json:"tuned,omitempty"`
	// NoRecord skips folding the run's observed statistics back into the
	// profile store.
	NoRecord bool `json:"noRecord,omitempty"`
	// TimeoutSeconds caps queue wait + execution; 0 means the server
	// default deadline, and values above it are clamped down to it.
	TimeoutSeconds float64 `json:"timeoutSeconds,omitempty"`
}

// StageResult is one executed stage of a submitted job.
type StageResult struct {
	ID           int     `json:"id"`
	Name         string  `json:"name"`
	Signature    string  `json:"sig"`
	Partitioner  string  `json:"partitioner"`
	Tasks        int     `json:"tasks"`
	InputBytes   int64   `json:"inputBytes"`
	ShuffleRead  int64   `json:"shuffleRead"`
	ShuffleWrite int64   `json:"shuffleWrite"`
	Seconds      float64 `json:"seconds"`
}

// SchemeEntry is one stage's tuned partition scheme.
type SchemeEntry struct {
	Signature         string `json:"sig"`
	Scheme            string `json:"scheme"`
	NumPartitions     int    `json:"partitions"`
	InsertRepartition bool   `json:"insertRepartition,omitempty"`
}

// SubmitResponse reports one completed job.
type SubmitResponse struct {
	Workload   string  `json:"workload"`
	Mode       string  `json:"mode"` // "spark" or "chopper"
	InputBytes int64   `json:"inputBytes"`
	SimSeconds float64 `json:"simSeconds"`
	Checksum   float64 `json:"checksum"`
	// Schemes is the tuned configuration applied (Tuned requests only).
	Schemes []SchemeEntry `json:"schemes,omitempty"`
	Stages  []StageResult `json:"stages"`
	// Recorded reports whether the run was folded into the profile store.
	Recorded bool `json:"recorded"`
}

// TrainRequest runs incremental profiling (the paper's lightweight test
// runs) for one workload, folding every run into the profile store.
type TrainRequest struct {
	Workload   string `json:"workload"`
	InputBytes int64  `json:"inputBytes,omitempty"`
	Shrink     int    `json:"shrink,omitempty"`
	// SizeFractions, Partitions and Range override the default trial plan
	// when non-empty (smaller grids make cheaper incremental updates).
	SizeFractions []float64 `json:"sizeFractions,omitempty"`
	Partitions    []int     `json:"partitions,omitempty"`
	Range         *bool     `json:"range,omitempty"`
	// TimeoutSeconds behaves as in SubmitRequest: 0 means the server
	// default, larger values are clamped to it.
	TimeoutSeconds float64 `json:"timeoutSeconds,omitempty"`
}

// TrainResponse reports a completed training job.
type TrainResponse struct {
	Workload string `json:"workload"`
	// Runs is the number of profile runs this request executed.
	Runs int `json:"runs"`
	// TotalRuns and TotalSamples are the workload's cumulative DB state.
	TotalRuns    int `json:"totalRuns"`
	TotalSamples int `json:"totalSamples"`
}

// RecommendResponse is the read-only tuning answer for a workload at an
// input size: the partition schemes the optimizer would apply.
type RecommendResponse struct {
	Workload   string        `json:"workload"`
	InputBytes int64         `json:"inputBytes"`
	Schemes    []SchemeEntry `json:"schemes"`
	// Runs/Samples describe the profile data the answer was derived from.
	Runs    int `json:"runs"`
	Samples int `json:"samples"`
}

// WorkloadInfo describes one built-in workload and its profile state.
type WorkloadInfo struct {
	Name              string `json:"name"`
	DefaultInputBytes int64  `json:"defaultInputBytes"`
	Runs              int    `json:"runs"`
	Samples           int    `json:"samples"`
}

// WorkloadsResponse lists the available workloads.
type WorkloadsResponse struct {
	Workloads []WorkloadInfo `json:"workloads"`
}

// Health is the /healthz body.
type Health struct {
	Status        string  `json:"status"` // "ok", "syncing", or "draining"
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queueDepth"`
	// ActiveJobs counts jobs currently executing on a worker; together with
	// QueueDepth it tells a client whether submitted work has been admitted.
	ActiveJobs int  `json:"activeJobs"`
	QueueCap   int  `json:"queueCap"`
	Draining   bool `json:"draining"`
	// Store describes the durable profile store; empty when in-memory.
	StorePath      string `json:"storePath,omitempty"`
	JournalRecords int    `json:"journalRecords"`
	// Fleet fields (internal/fleet): Role is "" for a standalone daemon,
	// "primary" or "replica" for a fleet member; ShardID/ShardCount locate
	// the daemon in the hash ring. A replica additionally reports its
	// replication stream state — Status is "syncing" until the first
	// catch-up to zero lag.
	Role       string `json:"role,omitempty"`
	ShardID    int    `json:"shardId,omitempty"`
	ShardCount int    `json:"shardCount,omitempty"`
	// ReplicationEpoch/Pos/LagBytes describe the journal stream a replica
	// copies; Synced reports whether it has ever fully caught up.
	ReplicationEpoch    int64  `json:"replicationEpoch,omitempty"`
	ReplicationPos      int64  `json:"replicationPos,omitempty"`
	ReplicationLagBytes int64  `json:"replicationLagBytes,omitempty"`
	ReplicationSynced   bool   `json:"replicationSynced,omitempty"`
	ReplicationError    string `json:"replicationError,omitempty"`
}

// ReplStatus is the GET /v1/repl/status body a primary serves: the identity
// and length of its journal stream. Segment byte offsets are only meaningful
// between a primary and replica agreeing on Epoch.
type ReplStatus struct {
	Epoch       int64 `json:"epoch"`
	JournalSize int64 `json:"journalSize"`
}

// ReplBootstrap is the GET /v1/repl/bootstrap body: a consistent full image
// of a primary's durable state (snapshot + journal bytes, base64 on the
// wire) and the epoch it belongs to. A replica installs it atomically and
// resumes segment pulls at offset len(Journal).
type ReplBootstrap struct {
	Epoch    int64  `json:"epoch"`
	Snapshot []byte `json:"snapshot,omitempty"`
	Journal  []byte `json:"journal,omitempty"`
}

// BackendHealth is one fleet backend as the router sees it.
type BackendHealth struct {
	URL  string `json:"url"`
	Role string `json:"role"` // "primary" or "replica"
	// Live is transport-level reachability; Ready additionally means the
	// backend is serving reads (a replica is ready once synced).
	Live  bool `json:"live"`
	Ready bool `json:"ready"`
}

// RouterShardHealth summarizes one shard's backends.
type RouterShardHealth struct {
	Shard    int             `json:"shard"`
	Backends []BackendHealth `json:"backends"`
}

// RouterHealth is the fleet router's /healthz body. Status is "ok" while
// every shard has a live primary, "degraded" otherwise.
type RouterHealth struct {
	Status string              `json:"status"`
	Shards []RouterShardHealth `json:"shards"`
}
