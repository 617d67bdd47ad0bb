package loads

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"chopper/bench/internal/harness"
	"chopper/bench/internal/span"
	"chopper/client"
	"chopper/internal/service"
	"chopper/internal/workloads"
)

// Daemon is one in-process chopperd on a loopback port.
type Daemon struct {
	Srv  *service.Server
	URL  string
	done chan error
}

// StartDaemon builds a server from cfg and serves it on 127.0.0.1:0.
func StartDaemon(cfg service.Config) (*Daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &Daemon{Srv: srv, URL: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ln) }()
	return d, nil
}

// Stop drains the daemon and waits until Serve has returned (final snapshot
// written, store closed).
func (d *Daemon) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("loads: shutdown %s: %w", d.URL, err)
	}
	if err := <-d.done; err != nil {
		return fmt.Errorf("loads: serve %s: %w", d.URL, err)
	}
	return nil
}

// OneConn returns a typed client that keeps exactly one keep-alive
// connection to base.
func OneConn(base string) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client.Client{Base: base, HTTP: &http.Client{Transport: tr, Timeout: time.Minute}}, tr
}

// Request is one recommend call of the replayed sequence.
type Request struct {
	Workload   string
	InputBytes int64
}

const (
	serveRequests = 500 // per round
	serveClients  = 2   // closed loop, one keep-alive connection each
)

// sizeFactors are the eight input sizes each workload is asked about, as
// multiples of its default.
var sizeFactors = []float64{0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75, 2}

// ServeSequence draws the round's request sequence from seed. The mix is
// Zipf over the four built-ins (weights 1, 1/2, 1/3, 1/4) crossed with the
// eight sizes in rotation; only the order is random, so every seed replays
// the same multiset and rounds of different seeds cost the same.
func ServeSequence(seed int64, n int) []Request {
	weights := make([]float64, len(Builtins))
	total := 0.0
	for i := range Builtins {
		weights[i] = 1 / float64(i+1)
		total += weights[i]
	}
	seq := make([]Request, 0, n)
	for i, name := range Builtins {
		count := int(float64(n)*weights[i]/total + 0.5)
		if i == len(Builtins)-1 {
			count = n - len(seq)
		}
		w, err := workloads.ByName(name)
		if err != nil {
			panic(err) // Builtins lists registered names only
		}
		for k := 0; k < count; k++ {
			f := sizeFactors[k%len(sizeFactors)]
			seq = append(seq, Request{Workload: name, InputBytes: int64(f * float64(w.DefaultInputBytes()))})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// ServeRead is the read-only serving workload: recommend over loopback
// against a daemon opened on a durable, trained store.
type ServeRead struct {
	dir  string
	base string // trained store image
	Seq  []Request
}

// NewServeRead returns the serve-read workload.
func NewServeRead() *ServeRead { return &ServeRead{} }

// Name implements harness.Workload.
func (s *ServeRead) Name() string { return "serve-read" }

// TailQ implements harness.Workload: 500 ops per round leave 25 beyond p95.
func (s *ServeRead) TailQ() float64 { return 0.95 }

// Fixture implements harness.Workload.
func (s *ServeRead) Fixture(seed int64, dir string) error {
	s.dir = dir
	s.base = filepath.Join(dir, "trained", "profiles.db")
	if err := os.MkdirAll(filepath.Dir(s.base), 0o755); err != nil {
		return err
	}
	if _, err := TrainStore(seed, s.base); err != nil {
		return err
	}
	s.Seq = ServeSequence(seed, serveRequests)
	return nil
}

// Setup implements harness.Workload: copy the store image, open a daemon
// on it, connect the clients, and record the reference body of every
// distinct request.
func (s *ServeRead) Setup() (harness.Instance, error) {
	dir, err := os.MkdirTemp(s.dir, "serve-")
	if err != nil {
		return nil, err
	}
	store := filepath.Join(dir, "profiles.db")
	if err := CopyStore(s.base, store); err != nil {
		return nil, err
	}
	d, err := StartDaemon(service.Config{StorePath: store, Workers: 2})
	if err != nil {
		return nil, err
	}
	inst := &ServeInst{D: d, dir: dir, Seq: s.Seq, First: map[Request][]byte{}}
	for c := 0; c < serveClients; c++ {
		cl, tr := OneConn(d.URL)
		inst.clients = append(inst.clients, cl)
		inst.transports = append(inst.transports, tr)
	}
	for _, rq := range s.Seq {
		if _, seen := inst.First[rq]; seen {
			continue
		}
		body, err := inst.clients[0].RecommendRaw(context.Background(), rq.Workload, rq.InputBytes)
		if err != nil {
			_ = inst.Close(&harness.Ops{}) // the request error is the one to report
			return nil, fmt.Errorf("loads: serve-read reference %s: %w", rq.Workload, err)
		}
		inst.First[rq] = body
	}
	return inst, nil
}

// ServeInst is a running serve-read set-up.
type ServeInst struct {
	D          *Daemon
	dir        string
	Seq        []Request
	First      map[Request][]byte // reference body per distinct request
	clients    []*client.Client
	transports []*http.Transport
}

// Round implements harness.Instance: client c replays requests c, c+2, ...
// of the sequence, each waiting for its reply before sending the next.
func (s *ServeInst) Round(ops *harness.Ops, tr *span.Recorder, parent int) error {
	per := make([]harness.Ops, len(s.clients))
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(s.Seq); i += len(s.clients) {
				rq := s.Seq[i]
				id := tr.Start("client.recommend", parent, int64(i))
				t0 := time.Now()
				body, err := s.clients[c].RecommendRaw(context.Background(), rq.Workload, rq.InputBytes)
				lat := time.Since(t0)
				tr.End(id)
				// A non-2xx reply arrives as err; a wrong answer as a body
				// that differs from the first one for the same request.
				want, known := s.First[rq]
				per[c].Op(lat, err == nil && known && bytes.Equal(body, want))
			}
		}(c)
	}
	wg.Wait()
	for c := range per {
		ops.Merge(&per[c])
	}
	return nil
}

// Close implements harness.Instance.
func (s *ServeInst) Close(*harness.Ops) error {
	for _, tr := range s.transports {
		tr.CloseIdleConnections()
	}
	err := s.D.Stop()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
