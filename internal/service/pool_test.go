package service

import (
	"context"
	"testing"
)

// TestPoolStopsCountingBeforeAck pins the order inside workPool.exec: by the
// time a caller holds its job's result, the job no longer reads as in
// flight. Decrementing after the ack let a client that already had its
// response observe activeJobs == 1 (run under ci.sh's -race gate).
func TestPoolStopsCountingBeforeAck(t *testing.T) {
	p := newWorkPool(2, 4)
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		p.run()
	}()
	for i := 0; i < 1000; i++ {
		j := newJob(context.Background(), func(context.Context) (any, error) { return i, nil })
		if err := p.submit(j); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res := <-j.done; res.err != nil || res.v != i {
			t.Fatalf("job %d returned %+v", i, res)
		}
		if n := p.inflight(); n != 0 {
			t.Fatalf("job %d is back with its caller, yet %d job(s) read as in flight", i, n)
		}
	}
	p.close()
	<-ran
}
