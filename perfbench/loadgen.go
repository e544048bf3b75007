package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// record is one executed operation of a pass.
type record struct {
	idx       int    // op or job index in the connection's stream
	kind      opKind // as executed: a release with nothing live runs as a price quote
	req       int32  // session pool index (admit, price)
	releaseID int64  // session admission id (release)
	status    int
	err       error
	start     time.Duration // since the pass started
	end       time.Duration
	reqBytes  int
	resp      []byte
}

func (r *record) ok() bool { return r.err == nil && r.status == http.StatusOK }

func (r *record) latency() time.Duration { return r.end - r.start }

// pass is one closed-loop HTTP pass over a workload.
type pass struct {
	name    string
	recs    [conns][]record
	elapsed time.Duration // first send → last answer
	before  scrape        // /metrics around the pass
	mid     scrape        // at the split point (split passes only)
	after   scrape
	cpu     time.Duration // client process CPU (user + system) during the pass
	spans   []span        // traced passes only
}

func (p *pass) attempted() int {
	n := 0
	for c := range p.recs {
		n += len(p.recs[c])
	}
	return n
}

// counts returns the per-connection op counts, which a fixed-work pass
// replays exactly.
func (p *pass) counts() [conns]int {
	var n [conns]int
	for c := range p.recs {
		n[c] = len(p.recs[c])
	}
	return n
}

// runPass drives the server from conns closed-loop connections: each
// sends its next operation only after the previous answer arrived. It
// runs for dur and at least through every connection's quality prefix,
// a job connection then on to the end of its round of the catalog, or —
// when fixed is non-nil — exactly fixed[c] operations per
// connection. With split non-nil every connection pauses before its
// split[c]-th operation until /metrics has been scraped into p.mid. A
// traced pass sends the op index as X-Request-Id and records a client
// span around every call.
func runPass(ctx context.Context, name string, b *bench, client *http.Client, base string, ids [conns]string, dur time.Duration, fixed, split *[conns]int, traced bool) (*pass, error) {
	p := &pass{name: name}
	var err error
	if p.before, err = scrapeMetrics(client, base); err != nil {
		return nil, err
	}
	var (
		arrivals sync.WaitGroup
		release  = make(chan struct{})
		midErr   error
	)
	if split != nil {
		arrivals.Add(conns)
		go func() {
			arrivals.Wait()
			p.mid, midErr = scrapeMetrics(client, base)
			close(release)
		}()
	}
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived := split == nil
			arrive := func() {
				if !arrived {
					arrived = true
					arrivals.Done()
					<-release
				}
			}
			defer arrive() // a connection with fewer ops than its split
			more := func(i int) bool {
				if split != nil && i == split[c] {
					arrive()
				}
				if fixed != nil {
					return i < fixed[c]
				}
				if i < b.quality || time.Since(start) < dur {
					return true
				}
				// A job connection finishes its round of the catalog.
				return b.sess == nil && !b.jobs[c].job(i).opensRound
			}
			if b.sess != nil {
				p.recs[c], errs[c] = sessionLoop(ctx, b.sess, c, client, base+"/v1/networks/"+ids[c], name, start, more, traced)
			} else {
				p.recs[c], errs[c] = jobLoop(ctx, b.jobs[c], c, client, base+"/v1/solve", name, start, more, traced)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	for _, err := range append(errs, midErr) {
		if err != nil {
			return nil, err
		}
	}
	if p.after, err = scrapeMetrics(client, base); err != nil {
		return nil, err
	}
	if traced {
		for c := range p.recs {
			for _, r := range p.recs[c] {
				p.spans = append(p.spans, span{
					Trace: requestID(name, c, r.idx), Name: "loadgen.http " + r.kind.String(), Layer: "loadgen",
					Start: r.start, End: r.end,
				})
			}
		}
	}
	return p, nil
}

func requestID(pass string, c, i int) string { return fmt.Sprintf("%s-%d-%d", pass, c, i) }

// sessionLoop is one online bidder: it streams its connection's ops
// against its own session, tracking its live admissions from the
// server's answers so that a release frees the oldest one.
func sessionLoop(ctx context.Context, s *sessionStream, c int, client *http.Client, url, pass string, start time.Time, more func(int) bool, traced bool) ([]record, error) {
	recs := make([]record, 0, 1<<14)
	var live []int64
	for i := 0; more(i); i++ {
		op := s.op(c, i)
		rec := record{idx: i, kind: op.executed(len(live)), req: op.req}
		var body []byte
		var path string
		switch rec.kind {
		case opAdmit:
			body, path = admitBody(s.inst.Requests[op.req]), "/admit"
		case opQuote:
			body, path = admitBody(s.inst.Requests[op.req]), "/price"
		case opRelease:
			rec.releaseID = live[0]
			body, path = releaseBody(rec.releaseID), "/release"
		}
		id := ""
		if traced {
			id = requestID(pass, c, i)
		}
		rec.reqBytes = len(body)
		rec.start = time.Since(start)
		rec.status, rec.resp, rec.err = post(ctx, client, url+path, body, id)
		rec.end = time.Since(start)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if rec.ok() {
			switch rec.kind {
			case opAdmit:
				var d struct {
					Admitted bool  `json:"admitted"`
					ID       int64 `json:"id"`
				}
				if err := json.Unmarshal(rec.resp, &d); err != nil {
					rec.err = fmt.Errorf("decoding an admit answer: %w", err)
				} else if d.Admitted {
					live = append(live, d.ID)
				}
			case opRelease:
				live = live[1:]
			}
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// jobLoop is one batch client: it posts its connection's jobs in order.
func jobLoop(ctx context.Context, s *jobStream, c int, client *http.Client, url, pass string, start time.Time, more func(int) bool, traced bool) ([]record, error) {
	recs := make([]record, 0, 1<<12)
	for j := 0; more(j); j++ {
		jb := s.job(j)
		id := ""
		if traced {
			id = requestID(pass, c, j)
		}
		rec := record{idx: j, kind: opJob, reqBytes: len(jb.body)}
		rec.start = time.Since(start)
		rec.status, rec.resp, rec.err = post(ctx, client, url, jb.body, id)
		rec.end = time.Since(start)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
