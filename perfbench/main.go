// Command perfbench is the repository's end-to-end serving benchmark.
// It builds nothing itself (run.sh builds ufpserve and this program from
// the checkout); it launches a real ufpserve with its default flags,
// drives it over loopback HTTP from conns closed-loop connections, checks
// every answer against an in-process reference, and prints one JSON
// result line. See README.md for the workloads and the metric map.
//
// Usage:
//
//	perfbench --server <ufpserve binary> --workload session-stream|solve-mix|mechanism-payments
//	          --seed <n> --seconds <s> --trace 0|1
//
// --trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
// adds a traced pass over exactly the same operations, the in-process
// stacked replay, and prints the per-layer metrics instead, writing the
// spans to .bench_build/trace/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// launches is how many times a run starts the server (and, for
// session-stream, registers both sessions); setup_s is their median.
const launches = 9

type options struct {
	server   string
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.server, "server", ".bench_build/ufpserve", "ufpserve binary to launch")
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed (the op stream is a pure function of it)")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds of the untraced pass")
	fs.IntVar(&trace, "trace", 0, "1 = also run the traced pass and the stacked replay, and print per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench is one generated workload.
type bench struct {
	name    string
	sess    *sessionStream    // session-stream
	jobs    [conns]*jobStream // solve-mix, mechanism-payments
	hash    string            // op-stream hash
	quality int               // per-connection quality prefix (ops)
}

func newBench(name string, seed uint64) (*bench, error) {
	b := &bench{name: name}
	switch name {
	case wlSession:
		s, err := newSessionStream(seed)
		if err != nil {
			return nil, err
		}
		b.sess, b.hash, b.quality = s, s.hash(), sessionQuality
		return b, nil
	case wlSolve:
		b.quality = solveQuality
	case wlMech:
		b.quality = mechQuality
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := range b.jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.jobs[c], errs[c] = newJobStream(name, seed, c)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	b.hash = hashJobStreams(name, b.jobs[:])
	return b, nil
}

// endToEnd lists the end-to-end metrics an untraced run reports, with
// their units.
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"ok_share", "ratio"},
	{"value_share", "ratio"},
	{"setup_s", "s"},
	{"rss_mb", "MiB"},
}

// rssEvery is how often the measured pass samples the server's resident
// set; rss_mb is the median sample. A peak is set by where the GC cycle
// stands when the largest job lands, so it jumps from run to run; the
// median tracks what the program keeps resident.
const rssEvery = 100 * time.Millisecond

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if _, err := os.Stat(o.server); err != nil {
		return fmt.Errorf("ufpserve binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	fmt.Printf("machine: nproc=%d gomaxprocs=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	genStart := time.Now()
	b, err := newBench(o.workload, o.seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %s seed=%d op-stream=%s quality prefix=%d ops per connection (generated in %.2fs)\n", b.name, o.seed, b.hash, b.quality, time.Since(genStart).Seconds())

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	// Set up launches times; the last server serves the measured pass.
	var setups []float64
	var srv *server
	var ids [conns]string
	for i := 0; i < launches; i++ {
		s, ready, err := launch(o.server, client)
		if err != nil {
			return err
		}
		setup := ready
		if b.sess != nil {
			var reg time.Duration
			if ids, reg, err = register(ctx, client, s.base, b.sess.register); err != nil {
				s.stop()
				return err
			}
			setup += reg
		}
		setups = append(setups, setup.Seconds())
		if i < launches-1 {
			s.stop()
			client.CloseIdleConnections()
		} else {
			srv = s
		}
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	fmt.Printf("setup: launch→ready%s per launch %s s\n", map[bool]string{true: "+register", false: ""}[b.sess != nil], fmtList(setups))

	stopRSS := srv.sampleRSS(rssEvery)
	p, err := runPass(ctx, "u", b, client, srv.base, ids, time.Duration(o.seconds)*time.Second, nil, nil, false)
	rss, rssErr := stopRSS()
	if err != nil {
		return err
	}
	if rssErr != nil {
		return rssErr
	}
	peak, err := srv.memMiB("VmHWM")
	if err != nil {
		return err
	}
	fmt.Printf("memory: server resident set median %.4f MiB over %d samples, peak %.4f MiB\n", median(rss), len(rss), peak)
	srv.stop()
	srv = nil
	client.CloseIdleConnections()

	ck := checkPass(b, p)
	attempted, httpFailed, mismatches := p.attempted(), failedOps(p), ck.mismatches
	report(b, p, ck)

	res := result{Correct: ck.mismatches == 0, Metrics: map[string]metric{}}
	if !o.trace {
		lat := latencies(p)
		tail, pct := tailOf(lat)
		fmt.Printf("latency: p50 %.4f ms, tail p%.3g %.4f ms over %d samples\n", median(lat), pct, tail, len(lat))
		fmt.Printf("quality: admitted value %.6g of %.6g offered over the first %d ops of each connection\n", ck.admitted, ck.offered, b.quality)
		v := map[string]float64{
			"throughput_ops_s": float64(len(lat)) / p.elapsed.Seconds(),
			"latency_p50_ms":   median(lat),
			"latency_tail_ms":  tail,
			"ok_share":         float64(attempted-httpFailed-mismatches) / float64(attempted),
			"value_share":      ck.admitted / ck.offered,
			"setup_s":          median(setups),
			"rss_mb":           median(rss),
		}
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{v[e.name], e.unit}
		}
	} else {
		tr, err := traceRun(ctx, b, o, client, p)
		if err != nil {
			return err
		}
		attempted += tr.pass.attempted()
		httpFailed += failedOps(tr.pass)
		mismatches += tr.check.mismatches
		res.Correct = mismatches == 0
		res.Metrics = tr.metrics
	}
	res.Attempted, res.Failed = attempted, httpFailed+mismatches
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("ops: attempted %d, failed %d (unserved %d, check mismatches %d)\n", res.Attempted, res.Failed, httpFailed, mismatches)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// failedOps counts operations that got no served answer (transport
// errors, 4xx/5xx including 429 sheds).
func failedOps(p *pass) int {
	n := 0
	for c := range p.recs {
		for i := range p.recs[c] {
			if !p.recs[c][i].ok() {
				n++
			}
		}
	}
	return n
}

// windowRates returns the served operations per second in each whole
// second of the pass.
func windowRates(p *pass) []float64 {
	n := int(p.elapsed / time.Second)
	if n == 0 {
		return nil
	}
	rates := make([]float64, n)
	for c := range p.recs {
		for i := range p.recs[c] {
			if r := &p.recs[c][i]; r.ok() && int(r.end/time.Second) < n {
				rates[r.end/time.Second]++
			}
		}
	}
	return rates
}

// latencies returns the served operations' round-trip times in ms.
func latencies(p *pass) []float64 {
	var out []float64
	for c := range p.recs {
		for i := range p.recs[c] {
			if r := &p.recs[c][i]; r.ok() {
				out = append(out, float64(r.latency())/float64(time.Millisecond))
			}
		}
	}
	return out
}

// report prints the pass's work counts beside the counts the reference
// predicts, flagging any that differ, and the check's verdict.
func report(b *bench, p *pass, ck *checked) {
	fmt.Printf("pass %s: %d ops in %.3fs, client cpu %.3fs, ops/s per second: %s\n", p.name, p.attempted(), p.elapsed.Seconds(), p.cpu.Seconds(), fmtList(windowRates(p)))
	for _, m := range countSeries(b) {
		got := delta(p.before, p.after, m)
		flag := ""
		if want, ok := ck.expected[m]; ok && want != got {
			flag = fmt.Sprintf("  MISMATCH: reference predicts %.0f", want)
		}
		fmt.Printf("count %-40s %10.0f%s\n", m, got, flag)
	}
	fmt.Printf("check: %d mismatches", ck.mismatches)
	for _, e := range ck.examples {
		fmt.Printf("\n  %s", e)
	}
	fmt.Println()
}

// countSeries are the exact work counts recorded for a workload.
func countSeries(b *bench) []string {
	if b.sess != nil {
		return []string{mAdmits, mRejects, mQuotes, mReleases, mRecomputed, mReused, mOracle, mRebuilds}
	}
	return []string{mCacheHits, mCacheMisses}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fmtList(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}
