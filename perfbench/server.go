package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one ufpserve process, started with its default flags on a
// free loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	err  error         // the process's exit status, valid after done
}

// launch starts ufpserve and waits until /v1/readyz answers 200,
// returning the launch → ready time.
func launch(bin string, client *http.Client) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port))
	// The per-request log lines stay on (default flags) but go nowhere.
	cmd.Stdout, cmd.Stderr = nil, nil
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("ufpserve exited before becoming ready: %v", s.err)
		// A fine poll keeps its step small beside a ~4 ms launch.
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("ufpserve not ready after 30s")
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop shuts the server down gracefully (SIGTERM drains in-flight
// requests) and waits for the process to end, killing it after 30s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// memMiB reads one memory field of the process's /proc status, such as
// VmRSS (resident set) or VmHWM (its high-water mark), in MiB.
func (s *server) memMiB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS reads the server's resident set every interval until the
// returned stop is called. stop takes one last sample and returns them
// all, in MiB.
func (s *server) sampleRSS(every time.Duration) (stop func() ([]float64, error)) {
	quit := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var v []float64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-quit:
				done <- v
				return
			case <-t.C:
				if mib, err := s.memMiB("VmRSS"); err == nil {
					v = append(v, mib)
				}
			}
		}
	}()
	return func() ([]float64, error) {
		close(quit)
		v := <-done
		mib, err := s.memMiB("VmRSS")
		return append(v, mib), err
	}
}

// register creates one session per connection, concurrently, and
// returns their ids and the wall time until both answered.
func register(ctx context.Context, client *http.Client, base string, body []byte) ([conns]string, time.Duration, error) {
	var ids [conns]string
	errs := make(chan error, conns)
	start := time.Now()
	for c := 0; c < conns; c++ {
		go func() {
			var resp struct {
				Network struct {
					ID string `json:"id"`
				} `json:"network"`
			}
			status, raw, err := post(ctx, client, base+"/v1/networks", body, "")
			if err == nil && status != http.StatusCreated {
				err = fmt.Errorf("registering the network: HTTP %d: %.200s", status, raw)
			}
			if err == nil {
				err = json.Unmarshal(raw, &resp)
			}
			ids[c] = resp.Network.ID
			errs <- err
		}()
	}
	var first error
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return ids, time.Since(start), first
}

// post sends one JSON POST and reads the whole answer.
func post(ctx context.Context, client *http.Client, url string, body []byte, requestID string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// scrape is one /metrics exposition: series (name plus labels, as
// printed) → value.
type scrape map[string]float64

func scrapeMetrics(client *http.Client, base string) (scrape, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing /metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after − before for one series (0 when absent from both).
func delta(before, after scrape, series string) float64 { return after[series] - before[series] }
