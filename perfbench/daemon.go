package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one buscond process under test.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed when stdout reaches EOF
	stderr  *lockedBuffer
}

// lockedBuffer collects a child's stderr for error reports.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf.Len() < 1<<16 {
		l.buf.Write(p)
	}
	return len(p), nil
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// launchDaemon starts buscond on a free loopback port and returns once
// /healthz answers 200, with the time that took — the daemon's set-up
// time as a client sees it. Access logging is off: the benchmark
// measures serving, not log writing.
func launchDaemon(bin string, hc *http.Client) (*daemon, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-access-log", "off")
	d := &daemon{cmd: cmd, drained: make(chan struct{}), stderr: &lockedBuffer{}}
	cmd.Stderr = d.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting buscond: %w", err)
	}
	lines := bufio.NewReader(out)
	line, err := lines.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, lines)
		close(d.drained)
	}()
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("buscond printed no listen line: %v\n%s", err, d.stderr)
	}
	_, rest, ok := strings.Cut(line, "listening on ")
	if !ok {
		d.stop()
		return nil, 0, fmt.Errorf("unexpected buscond banner %q", line)
	}
	d.url = strings.Fields(rest)[0]
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("buscond /healthz did not answer 200 within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (buscond drains and exits 0), kills the process if
// it has not exited after 30s, and waits for it.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("buscond exit: %w\n%s", err, d.stderr)
	}
	return nil
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// histSnap is the part of a /metrics histogram the benchmark reads:
// exact sums and counts, never the log2 quantile estimates.
type histSnap struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

type metricsDoc struct {
	Counters   map[string]int64    `json:"counters"`
	Histograms map[string]histSnap `json:"histograms"`
}

func scrape(hc *http.Client, url string) (metricsDoc, error) {
	var doc metricsDoc
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// counter is a counter's change since the before scrape.
func (after metricsDoc) counter(before metricsDoc, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}

// hist is a histogram's sum and count change since the before scrape.
func (after metricsDoc) hist(before metricsDoc, name string) (sum, count float64) {
	a, b := after.Histograms[name], before.Histograms[name]
	return float64(a.Sum - b.Sum), float64(a.Count - b.Count)
}
