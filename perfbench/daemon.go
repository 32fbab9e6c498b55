package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running bagcd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited is closed
}

// addrSniffer is the daemon's stdout: it picks the resolved listen
// address out of the startup log line and discards everything else (the
// per-request access log, which the daemon writes by default). Only the
// exec copier goroutine calls Write.
type addrSniffer struct {
	line  []byte
	found bool
	addr  chan string
}

var listenRE = regexp.MustCompile(`listening on (\S+?)"?(\s|$)`)

func (s *addrSniffer) Write(p []byte) (int, error) {
	if s.found {
		return len(p), nil
	}
	s.line = append(s.line, p...)
	for {
		i := bytes.IndexByte(s.line, '\n')
		if i < 0 {
			break
		}
		if m := listenRE.FindSubmatch(s.line[:i]); m != nil {
			s.found = true
			s.line = nil
			s.addr <- string(m[1])
			break
		}
		s.line = s.line[i+1:]
	}
	return len(p), nil
}

// startDaemon launches bin with args plus a loopback listen address and
// returns once the daemon has printed where it listens.
func startDaemon(bin string, args []string) (*daemon, error) {
	sniff := &addrSniffer{addr: make(chan string, 1)}
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stdout = sniff
	d.cmd.Stderr = &d.stderr // read only after Wait has returned
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bagcd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-sniff.addr:
		if strings.HasPrefix(addr, "[::]") || strings.HasPrefix(addr, ":") {
			return nil, d.fail(fmt.Errorf("bagcd listens on %q, not loopback", addr))
		}
		d.base = "http://" + addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("bagcd exited before listening: %v: %s", d.err, d.stderr.String())
	case <-time.After(60 * time.Second):
		return nil, d.fail(errors.New("bagcd did not report a listen address within 60s"))
	}
}

// fail stops the daemon and returns err.
func (d *daemon) fail(err error) error {
	_, _ = d.stop()
	return err
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(client *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("bagcd exited during start-up: %v: %s", d.err, d.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return errors.New("bagcd /healthz did not answer 200 within 60s")
}

// stop drains the daemon with SIGTERM (SIGKILL after 30s), waits for it
// to exit, and returns its peak resident set in MiB.
func (d *daemon) stop() (float64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	var rssMiB float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if !d.cmd.ProcessState.Success() {
		return rssMiB, fmt.Errorf("bagcd exited with %v: %s", d.err, d.stderr.String())
	}
	return rssMiB, nil
}

// promSnapshot maps each series of one /metrics scrape, labels included
// as rendered, to its value.
type promSnapshot map[string]float64

func scrape(ctx context.Context, client *http.Client, base string) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	snap := make(promSnapshot)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap[line[:i]] = v
		}
	}
	return snap, sc.Err()
}

// sum adds every series of the metric name, across label sets.
func (p promSnapshot) sum(name string) float64 {
	total := 0.0
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// delta is after.sum(name) - p.sum(name).
func (p promSnapshot) delta(after promSnapshot, name string) float64 {
	return after.sum(name) - p.sum(name)
}
