package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The machine this benchmark runs on is a few CPUs of a shared host, whose
// other tenants slow those CPUs down by up to half, in bursts of
// milliseconds whose share changes from second to second and from minute
// to minute, mostly without showing as steal. Left alone, that moves a
// run's throughput and latencies by a third between runs of the same code.
//
// So the timed phase is cut into load slices, and before the first slice
// and after each one the generator pauses the load and measures the
// machine's speed with a reference: the same closed loop, over as many
// connections, against a reference server, a child process answering
// each request with fixed standard-library work (JSON decoding and
// encoding, maps, sorting: the kind of work a request does). The reference
// is independent of the code under test, so its rate says only how fast
// the machine ran around the slice. Its requests are sized per workload
// to take about as long as the workload's: a busy host slows short
// requests, whose cost is mostly wake-ups and hand-offs between CPUs, more
// than long ones (with one size for all, the fresh workloads' throughput
// moved about 0.6 times as much as the reference's rate). End-to-end times
// are then scaled to a machine on which the reference runs at the
// workload's nominal rate: a slice's time and latencies are multiplied by
// its speed, the mean of the reference rates measured just before and
// just after it, divided by the nominal rate. Set-up times are scaled the
// same way.

// refSlice is how long one reference measurement runs.
const refSlice = 50 * time.Millisecond

// loadSlice is how long the load runs between two reference measurements.
const loadSlice = 400 * time.Millisecond

type refEntry struct {
	Name  string         `json:"name"`
	Vals  []int          `json:"vals"`
	Attrs map[string]int `json:"attrs"`
}

// refDoc is the body of every reference request.
var refDoc = func() []byte {
	es := make([]refEntry, 24)
	for i := range es {
		es[i] = refEntry{
			Name:  fmt.Sprintf("entry-%03d-%x", (i*37)%97, i*7919),
			Vals:  []int{i, i * 3, i * 7, i * 11, i * 13, 100 - i},
			Attrs: map[string]int{"a": i, "b": i * 2, fmt.Sprintf("k%d", i%5): i},
		}
	}
	data, err := json.Marshal(es)
	if err != nil {
		panic(err)
	}
	return data
}()

// refAnswer is the reference server's work for one request body.
func refAnswer(body []byte) ([]byte, error) {
	var es []refEntry
	if err := json.Unmarshal(body, &es); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(es))
	count := make(map[string]int, 2*len(es))
	for _, e := range es {
		names = append(names, e.Name)
		for k, v := range e.Attrs {
			count[k] += v
		}
		for _, v := range e.Vals {
			count[fmt.Sprint(v%17)] += v
		}
	}
	slices.Sort(names)
	return json.Marshal(map[string]any{"names": names, "count": count})
}

// serveRef is the reference server: it listens on a loopback port, prints
// the address as its first line, and answers until its standard input
// closes.
func serveRef() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println(ln.Addr())
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	return http.Serve(ln, http.HandlerFunc(refHandler))
}

// refHandler answers a reference request: refAnswer of the body, computed
// as many times as the units query parameter says.
func refHandler(w http.ResponseWriter, r *http.Request) {
	units, err := strconv.Atoi(r.URL.Query().Get("units"))
	if err != nil || units < 1 {
		http.Error(w, "bad units", http.StatusBadRequest)
		return
	}
	doc, err := io.ReadAll(r.Body)
	var body []byte
	for i := 0; i < units && err == nil; i++ {
		body, err = refAnswer(doc)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	_, _ = w.Write(body)
}

// reference is a running reference server and the client that measures
// the machine's speed with it, for one workload's request size.
type reference struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	url    string
	rate   float64 // nominal answers per second per connection
	client *http.Client
}

// startReference starts the reference server, this binary with
// -ref-server, for requests of units refAnswer calls at the nominal rate.
func startReference(units int, rate float64) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &reference{cmd: exec.Command(self, "-ref-server"), rate: rate, client: newClient(clients)}
	r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r.cmd.Stderr = os.Stderr
	if r.stdin, err = r.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := r.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := r.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference server: %w", err)
	}
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		r.stop()
		return nil, fmt.Errorf("reading the reference server's address: %w", err)
	}
	r.url = fmt.Sprintf("http://%s/?units=%d", strings.TrimSpace(addr), units)
	return r, nil
}

// stop closes the server's standard input, which ends it, and waits for
// it to exit.
func (r *reference) stop() {
	r.client.CloseIdleConnections()
	_ = r.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = r.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = r.cmd.Process.Kill()
		<-done
	}
}

// speed runs the reference closed loop for refSlice, each connection
// finishing the request it is in, and returns its rate per connection
// divided by the nominal rate.
func (r *reference) speed() (float64, error) {
	var answers atomic.Int64
	errs := make([]error, clients)
	start := time.Now()
	end := start.Add(refSlice)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(refDoc))
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("reference server answered %s", resp.Status)
					}
				}
				if err != nil {
					errs[c] = err
					return
				}
				answers.Add(1)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return float64(answers.Load()) / time.Since(start).Seconds() / float64(clients) / r.rate, nil
}

// slice is one load slice of a timed phase.
type slice struct {
	from, to time.Duration // first send to last response, since the phase's start
	good     int           // correct answers
	speed    float64       // machine speed around the slice, 1 at the nominal rate
}

// goodSlices returns the phase's load slices with the correct answers
// each completed.
func (p *phase) goodSlices() []slice {
	ss := make([]slice, len(p.res.slices))
	copy(ss, p.res.slices)
	for i, s := range p.res.samples {
		if !p.check.bad[i] {
			ss[s.slice].good++
		}
	}
	return ss
}

// scaledGoodput is the correct answers per second of the phase's scaled
// load time.
func scaledGoodput(ss []slice) float64 {
	good, secs := 0, 0.0
	for _, s := range ss {
		good += s.good
		secs += (s.to - s.from).Seconds() * s.speed
	}
	if secs == 0 {
		return 0
	}
	return float64(good) / secs
}

// scaledLatencies is every answer's scaled latency in ms, sorted.
func (p *phase) scaledLatencies() []float64 {
	out := make([]float64, len(p.res.samples))
	for i, s := range p.res.samples {
		out[i] = float64(s.lat.Nanoseconds()) / 1e6 * p.res.slices[s.slice].speed
	}
	slices.Sort(out)
	return out
}

// setup is one daemon start and warm-up.
type setup struct {
	Seconds float64 `json:"seconds"`
	Speed   float64 `json:"speed"` // machine speed around it, 1 at the nominal rate
}

// scaledSetup is the median scaled set-up time.
func scaledSetup(ss []setup) float64 {
	secs := make([]float64, len(ss))
	for i, s := range ss {
		secs[i] = s.Seconds * s.Speed
	}
	return median(secs)
}

// meanSpeed is the mean speed of the phase's slices, weighted by load
// time.
func meanSpeed(ss []slice) float64 {
	var w, t float64
	for _, s := range ss {
		d := (s.to - s.from).Seconds()
		w += d * s.speed
		t += d
	}
	if t == 0 {
		return 0
	}
	return w / t
}
