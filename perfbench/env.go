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
	"strings"
	"sync"
	"time"

	"hbcache/internal/cluster"
	"hbcache/internal/runner"
	"hbcache/internal/service"
	"hbcache/internal/sim"
)

// node is one in-process server wired the way hbserved wires one: a
// runner, the service over it, and an HTTP listener on loopback.
type node struct {
	run  *runner.Runner
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan error
}

func startNode(r *runner.Runner, opts service.Options) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if opts.QueueSize == 0 {
		opts.QueueSize = 64 // hbserved's -queue default
	}
	if opts.RetryAfter == 0 {
		opts.RetryAfter = time.Second // hbserved's -retry-after default
	}
	svc := service.New(r, opts)
	n := &node{run: r, svc: svc, srv: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

// close drains the service, stops the listener and waits for it.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.svc.Shutdown(ctx) // a drain that times out still closes below
	_ = n.srv.Shutdown(ctx)
	<-n.done
}

// startSingle starts the jobs workload's server: hbserved's single role
// with default flags (one simulation per CPU, batch 1, no store).
func startSingle(t *tracer) (*node, error) {
	r, err := runner.New(runner.Options{Sim: tracedSim(t, "sim.run", "node", directSim)})
	if err != nil {
		return nil, err
	}
	return startNode(r, service.Options{})
}

// fleet is the cluster probe's servers: a coordinator node whose
// runner simulates through Coordinator.Run over an in-memory store, and
// worker nodes with one simulation each whose runners share that store
// over HTTP, registered with heartbeat leases as hbserved -register does.
type fleet struct {
	coord   *cluster.Coordinator
	head    *node
	workers []*node
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

const fleetWorkers = 2

// streams is how many simulations a workload runs at once. Two
// simulations in parallel on the two-vCPU host this benchmark was sized
// on took one or two times as long as one, as the host allowed, which
// spread the two-stream workloads' figures by 10-26% between runs; one
// stream spread them by 5-8%.
const streams = 1

func startFleet(ctx context.Context, t *tracer, hc *http.Client) (*fleet, error) {
	coord, err := cluster.New(cluster.Options{})
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord}
	dispatch := coord.Run
	if t != nil {
		dispatch = tracedSim(t, "cluster.dispatch", "coordinator", coord.Run)
	}
	// hbserved -role coordinator -j 1: one point in flight at a time.
	r, err := runner.New(runner.Options{Workers: streams, Store: runner.NewMemStore(), Sim: dispatch})
	if err != nil {
		f.close()
		return nil, err
	}
	f.head, err = startNode(r, service.Options{
		Concurrency: streams,
		Membership:  coord,
		ClusterStatus: func(context.Context) *service.ClusterStatus {
			fs := coord.FleetStats()
			return &service.ClusterStatus{Live: fs.Live, Registered: fs.Registered, Reachable: fs.Live,
				Total: fs.Total, MinWorkers: fleetWorkers, LeaseExpiries: fs.LeaseExpiries}
		},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < fleetWorkers; i++ {
		where := fmt.Sprintf("worker-%d", i)
		store := traceStore(t, runner.NewRemoteStore(f.head.url, nil, nil), where)
		wr, err := runner.New(runner.Options{Workers: 1, Store: store, Sim: tracedSim(t, "sim.run", where, directSim)})
		if err != nil {
			f.close()
			return nil, err
		}
		w, err := startNode(wr, service.Options{TraceFetchURL: f.head.url})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	cl := cluster.NewClient(f.head.url, hc)
	var ttl time.Duration
	for _, w := range f.workers {
		if ttl, err = cl.RegisterWorker(ctx, w.url); err != nil {
			f.close()
			return nil, fmt.Errorf("registering worker: %w", err)
		}
	}
	hctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.heartbeat(hctx, cl, max(ttl/3, 100*time.Millisecond))
	}()
	return f, nil
}

// heartbeat renews every worker's lease until ctx ends.
func (f *fleet) heartbeat(ctx context.Context, cl *cluster.Client, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for _, w := range f.workers {
				if err := cl.HeartbeatWorker(ctx, w.url); err != nil && ctx.Err() == nil {
					_, _ = cl.RegisterWorker(ctx, w.url) // lease lost: rejoin, as hbserved does
				}
			}
		}
	}
}

func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
		f.wg.Wait()
	}
	if f.head != nil {
		f.head.close()
	}
	for _, w := range f.workers {
		w.close()
	}
	f.coord.Close()
}

// client is the benchmark's HTTP client. It does not retry refusals:
// a 429 or 503 is counted, not hidden.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errRefused marks a submission the service refused with 429 or 503.
var errRefused = errors.New("refused")

func (c *client) do(ctx context.Context, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s %s: HTTP %d", errRefused, method, url, resp.StatusCode)
	case resp.StatusCode/100 != 2:
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// waitReady polls /readyz until it answers 200.
func (c *client) waitReady(ctx context.Context, base string) error {
	for {
		err := c.do(ctx, http.MethodGet, base+"/readyz", nil, nil)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s to be ready: %w (last: %v)", base, ctx.Err(), err)
		case <-time.After(time.Millisecond):
		}
	}
}

func (c *client) submitJob(ctx context.Context, base string, cfg sim.Config) (service.JobView, error) {
	var resp struct {
		Job service.JobView `json:"job"`
	}
	err := c.do(ctx, http.MethodPost, base+"/v1/jobs", map[string]any{"config": cfg}, &resp)
	return resp.Job, err
}

func (c *client) job(ctx context.Context, base, id string) (service.JobView, error) {
	var view service.JobView
	err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil, &view)
	return view, err
}

func (c *client) submitSweep(ctx context.Context, base string, cfgs []sim.Config) (service.SweepView, error) {
	var view service.SweepView
	err := c.do(ctx, http.MethodPost, base+"/v1/sweeps", map[string]any{"configs": cfgs}, &view)
	return view, err
}

func (c *client) sweepResults(ctx context.Context, base, id string) (service.SweepResults, error) {
	var res service.SweepResults
	err := c.do(ctx, http.MethodGet, base+"/v1/sweeps/"+id+"/results", nil, &res)
	return res, err
}

// events follows an SSE stream, calling on with each event and its
// arrival time until on returns false or the server ends the stream.
func (c *client) events(ctx context.Context, url string, on func(service.Event, time.Time) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		at := time.Now()
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("undecodable event from %s: %w", url, err)
		}
		if !on(ev, at) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("GET %s: stream ended before a terminal event", url)
}

// awaitJob waits for the job's terminal state event and returns when it
// arrived.
func (c *client) awaitJob(ctx context.Context, base, id string) (time.Time, error) {
	var at time.Time
	err := c.events(ctx, base+"/v1/jobs/"+id+"/events", func(ev service.Event, t time.Time) bool {
		at = t
		return !ev.State.Terminal()
	})
	return at, err
}
