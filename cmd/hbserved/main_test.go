package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
)

// TestServerLifecycle drives the real binary path end to end: boot on
// an ephemeral port, serve a real (tiny) simulation over HTTP, then
// shut down gracefully on SIGTERM.
func TestServerLifecycle(t *testing.T) {
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(),
			[]string{"-addr", "127.0.0.1:0", "-queue", "8", "-j", "2"},
			pw, &stderr)
	}()

	// The first stdout line announces the bound address.
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v (stderr: %s)", err, stderr.String())
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "listening on "))
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	// Submit a real simulation, small enough to finish in milliseconds.
	cfg := sim.Config{
		Benchmark:    "gcc",
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		PrewarmInsts: 1000,
		WarmupInsts:  1000,
		MeasureInsts: 20000,
	}
	body, _ := json.Marshal(map[string]any{"config": cfg})
	sub, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	if err := json.NewDecoder(sub.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	sub.Body.Close()
	if sub.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", sub.StatusCode)
	}

	// Poll until the simulation finishes. The served result must be
	// byte-identical to a direct run of the same config, and cover the
	// measure window: the core retires in groups, so it may overshoot
	// by up to RetireWidth-1 instructions.
	var served []byte
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(base + "/v1/jobs/" + submitted.Job.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			served, err = io.ReadAll(r.Body)
			r.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("job never finished (last status %d)", r.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	direct, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, served); err != nil {
		t.Fatalf("served result is not JSON: %v\n%s", err, served)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("served result differs from a direct sim.Run:\nserved: %s\ndirect: %s", got.Bytes(), want)
	}
	if n, w := direct.Instructions, uint64(cfg.CPU.RetireWidth); direct.Benchmark != "gcc" || direct.Cycles == 0 || n < cfg.MeasureInsts || n >= cfg.MeasureInsts+w {
		t.Fatalf("result = %+v, want a real gcc run over [%d, %d) instructions", direct, cfg.MeasureInsts, cfg.MeasureInsts+w)
	}

	// SIGTERM → graceful drain → clean exit.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil (stderr: %s)", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit within 30s of SIGTERM")
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Errorf("stderr = %q, want drain log lines", stderr.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &out, &errBuf); err == nil {
		t.Error("run with unknown flag succeeded, want error")
	}
	if err := run(context.Background(), []string{"positional"}, &out, &errBuf); err == nil ||
		!strings.Contains(err.Error(), "unexpected arguments") {
		t.Errorf("run with positional arg = %v, want unexpected-arguments error", err)
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:http"}, &out, &errBuf); err == nil {
		t.Error("run with unlistenable address succeeded, want error")
	}
}
