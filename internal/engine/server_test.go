package engine

import (
	"context"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startServer runs a daemon on a unix socket (or TCP addr) backed by a
// fresh store, returning a connected client.
func startServer(t *testing.T, addr string) (*Client, *Engine) {
	t.Helper()
	eng := New(Options{Workers: 2, SweepWorkers: 1, Store: newStore(t)})
	t.Cleanup(eng.Close)
	srv := NewServer(eng)
	if err := srv.Listen(addr); err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	var c *Client
	if addr == "127.0.0.1:0" {
		c = NewClient(srv.Addr().String())
	} else {
		c = NewClient(addr)
	}
	if err := c.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return c, eng
}

// A daemon-served result must be byte-identical to the same job computed by
// a local engine — over a unix socket, cold and warm.
func TestDaemonMatchesLocalUnixSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d.sock")
	c, _ := startServer(t, "unix://"+sock)
	ctx := context.Background()

	local := newEngine(t, Options{Workers: 1, SweepWorkers: 1})
	want, err := local.Submit(ctx, sweepJob())
	if err != nil {
		t.Fatal(err)
	}

	cold, err := c.Submit(ctx, sweepJob())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Text != want.Text {
		t.Fatalf("daemon cold text diverged:\nlocal:\n%s\ndaemon:\n%s", want.Text, cold.Text)
	}
	if cold.CacheHit {
		t.Fatal("first daemon submit reported a hit")
	}
	warm, err := c.Submit(ctx, sweepJob())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Text != want.Text {
		t.Fatalf("daemon warm: hit=%v identical=%v", warm.CacheHit, warm.Text == want.Text)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 2 || st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("daemon stats %+v, want 2 submitted / 1 executed / 1 hit", st)
	}
	if st.Store == nil || st.Store.Entries != 1 {
		t.Fatalf("store stats %+v, want 1 entry", st.Store)
	}
}

func TestDaemonTCPAndAsyncAPI(t *testing.T) {
	c, _ := startServer(t, "127.0.0.1:0")
	ctx := context.Background()

	id, err := c.Enqueue(ctx, sweepJob())
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty job id")
	}
	if _, err := c.Status(ctx, id); err != nil {
		t.Fatalf("status: %v", err)
	}
	res, err := c.Result(ctx, id)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if res == nil || res.Text == "" {
		t.Fatal("empty result over TCP")
	}
	state, err := c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if state != "done" {
		t.Fatalf("state %q after result, want done", state)
	}
	if _, err := c.Status(ctx, "j-999999"); err == nil {
		t.Fatal("unknown job id did not error")
	}
}

// Invalid jobs are rejected at the API boundary with a client-visible error.
func TestDaemonRejectsInvalidJob(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d.sock")
	c, _ := startServer(t, sock) // bare path form
	_, err := c.Submit(context.Background(), Job{Kind: KindSweep, Kernel: "no-such-kernel", Detectors: []string{"cycle"}})
	if err == nil {
		t.Fatal("invalid job accepted")
	}
}

// Oversized seed ranges, program counts and shard counts are refused at the
// API boundary with 400: each would otherwise size a slice on an engine
// worker and panic, taking the daemon down with it.
func TestDaemonRejectsOversizedJobs(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d.sock")
	c, _ := startServer(t, sock)
	huge := "4611686018427387904" // 1<<62
	for _, body := range []string{
		`{"kind":"sweep","kernel":"docker-abba-order","detectors":["cycle"],"runs":` + huge + `}`,
		`{"kind":"run","kernel":"docker-abba-order","runs":` + huge + `}`,
		`{"kind":"conformance","programs":` + huge + `}`,
		`{"kind":"sweep","kernel":"docker-abba-order","detectors":["cycle"],"fold":true,"checkpoint":"` +
			filepath.Join(t.TempDir(), "cp") + `","shards":` + huge + `}`,
	} {
		resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := c.hc.Get(c.base + "/v1/health")
	if err != nil {
		t.Fatalf("daemon gone after oversized jobs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health after oversized jobs: HTTP %d, want 200", resp.StatusCode)
	}
}
