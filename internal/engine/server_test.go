package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
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
	// Cleanups run last-registered first, so the client's idle connections
	// close before Shutdown waits for the server's. net/http counts a
	// connection that never carried a request as idle only once it is 5 s
	// old, so a spare one the transport dialed would otherwise hold
	// Shutdown up to its own 5 s deadline.
	t.Cleanup(c.Close)
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

// inlineShardJob is shard i of a three-shard inline sweep, the job shape a
// fleet coordinator dispatches.
func inlineShardJob(i int) Job {
	return Job{Kind: KindSweep, Kernel: "docker-abba-order", Runs: 30, Seed: 7,
		Detectors: []string{"cycle"}, Shards: 3, Shard: i, InlineShard: true}
}

// get sends a raw GET to the daemon and returns the status and body.
func get(t *testing.T, c *Client, path string) (int, []byte) {
	t.Helper()
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// An inline shard fetched over the daemon API is byte-identical to the
// in-process engine's, whether the caller polls (Enqueue, then Result) or
// blocks in Submit.
func TestDaemonShardMatchesLocal(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d.sock")
	c, _ := startServer(t, "unix://"+sock)
	ctx := context.Background()
	local := newEngine(t, Options{Workers: 1, SweepWorkers: 1})

	for i := 0; i < 3; i++ {
		want, err := local.Submit(ctx, inlineShardJob(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.ShardCheckpoint) == 0 {
			t.Fatalf("shard %d: in-process engine returned no shard log", i)
		}
		id, err := c.Enqueue(ctx, inlineShardJob(i))
		if err != nil {
			t.Fatal(err)
		}
		polled, err := c.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		submitted, err := c.Submit(ctx, inlineShardJob(i))
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Result{"Enqueue+Result": polled, "Submit": submitted} {
			if !bytes.Equal(got.ShardCheckpoint, want.ShardCheckpoint) {
				t.Errorf("shard %d via %s: %d bytes, differ from the in-process %d", i, name,
					len(got.ShardCheckpoint), len(want.ShardCheckpoint))
			}
			if got.Text != want.Text {
				t.Errorf("shard %d via %s: text differs:\n%s\nwant:\n%s", i, name, got.Text, want.Text)
			}
		}
	}
}

// The JSON result announces an inline shard's length and never carries its
// bytes.
func TestDaemonResultJSONCarriesNoShard(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d.sock")
	c, _ := startServer(t, "unix://"+sock)
	id, err := c.Enqueue(context.Background(), inlineShardJob(0))
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, c, "/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, body)
	}
	if bytes.Contains(body, []byte("shardCheckpoint")) {
		t.Fatalf("result JSON carries the shard log: %.200s", body)
	}
	var view struct {
		ShardBytes int `json:"shardBytes"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.ShardBytes <= 0 {
		t.Fatalf("result JSON announces %d shard bytes, want > 0", view.ShardBytes)
	}
}

// The shard endpoint answers 404 for a job that has no shard and for an
// unknown ID, serves a shard once, and answers 410 after that or after a
// cancel; the JSON result stays queryable throughout.
func TestDaemonShardEndpointStatuses(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d.sock")
	c, _ := startServer(t, "unix://"+sock)
	ctx := context.Background()

	plain, err := c.Enqueue(ctx, sweepJob())
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/jobs/" + plain + "/shard", "/v1/jobs/j-999999/shard"} {
		if code, body := get(t, c, path); code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d (%s), want 404", path, code, body)
		}
	}

	fetched, err := c.Enqueue(ctx, inlineShardJob(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(ctx, fetched)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShardCheckpoint) == 0 {
		t.Fatal("first fetch returned no shard log")
	}

	canceled, err := c.Enqueue(ctx, inlineShardJob(2))
	if err != nil {
		t.Fatal(err)
	}
	// The raw result waits for the job without fetching its shard.
	if code, body := get(t, c, "/v1/jobs/"+canceled+"/result"); code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, body)
	}
	if err := c.Cancel(ctx, canceled); err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{fetched, canceled} {
		if code, body := get(t, c, "/v1/jobs/"+id+"/shard"); code != http.StatusGone {
			t.Errorf("GET shard of %s again: HTTP %d (%s), want 410", id, code, body)
		}
		again, err := c.Result(ctx, id)
		if err != nil {
			t.Fatalf("result of %s after its shard was dropped: %v", id, err)
		}
		if again.Text == "" || len(again.ShardCheckpoint) != 0 {
			t.Errorf("result of %s after its shard was dropped: %d text bytes, %d shard bytes, want text and no shard",
				id, len(again.Text), len(again.ShardCheckpoint))
		}
	}
}

// Concurrent fetches and a cancel of one finished shard race the server's
// drop: each fetch gets the whole log, 410, or a result without a log,
// never a partial log. Run it under -race.
func TestDaemonShardConcurrentFetch(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d.sock")
	c, _ := startServer(t, "unix://"+sock)
	ctx := context.Background()
	local := newEngine(t, Options{Workers: 1, SweepWorkers: 1})
	want, err := local.Submit(ctx, inlineShardJob(0))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Enqueue(ctx, inlineShardJob(0))
	if err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, c, "/v1/jobs/"+id+"/result"); code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, body)
	}

	const fetchers = 4
	got := make([][]byte, fetchers)
	var wg sync.WaitGroup
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res, err := c.Result(ctx, id); err == nil {
				got[i] = res.ShardCheckpoint
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c.Cancel(ctx, id); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	for i, data := range got {
		if len(data) != 0 && !bytes.Equal(data, want.ShardCheckpoint) {
			t.Errorf("fetcher %d got a %d-byte log, want the %d-byte log or none", i, len(data), len(want.ShardCheckpoint))
		}
	}
}

// A shard body shorter than the length the result announced makes
// Client.Result fail rather than return a short log, whether the daemon
// declares the short length or breaks off mid-body.
func TestClientRejectsShortShard(t *testing.T) {
	const announced, sent = 100, 40
	for _, declared := range []int{sent, announced} {
		t.Run("content-length="+strconv.Itoa(declared), func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("/v1/jobs/j-1/result", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `{"id":"j-1","result":{"text":"x"},"shardBytes":`+strconv.Itoa(announced)+`}`)
			})
			mux.HandleFunc("/v1/jobs/j-1/shard", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Length", strconv.Itoa(declared))
				w.Write(make([]byte, sent))
			})
			sock := filepath.Join(t.TempDir(), "stub.sock")
			lis, err := net.Listen("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			srv := &http.Server{Handler: mux}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(lis) }()
			t.Cleanup(func() {
				srv.Close()
				<-served
			})
			c := NewClient(sock)
			defer c.Close()

			res, err := c.Result(context.Background(), "j-1")
			if err == nil {
				t.Fatalf("short shard body accepted as a %d-byte log", len(res.ShardCheckpoint))
			}
		})
	}
}
