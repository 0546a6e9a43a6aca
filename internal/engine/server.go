package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server exposes an Engine over HTTP — on a unix socket (the default
// deployment: filesystem permissions are the auth model) or a TCP address.
//
//	POST /v1/jobs              submit a Job; ?wait=1 blocks for the Result
//	GET  /v1/jobs/{id}         job state ("queued" | "running" | "done")
//	GET  /v1/jobs/{id}/result  block for (or fetch) the Result
//	GET  /v1/jobs/{id}/shard   an inline shard's record log, raw, once
//	POST /v1/jobs/{id}/cancel  cancel a queued or running job
//	GET  /v1/stats             engine + store counters
//	GET  /v1/health            load/liveness snapshot for fleet schedulers
//
// Submissions past the queue bound get 503 (backpressure, not buffering).
// Shutdown drains: in-flight jobs finish and their tickets stay queryable
// until the listener closes.
type Server struct {
	eng *Engine

	// mu guards tickets and the ShardCheckpoint of every result they hold:
	// the server drops a shard's bytes once served or canceled.
	mu      sync.Mutex
	tickets map[string]*Ticket

	http *http.Server
	lis  net.Listener
}

// NewServer wraps eng. The caller keeps ownership of the engine (and its
// store): Shutdown drains the HTTP side only.
func NewServer(eng *Engine) *Server {
	s := &Server{eng: eng, tickets: make(map[string]*Ticket)}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/health", s.handleHealth)
	s.http = &http.Server{Handler: mux}
	return s
}

// SplitAddr parses a daemon address into a (network, address) pair for
// net.Listen / net.Dial: "unix:///run/godetect.sock" or a bare path selects
// a unix socket, anything else is a TCP host:port.
func SplitAddr(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix://"); ok {
		return "unix", rest
	}
	if strings.ContainsAny(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}

// Listen binds the server's listener without serving yet, so callers can
// report "listening on ..." before blocking in Serve.
func (s *Server) Listen(addr string) error {
	network, address := SplitAddr(addr)
	lis, err := net.Listen(network, address)
	if err != nil {
		return err
	}
	s.lis = lis
	return nil
}

// Addr is the bound listener address (useful with "127.0.0.1:0").
func (s *Server) Addr() net.Addr {
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Serve blocks serving requests until Shutdown. It returns nil on a clean
// shutdown.
func (s *Server) Serve() error {
	if s.lis == nil {
		return errors.New("engine: Serve before Listen")
	}
	err := s.http.Serve(s.lis)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully drains the HTTP server: no new submissions, in-flight
// request handlers (including blocked waits) get until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}

// Close hard-stops the server: the listener and every active connection
// drop immediately, blocked waiters get connection errors. It exists for
// crash simulation (fleet chaos tests SIGKILL a daemon; in-process tests
// Close one) and last-resort teardown — prefer Shutdown.
func (s *Server) Close() error {
	return s.http.Close()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// statusView is the wire form of a ticket's state.
type statusView struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// decodeJob reads a submitted job strictly: an unknown field is an error,
// so a misspelled option fails the request instead of silently defaulting.
func decodeJob(r io.Reader) (Job, error) {
	var job Job
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&job)
	return job, err
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST /v1/jobs"))
		return
	}
	job, err := decodeJob(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job: %w", err))
		return
	}
	t, err := s.eng.Enqueue(job)
	switch {
	case errors.Is(err, ErrBusy):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.tickets[t.ID] = t
	s.mu.Unlock()
	if r.URL.Query().Get("wait") != "" {
		s.writeResult(w, r, t)
		return
	}
	writeJSON(w, http.StatusAccepted, statusView{ID: t.ID, State: t.State()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET (or POST .../cancel) only"))
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	t := s.tickets[id]
	s.mu.Unlock()
	if t == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	switch sub {
	case "":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("GET /v1/jobs/{id}"))
			return
		}
		writeJSON(w, http.StatusOK, statusView{ID: t.ID, State: t.State()})
	case "result":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("GET /v1/jobs/{id}/result"))
			return
		}
		s.writeResult(w, r, t)
	case "shard":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("GET /v1/jobs/{id}/shard"))
			return
		}
		s.writeShard(w, r, t)
	case "cancel":
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, errors.New("POST /v1/jobs/{id}/cancel"))
			return
		}
		t.Cancel()
		if t.Job.InlineShard {
			s.dropCanceledShard(t)
		}
		writeJSON(w, http.StatusOK, statusView{ID: t.ID, State: t.State()})
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("no resource %q", sub))
	}
}

// writeResult blocks on the ticket under the request context, then renders
// the result. Execution errors are the job's outcome, not the transport's:
// they come back 200 with an error field.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, t *Ticket) {
	res, err := t.Wait(r.Context())
	if err != nil && res == nil && r.Context().Err() != nil {
		writeError(w, http.StatusGatewayTimeout, err)
		return
	}
	view := resultView{ID: t.ID, Result: res}
	if res != nil {
		s.mu.Lock()
		view.ShardBytes = len(res.ShardCheckpoint)
		s.mu.Unlock()
	}
	if err != nil {
		view.Error = err.Error()
	}
	writeJSON(w, http.StatusOK, view)
}

// resultView is the wire form of a completed job. An inline shard's record
// log never rides in it: ShardBytes announces the log's length, and
// GET /v1/jobs/{id}/shard serves the bytes.
type resultView struct {
	ID         string  `json:"id"`
	Result     *Result `json:"result,omitempty"`
	ShardBytes int     `json:"shardBytes,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// writeShard blocks on an inline-shard ticket like writeResult, then serves
// the shard's record log as raw bytes and drops the server's reference to
// them: a fleet fetches each shard once, and a finished ticket would
// otherwise pin its log for the daemon's lifetime. A later fetch answers
// 410 Gone; the JSON result stays queryable.
func (s *Server) writeShard(w http.ResponseWriter, r *http.Request, t *Ticket) {
	if !t.Job.InlineShard {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q is not an inline shard", t.ID))
		return
	}
	res, err := t.Wait(r.Context())
	if err != nil && res == nil && r.Context().Err() != nil {
		writeError(w, http.StatusGatewayTimeout, err)
		return
	}
	if res == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q has no shard log: %v", t.ID, err))
		return
	}
	s.mu.Lock()
	data := res.ShardCheckpoint
	s.mu.Unlock()
	if len(data) == 0 {
		writeError(w, http.StatusGone, fmt.Errorf("job %q's shard log was already served or canceled", t.ID))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	if _, err := w.Write(data); err != nil {
		return
	}
	if http.NewResponseController(w).Flush() != nil {
		return
	}
	s.dropShard(t)
}

// dropShard forgets a finished ticket's inline shard log.
func (s *Server) dropShard(t *Ticket) {
	s.mu.Lock()
	if t.res != nil {
		t.res.ShardCheckpoint = nil
	}
	s.mu.Unlock()
}

// dropCanceledShard drops a canceled inline-shard job's log, which no caller
// will fetch: the fleet cancels only runners whose shard it no longer wants.
// A job still queued or running ends soon after its cancel; a goroutine
// waits for that.
func (s *Server) dropCanceledShard(t *Ticket) {
	select {
	case <-t.done:
		s.dropShard(t)
	default:
		go func() {
			<-t.done
			s.dropShard(t)
		}()
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, s.eng.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, s.eng.Health())
}

// ClientOptions tunes a daemon client's failure detection. The zero value
// gets sane defaults via NewClient.
type ClientOptions struct {
	// ConnectTimeout bounds dialing the daemon (default 10s; negative =
	// none). Without it a daemon that blackholes SYNs (machine down, bad
	// route) blocks a -remote invocation until the kernel gives up.
	ConnectTimeout time.Duration
	// RequestTimeout bounds every individual request including the body
	// (0 = none). Leave it 0 for clients that legitimately block on
	// long-running jobs (Submit ?wait=1, Result); set it for probe-style
	// clients so a daemon that accepts connections but never answers —
	// hung worker, livelocked event loop — fails fast instead of hanging
	// the caller forever.
	RequestTimeout time.Duration
}

// Client is the remote face of the daemon: the same Submit/Stats surface as
// a local Engine, over its socket.
type Client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	opts ClientOptions
}

// NewClient targets addr (same forms SplitAddr accepts) with default
// options: a 10s connect timeout and no request timeout. Unix sockets get a
// dedicated dialer; the base URL host is then only decorative.
func NewClient(addr string) *Client {
	return NewClientWith(addr, ClientOptions{})
}

// NewClientWith is NewClient with explicit timeouts.
func NewClientWith(addr string, opts ClientOptions) *Client {
	if opts.ConnectTimeout == 0 {
		opts.ConnectTimeout = 10 * time.Second
	}
	network, address := SplitAddr(addr)
	dialer := &net.Dialer{}
	if opts.ConnectTimeout > 0 {
		dialer.Timeout = opts.ConnectTimeout
	}
	tr := &http.Transport{DialContext: dialer.DialContext}
	base := "http://" + address
	if network == "unix" {
		tr.DialContext = func(ctx context.Context, _, _ string) (net.Conn, error) {
			return dialer.DialContext(ctx, "unix", address)
		}
		base = "http://godetect"
	}
	return &Client{hc: &http.Client{Transport: tr}, tr: tr, base: base, opts: opts}
}

// Close releases the client's idle connections. A client is cheap but not
// free: each one keeps kept-alive sockets to its daemon, and a fleet
// coordinator cycling through many daemons must not leak them.
func (c *Client) Close() {
	c.tr.CloseIdleConnections()
}

// do sends one request and decodes a 2xx answer into out: JSON, or a raw
// shard log when out is a *shardLog.
func (c *Client) do(ctx context.Context, method, path string, body any, out any) error {
	if c.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
		defer cancel()
	}
	var rd *strings.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = strings.NewReader(string(raw))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := ""
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// 503 is the daemon's backpressure (full queue or draining):
			// wrap ErrBusy so schedulers can route the work elsewhere
			// instead of string-matching.
			if msg == "" {
				msg = "service unavailable"
			}
			return fmt.Errorf("daemon: %s (HTTP %d): %w", msg, resp.StatusCode, ErrBusy)
		}
		if msg != "" {
			return fmt.Errorf("daemon: %s (HTTP %d)", msg, resp.StatusCode)
		}
		return fmt.Errorf("daemon: HTTP %d", resp.StatusCode)
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *shardLog:
		return out.read(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// shardLog is the body of GET /v1/jobs/{id}/shard, which must be exactly
// the length the job's result announced.
type shardLog struct {
	want int
	data []byte
}

// read takes the whole body or fails: a short or torn transfer must fail
// the attempt, never hand a fold a truncated log.
func (l *shardLog) read(resp *http.Response) error {
	if resp.ContentLength != int64(l.want) {
		return fmt.Errorf("daemon: shard log of %d bytes announced, %d served", l.want, resp.ContentLength)
	}
	l.data = make([]byte, l.want)
	if _, err := io.ReadFull(resp.Body, l.data); err != nil {
		return fmt.Errorf("daemon: reading shard log: %w", err)
	}
	return nil
}

// finish turns a result's wire form into the Result callers see: it
// fetches the inline shard log the view announces into ShardCheckpoint.
func (c *Client) finish(ctx context.Context, view resultView) (*Result, error) {
	if view.Error != "" {
		return view.Result, errors.New(view.Error)
	}
	if view.ShardBytes > 0 && view.Result != nil {
		shard := shardLog{want: view.ShardBytes}
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+view.ID+"/shard", nil, &shard); err != nil {
			return nil, err
		}
		view.Result.ShardCheckpoint = shard.data
	}
	return view.Result, nil
}

// Submit sends the job and blocks for its result. A non-empty wire error is
// the job's execution error.
func (c *Client) Submit(ctx context.Context, job Job) (*Result, error) {
	var view resultView
	if err := c.do(ctx, http.MethodPost, "/v1/jobs?wait=1", job, &view); err != nil {
		return nil, err
	}
	return c.finish(ctx, view)
}

// Enqueue submits without waiting and returns the job ID.
func (c *Client) Enqueue(ctx context.Context, job Job) (string, error) {
	var view statusView
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", job, &view); err != nil {
		return "", err
	}
	return view.ID, nil
}

// Status fetches a submitted job's state.
func (c *Client) Status(ctx context.Context, id string) (string, error) {
	var view statusView
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &view); err != nil {
		return "", err
	}
	return view.State, nil
}

// Result blocks for (or fetches) a submitted job's result.
func (c *Client) Result(ctx context.Context, id string) (*Result, error) {
	var view resultView
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &view); err != nil {
		return nil, err
	}
	return c.finish(ctx, view)
}

// Cancel asks the daemon to cancel a submitted job: queued jobs fold an
// immediate canceled verdict, running jobs stop dispatching and fold their
// partial work. Cancel of a done job is a no-op.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, nil)
}

// Stats fetches the daemon's engine counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Health fetches the daemon's load/liveness snapshot — the probe a fleet
// scheduler routes on. Callers should bound it with a short ctx (or a
// RequestTimeout client): a health check that can hang is no health check.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/v1/health", nil, &h)
	return h, err
}

// WaitReady polls the daemon's stats endpoint until it answers or the
// deadline passes — the client-side half of daemon startup.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		probe, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
		_, err := c.Stats(probe)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %v: %w", timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}
