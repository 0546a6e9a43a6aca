// Package store is the persistent verdict cache behind the job engine: a
// single-file, crash-safe key/value store memoizing exploration results so a
// long-running godetect daemon (or a resumed one-shot sweep) serves verdicts
// it has already computed instead of re-exploring.
//
// The design is a bbolt-style single file reduced to what a cache needs: an
// append-only log of CRC-guarded records with an in-memory index and the
// values resident in memory (the cache is size-bounded, so memory is too).
// Every Put appends one record and fsyncs before acknowledging, so a
// SIGKILL at any instant loses at most the in-flight record; Open tolerates
// whatever a crash can leave behind — a torn tail is truncated away, a
// bit-flipped record is quarantined (skipped and counted, the reader keeps
// going), and a file whose header is unreadable is moved aside rather than
// trusted. Rewrites (eviction compaction) go through the standard temp +
// fsync + rename dance, so the file on disk is always either the old
// generation or the new one.
//
// Eviction is LRU over a live-byte budget: Get refreshes recency, Put past
// the budget drops the least-recently-used entries first (counted), and when
// the file accumulates enough dead records (overwritten or evicted) it is
// compacted in recency order. Counters for hits, misses, puts, evictions,
// quarantined records, and compactions feed the daemon's stats endpoint.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"goconcbugs/internal/frame"
)

const (
	// magic identifies a store file (format store/v1). Records follow it
	// as frames (internal/frame) whose payload is a u32 key length, the
	// key, then the value.
	magic = "gcbstor1"
	// minPayload is the shortest plausible record payload: the key length.
	minPayload = 4

	// DefaultMaxBytes is the live-value budget when Options.MaxBytes is
	// unset.
	DefaultMaxBytes = 64 << 20
)

// Key names one memoized exploration result. The four fields mirror what
// makes a verdict reusable: what was explored (kernel fingerprint), under
// which runtime parameters (config digest), judged by which detector set,
// and over which seed range. String renders the canonical form used as the
// store key; equal Keys always render equal strings.
type Key struct {
	// Fingerprint identifies the explored program and mode, e.g.
	// "sweep/v1 kernel=docker-abba-order variant=buggy".
	Fingerprint string
	// Config is a digest of the deterministic sim configuration (step
	// budget, leak threshold, shadow words, ...).
	Config string
	// Detectors is the judgment set, canonical order, comma-joined.
	// Empty for modes without attached detectors.
	Detectors string
	// Seeds is the seed range or schedule budget, e.g. "base=1 runs=100".
	Seeds string
}

// String is the canonical store key for k.
func (k Key) String() string {
	return k.Fingerprint + " | cfg=" + k.Config + " | dets=" + k.Detectors + " | " + k.Seeds
}

// Options configures Open.
type Options struct {
	// MaxBytes bounds the live (indexed) record bytes; past it the
	// least-recently-used entries are evicted. <= 0 means DefaultMaxBytes.
	MaxBytes int64
	// NoSync skips the fsync after each append. Only for tests and
	// benchmarks that measure the in-memory path: without the sync a crash
	// can lose acknowledged puts (never corrupt the file — Open still
	// recovers the readable prefix).
	NoSync bool
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Entries and LiveBytes describe the indexed (servable) records;
	// FileBytes is the on-disk log size including dead records awaiting
	// compaction.
	Entries   int   `json:"entries"`
	LiveBytes int64 `json:"liveBytes"`
	FileBytes int64 `json:"fileBytes"`
	// Hits and Misses count Get outcomes; Puts counts acknowledged
	// appends.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
	// Evictions counts entries dropped by the LRU budget; Quarantined
	// counts records skipped as corrupt at Open; Compactions counts log
	// rewrites.
	Evictions   uint64 `json:"evictions"`
	Quarantined uint64 `json:"quarantined"`
	Compactions uint64 `json:"compactions"`
}

// entry is one live record: the value, its recency stamp, and its on-disk
// footprint (header + key + value) for the byte budgets.
type entry struct {
	val  []byte
	seq  uint64
	size int64
}

// Store is a crash-safe persistent cache. All methods are safe for
// concurrent use.
type Store struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	opts      Options
	idx       map[string]*entry
	seq       uint64
	liveBytes int64
	fileBytes int64
	stats     Stats
}

// Open opens or creates the store file at path. Open never fails on
// corruption: torn tails are truncated, undecodable records are quarantined
// (counted in Stats.Quarantined), and a file whose header is not a store
// file is moved aside to path+".corrupt" and replaced with a fresh store.
func Open(path string, opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	s := &Store{path: path, opts: opts, idx: make(map[string]*entry)}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load reads the whole log, building the index. Later records for a key win
// (an overwrite leaves the older record dead until compaction).
func (s *Store) load() error {
	data, err := os.ReadFile(s.path)
	switch {
	case os.IsNotExist(err):
		return s.create()
	case err != nil:
		return fmt.Errorf("store: reading %s: %w", s.path, err)
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		// The header itself is gone: nothing in the file can be trusted.
		// Move it aside for post-mortems and start fresh — a cache must
		// open, the worst case is recomputing.
		if len(data) > 0 {
			_ = os.Rename(s.path, s.path+".corrupt")
			s.stats.Quarantined++
		}
		return s.create()
	}

	off := len(magic)
	good := off // end of the last cleanly parsed record
	for off < len(data) {
		if len(data)-off < frame.HeaderLen {
			break // torn header: a crash mid-append
		}
		payload, size, err := frame.Next(data[off:], minPayload)
		if errors.Is(err, frame.ErrTorn) {
			// The length field is implausible or runs past EOF. Either a
			// torn tail or a corrupted length — record boundaries are lost
			// from here on, so quarantine the remainder.
			s.stats.Quarantined++
			break
		}
		off += size
		if err != nil {
			// A bit-flipped record with intact framing: skip just it and
			// keep reading — the next read of its key will miss and
			// recompute.
			s.stats.Quarantined++
			good = off
			continue
		}
		kl := int(binary.LittleEndian.Uint32(payload))
		if kl < 0 || 4+kl > len(payload) {
			s.stats.Quarantined++
			good = off
			continue
		}
		key := string(payload[4 : 4+kl])
		val := append([]byte(nil), payload[4+kl:]...)
		s.index(key, val, int64(size))
		good = off
	}

	// O_APPEND: every put lands after the recovered prefix, even right
	// after the truncate below.
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening %s: %w", s.path, err)
	}
	s.f = f
	if good < len(data) {
		// Drop the torn/quarantined tail so the next append starts at a
		// clean record boundary.
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn tail of %s: %w", s.path, err)
		}
	}
	s.fileBytes = int64(good)
	s.evict()
	return nil
}

func (s *Store) create() error {
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", s.path, err)
	}
	if _, err := f.WriteString(magic); err != nil {
		f.Close()
		return fmt.Errorf("store: writing header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing header: %w", err)
	}
	s.f = f
	s.fileBytes = int64(len(magic))
	return nil
}

// index stores (key, val) in memory, replacing any older entry (whose bytes
// become dead file weight until compaction).
func (s *Store) index(key string, val []byte, size int64) {
	if old, ok := s.idx[key]; ok {
		s.liveBytes -= old.size
	}
	s.seq++
	s.idx[key] = &entry{val: val, seq: s.seq, size: size}
	s.liveBytes += size
}

// recordPayload encodes one record's frame payload: u32 key length, key,
// value.
func recordPayload(key string, val []byte) []byte {
	p := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(key)+len(val)), uint32(len(key)))
	return append(append(p, key...), val...)
}

// Get returns the value stored under key and refreshes its recency. The
// returned slice is the store's own copy: callers must treat it as read-only
// and decode before the entry can be evicted. The hit path performs no
// allocations.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.idx[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.stats.Hits++
	s.seq++
	e.seq = s.seq
	v := e.val
	s.mu.Unlock()
	return v, true
}

// GetKey is Get over a structured Key.
func (s *Store) GetKey(k Key) ([]byte, bool) { return s.Get(k.String()) }

// Put stores val under key: one appended, CRC-guarded, fsynced record.
// Values whose record alone would exceed the live budget are silently not
// cached (storing them would evict everything else for one entry). The
// append is atomic from a reader's point of view: a crash mid-write leaves a
// torn tail the next Open truncates.
func (s *Store) Put(key string, val []byte) error {
	rec := int64(frame.HeaderLen + 4 + len(key) + len(val))
	if rec > s.opts.MaxBytes {
		return nil
	}
	buf := frame.Append(make([]byte, 0, rec), recordPayload(key, val))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: %s is closed", s.path)
	}
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("store: appending to %s: %w", s.path, err)
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing %s: %w", s.path, err)
		}
	}
	s.fileBytes += int64(len(buf))
	s.index(key, append([]byte(nil), val...), rec)
	s.stats.Puts++
	s.evict()
	return s.maybeCompact()
}

// PutKey is Put over a structured Key.
func (s *Store) PutKey(k Key, val []byte) error { return s.Put(k.String(), val) }

// evict drops least-recently-used entries until the live bytes fit the
// budget. Called with mu held.
func (s *Store) evict() {
	if s.liveBytes <= s.opts.MaxBytes {
		return
	}
	// Collect and sort by recency once per eviction wave; waves are rare
	// (only when a put crosses the budget), so the O(n log n) is paid off
	// the hot path.
	type cand struct {
		key string
		e   *entry
	}
	cands := make([]cand, 0, len(s.idx))
	for k, e := range s.idx {
		cands = append(cands, cand{k, e})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].e.seq < cands[j].e.seq })
	for _, c := range cands {
		if s.liveBytes <= s.opts.MaxBytes {
			break
		}
		delete(s.idx, c.key)
		s.liveBytes -= c.e.size
		s.stats.Evictions++
	}
}

// maybeCompact rewrites the log when dead records (overwritten or evicted)
// dominate it: the live entries are written in recency order to a temp file
// which is fsynced and renamed over the log. Called with mu held.
func (s *Store) maybeCompact() error {
	if s.fileBytes <= 2*s.opts.MaxBytes || s.fileBytes <= 2*s.liveBytes {
		return nil
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	type cand struct {
		key string
		e   *entry
	}
	cands := make([]cand, 0, len(s.idx))
	for k, e := range s.idx {
		cands = append(cands, cand{k, e})
	}
	// Oldest first, so the rebuilt log's scan order reproduces recency.
	sort.Slice(cands, func(i, j int) bool { return cands[i].e.seq < cands[j].e.seq })

	tmp, err := os.CreateTemp(dirOf(s.path), "store.compact*")
	if err != nil {
		return fmt.Errorf("store: compaction temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.WriteString(magic); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compaction header: %w", err)
	}
	total := int64(len(magic))
	var buf []byte
	for _, c := range cands {
		buf = frame.Append(buf[:0], recordPayload(c.key, c.e.val))
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compaction write: %w", err)
		}
		total += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing compaction: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing compaction: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return fmt.Errorf("store: publishing compaction: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening after compaction: %w", err)
	}
	s.f.Close()
	// Reopen in append mode so subsequent puts land after the rebuilt log.
	s.f = f
	s.fileBytes = total
	s.stats.Compactions++
	return nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// Compact forces a log rewrite regardless of the dead-record ratio.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Keys returns the live keys, least-recently-used first — the eviction
// order. Intended for tests and diagnostics.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	type cand struct {
		key string
		seq uint64
	}
	cands := make([]cand, 0, len(s.idx))
	for k, e := range s.idx {
		cands = append(cands, cand{k, e.seq})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.key
	}
	return out
}

// Stats returns a snapshot of the counters and sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.idx)
	st.LiveBytes = s.liveBytes
	st.FileBytes = s.fileBytes
	return st
}

// Close syncs and closes the file. Further puts fail; the Store is done.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var err error
	if !s.opts.NoSync {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
