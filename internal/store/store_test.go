package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, path string, opts Options) *Store {
	t.Helper()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	t.Parallel()
	s := openT(t, filepath.Join(t.TempDir(), "v.db"), Options{})
	if err := s.Put("k1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1")
	if !ok || string(got) != "hello" {
		t.Fatalf("Get(k1) = %q, %v", got, ok)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put / 1 entry", st)
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "v.db")
	s := openT(t, path, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := s.Get("k"); string(got) != "v2" {
		t.Fatalf("in-memory Get = %q, want v2", got)
	}
	s.Close()
	// The log holds all three records; reopening must index the latest.
	r := openT(t, path, Options{})
	if got, ok := r.Get("k"); !ok || string(got) != "v2" {
		t.Fatalf("reopened Get = %q, %v, want v2", got, ok)
	}
	if r.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", r.Len())
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "v.db")
	s := openT(t, path, Options{})
	want := map[string]string{}
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%d", i*i)
		want[k] = v
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	r := openT(t, path, Options{})
	for k, v := range want {
		if got, ok := r.Get(k); !ok || string(got) != v {
			t.Errorf("Get(%s) = %q, %v, want %q", k, got, ok, v)
		}
	}
}

// TestLRUEvictionOrderAndCounters fills the store past its size bound and
// asserts the least-recently-used entries go first — including that a Get
// refreshes recency — and that the counters account every eviction.
func TestLRUEvictionOrderAndCounters(t *testing.T) {
	t.Parallel()
	// Each record is frame header(8) + keylen(4) + key(4) + val(100) = 116
	// bytes; a 500-byte budget fits 4.
	s := openT(t, filepath.Join(t.TempDir(), "v.db"), Options{MaxBytes: 500})
	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if ev := s.Stats().Evictions; ev != 0 {
		t.Fatalf("%d evictions before crossing the budget", ev)
	}
	// Freshen k000 so k001 is now the LRU entry.
	if _, ok := s.Get("k000"); !ok {
		t.Fatal("k000 missing before eviction")
	}
	if err := s.Put("k004", val); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k001"); ok {
		t.Error("k001 survived eviction; want it dropped as LRU")
	}
	for _, k := range []string{"k000", "k002", "k003", "k004"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("%s evicted; want it live", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 4 {
		t.Errorf("Entries = %d, want 4", st.Entries)
	}
	if st.LiveBytes > 500 {
		t.Errorf("LiveBytes = %d, want <= budget 500", st.LiveBytes)
	}

	// Keep filling: every additional put past the budget evicts exactly one
	// more, in recency order.
	for i := 5; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Evictions; got != 6 {
		t.Errorf("Evictions after refill = %d, want 6", got)
	}
	keys := s.Keys()
	if len(keys) != 4 {
		t.Fatalf("live keys = %v, want 4 entries", keys)
	}
	// The survivors are the four most recent puts, LRU-first.
	for i, want := range []string{"k006", "k007", "k008", "k009"} {
		if keys[i] != want {
			t.Errorf("Keys()[%d] = %s, want %s (full order %v)", i, keys[i], want, keys)
		}
	}
}

// TestBitFlipQuarantineAndRecompute corrupts one stored record on disk and
// asserts the store still opens, quarantines exactly the bad entry, misses
// on its key (so the caller recomputes), and serves the others intact.
func TestBitFlipQuarantineAndRecompute(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "v.db")
	s := openT(t, path, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte('a' + i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip one bit inside the LAST record's value region: framing stays
	// intact, the CRC does not.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, path, Options{})
	st := r.Stats()
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	if _, ok := r.Get("k2"); ok {
		t.Error("corrupted k2 served from the store; want a miss")
	}
	for _, k := range []string{"k0", "k1"} {
		if _, ok := r.Get(k); !ok {
			t.Errorf("%s lost; corruption must quarantine only the bad record", k)
		}
	}
	// The caller's recompute path: put the recomputed value, read it back,
	// and it must also survive a reopen.
	if err := r.Put("k2", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Get("k2"); !ok || string(got) != "recomputed" {
		t.Fatalf("recomputed k2 = %q, %v", got, ok)
	}
	r.Close()
	r2 := openT(t, path, Options{})
	if got, ok := r2.Get("k2"); !ok || string(got) != "recomputed" {
		t.Fatalf("recomputed k2 after reopen = %q, %v", got, ok)
	}
}

// TestTornTailTruncatedOnOpen simulates a crash mid-append: the file ends in
// half a record. Open must recover every complete record and truncate the
// tail so the next append starts clean.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "v.db")
	s := openT(t, path, Options{})
	if err := s.Put("whole", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("torn", bytes.Repeat([]byte("y"), 64)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the middle of the second record.
	if err := os.WriteFile(path, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, path, Options{})
	if _, ok := r.Get("whole"); !ok {
		t.Error("record before the torn tail lost")
	}
	if _, ok := r.Get("torn"); ok {
		t.Error("torn record served")
	}
	if q := r.Stats().Quarantined; q != 1 {
		t.Errorf("Quarantined = %d, want 1", q)
	}
	// The tail is gone: an append after recovery must be readable.
	if err := r.Put("after", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := openT(t, path, Options{})
	for _, k := range []string{"whole", "after"} {
		if _, ok := r2.Get(k); !ok {
			t.Errorf("%s unreadable after torn-tail recovery + append", k)
		}
	}
}

// TestForeignFileMovedAside: a file that is not a store (bad magic) is moved
// to .corrupt and replaced — Open never refuses a cache.
func TestForeignFileMovedAside(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "v.db")
	if err := os.WriteFile(path, []byte("this is not a store file"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, path, Options{})
	if q := s.Stats().Quarantined; q != 1 {
		t.Errorf("Quarantined = %d, want 1", q)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("foreign file not preserved at .corrupt: %v", err)
	}
}

// TestCompactionShrinksFile: overwriting one key many times leaves dead
// records; once they dominate, the log is rewritten and reopening still
// serves the latest values.
func TestCompactionShrinksFile(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "v.db")
	s := openT(t, path, Options{MaxBytes: 4096})
	val := bytes.Repeat([]byte("z"), 256)
	for i := 0; i < 200; i++ {
		if err := s.Put("hot", val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("cold", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 200 overwrites (file %d bytes)", st.FileBytes)
	}
	// Dead records re-accumulate between compactions; the invariant is
	// that the log never exceeds twice the budget (plus the record that
	// crossed the threshold).
	if st.FileBytes > 2*4096+512 {
		t.Errorf("FileBytes = %d, want <= 2*MaxBytes", st.FileBytes)
	}
	s.Close()
	r := openT(t, path, Options{MaxBytes: 4096})
	if got, ok := r.Get("hot"); !ok || !bytes.Equal(got, val) {
		t.Error("hot key wrong after compaction + reopen")
	}
	if got, ok := r.Get("cold"); !ok || string(got) != "keep" {
		t.Error("cold key wrong after compaction + reopen")
	}
}

func TestKeyCanonicalForm(t *testing.T) {
	t.Parallel()
	k := Key{
		Fingerprint: "sweep/v1 kernel=docker-abba-order variant=buggy",
		Config:      "cfg-123",
		Detectors:   "leak,race,vet",
		Seeds:       "base=1 runs=100",
	}
	want := "sweep/v1 kernel=docker-abba-order variant=buggy | cfg=cfg-123 | dets=leak,race,vet | base=1 runs=100"
	if k.String() != want {
		t.Errorf("Key.String() = %q, want %q", k.String(), want)
	}
	if (Key{}).String() == k.String() {
		t.Error("distinct keys rendered identically")
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	t.Parallel()
	s := openT(t, filepath.Join(t.TempDir(), "v.db"), Options{MaxBytes: 128})
	if err := s.Put("big", bytes.Repeat([]byte("b"), 4096)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("big"); ok {
		t.Error("value larger than the whole budget was cached")
	}
	// Normal entries still work around it.
	if err := s.Put("small", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("small"); !ok {
		t.Error("small entry lost")
	}
}

func TestGetHitAllocsZero(t *testing.T) {
	s := openT(t, filepath.Join(t.TempDir(), "v.db"), Options{})
	if err := s.Put("key", bytes.Repeat([]byte("v"), 64)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := s.Get("key"); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Errorf("Get hit allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestConcurrentAccess(t *testing.T) {
	t.Parallel()
	s := openT(t, filepath.Join(t.TempDir(), "v.db"), Options{MaxBytes: 1 << 16, NoSync: true})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%17)
				if err := s.Put(k, []byte(k)); err != nil {
					t.Error(err)
					return
				}
				if v, ok := s.Get(k); ok && string(v) != k {
					t.Errorf("Get(%s) = %q", k, v)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
