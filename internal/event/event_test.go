package event

import "testing"

type recorder struct {
	kinds   []Kind
	got     []Kind
	endings int
}

func (r *recorder) Kinds() []Kind   { return r.kinds }
func (r *recorder) Event(ev *Event) { r.got = append(r.got, ev.Kind) }
func (r *recorder) RunEnd()         { r.endings++ }

func TestMuxDispatchesByKind(t *testing.T) {
	mem := &recorder{kinds: []Kind{MemRead, MemWrite}}
	chn := &recorder{kinds: []Kind{ChanSend, MemWrite}}
	m := NewMux([]Sink{mem, chn})

	for _, k := range []Kind{MemRead, ChanSend, MemWrite, MutexLock} {
		if m.Wants(k) {
			m.Emit(&Event{Kind: k})
		}
	}
	if m.Wants(MutexLock) {
		t.Error("Wants(MutexLock) = true with no subscriber")
	}
	want := func(r *recorder, ks ...Kind) {
		t.Helper()
		if len(r.got) != len(ks) {
			t.Fatalf("got %v, want %v", r.got, ks)
		}
		for i, k := range ks {
			if r.got[i] != k {
				t.Fatalf("got %v, want %v", r.got, ks)
			}
		}
	}
	want(mem, MemRead, MemWrite)
	want(chn, ChanSend, MemWrite)

	m.RunEnd()
	if mem.endings != 1 || chn.endings != 1 {
		t.Errorf("RunEnd deliveries = %d, %d; want 1, 1", mem.endings, chn.endings)
	}
}

func TestMuxIgnoresDuplicateAndInvalidKinds(t *testing.T) {
	r := &recorder{kinds: []Kind{MemRead, MemRead, KindInvalid, NumKinds, Kind(200)}}
	m := NewMux([]Sink{nil, r})
	m.Emit(&Event{Kind: MemRead})
	if len(r.got) != 1 {
		t.Errorf("duplicate subscription delivered %d times, want 1", len(r.got))
	}
}

// TestMuxResetRebuildsInPlace: a reset mux dispatches exactly as a fresh
// NewMux of the new sinks would, forgets the previous sinks entirely, and
// stops allocating once its per-kind lists have grown.
func TestMuxResetRebuildsInPlace(t *testing.T) {
	old := &recorder{kinds: []Kind{MemRead, ChanSend, MutexLock}}
	m := NewMux([]Sink{old, &recorder{kinds: []Kind{MemRead}}})

	mem := &recorder{kinds: []Kind{MemRead, MemWrite}}
	chn := &recorder{kinds: []Kind{ChanSend, MemWrite}}
	m.Reset([]Sink{mem, nil, chn})
	for _, k := range []Kind{MemRead, ChanSend, MemWrite, MutexLock} {
		if m.Wants(k) {
			m.Emit(&Event{Kind: k})
		}
	}
	if m.Wants(MutexLock) {
		t.Error("Wants(MutexLock) = true after a reset dropped its only subscriber")
	}
	m.RunEnd()
	if len(old.got) != 0 || old.endings != 0 {
		t.Errorf("a sink from before the reset got %v and %d RunEnds", old.got, old.endings)
	}
	if len(mem.got) != 2 || mem.got[0] != MemRead || mem.got[1] != MemWrite || mem.endings != 1 {
		t.Errorf("mem sink got %v, %d RunEnds; want [MemRead MemWrite], 1", mem.got, mem.endings)
	}
	if len(chn.got) != 2 || chn.got[0] != ChanSend || chn.got[1] != MemWrite || chn.endings != 1 {
		t.Errorf("chan sink got %v, %d RunEnds; want [ChanSend MemWrite], 1", chn.got, chn.endings)
	}
	for i := range m.byKind {
		for _, s := range m.byKind[i][len(m.byKind[i]):cap(m.byKind[i])] {
			if s != nil {
				t.Fatalf("kind %s keeps a stale sink past its length", Kind(i))
			}
		}
	}

	sinks := []Sink{mem, chn}
	if n := testing.AllocsPerRun(100, func() { m.Reset(sinks) }); n != 0 {
		t.Errorf("Reset allocates %.0f times per call once warm, want 0", n)
	}
	m.Reset(nil)
	if m.Wants(MemRead) || m.Wants(ChanSend) || len(m.enders) != 0 {
		t.Error("Reset(nil) left subscriptions behind")
	}
}

func TestNewMuxEmptyIsNil(t *testing.T) {
	if NewMux(nil) != nil {
		t.Error("NewMux(nil) != nil; the no-sink fast path depends on a nil mux")
	}
}

func TestKindStringsAreDistinct(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); k < NumKinds; k++ {
		s := k.String()
		if s == "" || s == "invalid" {
			t.Errorf("kind %d has no name", k)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
}
