package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"goconcbugs/internal/frame"
)

// FuzzStoreOpen writes arbitrary bytes as the store file. Open must neither
// panic nor fail. Afterwards the file is a frame-aligned prefix of the input
// when the input starts with the magic; otherwise the input has been moved
// to path+".corrupt" (an empty file, what a crash before the header write
// leaves, is simply replaced) and the file is a fresh store. Every value Get
// serves must be the last intact record for its key in the file.
func FuzzStoreOpen(f *testing.F) {
	valid := []byte(magic)
	for _, kv := range [][2]string{{"whole", "survives"}, {"k1", "bbbb"}, {"whole", "overwritten"}} {
		valid = frame.Append(valid, recordPayload(kv[0], []byte(kv[1])))
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-5] ^= 0x40
	f.Add(valid)
	f.Add(valid[:len(valid)-6])               // torn tail (TestTornTailTruncatedOnOpen)
	f.Add(flipped)                            // bit flip (TestBitFlipQuarantineAndRecompute)
	f.Add([]byte("this is not a store file")) // TestForeignFileMovedAside
	f.Add([]byte(magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "v.db")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, Options{NoSync: true})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		moved, movedErr := os.ReadFile(path + ".corrupt")
		switch {
		case bytes.HasPrefix(data, []byte(magic)):
			if !bytes.HasPrefix(data, file) {
				t.Fatalf("store file (%d bytes) is not a prefix of the input", len(file))
			}
			if movedErr == nil {
				t.Fatal("a file with the store magic was moved aside")
			}
		case len(data) == 0:
			if movedErr == nil {
				t.Fatal("an empty file was moved aside")
			}
		default:
			if movedErr != nil || !bytes.Equal(moved, data) {
				t.Fatalf("foreign input not preserved at .corrupt: %v", movedErr)
			}
		}
		if !bytes.HasPrefix(file, []byte(magic)) {
			t.Fatalf("store file does not start with the magic: %q", file)
		}

		want := map[string][]byte{}
		for off := len(magic); off < len(file); {
			payload, size, err := frame.Next(file[off:], minPayload)
			if errors.Is(err, frame.ErrTorn) {
				t.Fatalf("store file is not frame-aligned at offset %d", off)
			}
			off += size
			if err != nil {
				continue // checksum mismatch: quarantined
			}
			if kl := int(binary.LittleEndian.Uint32(payload)); 4+kl <= len(payload) {
				want[string(payload[4:4+kl])] = payload[4+kl:]
			}
		}
		keys := s.Keys()
		if len(keys) != len(want) {
			t.Fatalf("store serves %d keys, the file holds %d intact ones", len(keys), len(want))
		}
		for _, k := range keys {
			got, ok := s.Get(k)
			if w, in := want[k]; !ok || !in || !bytes.Equal(got, w) {
				t.Fatalf("Get(%q) = %q, %v; the file's last intact record holds %q (present %v)", k, got, ok, w, in)
			}
		}
	})
}
