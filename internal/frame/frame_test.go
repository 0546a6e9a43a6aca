package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestAppendNextRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("a"), bytes.Repeat([]byte("xy"), 300), []byte("last")}
	for _, p := range payloads {
		buf = Append(buf, p)
	}
	for i, want := range payloads {
		got, size, err := Next(buf, 1)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) || size != HeaderLen+len(want) {
			t.Fatalf("frame %d: got %d-byte payload, size %d; want %d bytes, size %d", i, len(got), size, len(want), HeaderLen+len(want))
		}
		buf = buf[size:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(buf))
	}
}

// TestNextClassifiesDamage: what a crash or a flipped bit leaves behind is
// either torn (boundaries lost) or a checksum failure with a usable size.
func TestNextClassifiesDamage(t *testing.T) {
	whole := Append(nil, []byte("payload"))
	huge := binary.LittleEndian.AppendUint32(nil, MaxLen+1)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	torn := map[string][]byte{
		"empty":              nil,
		"short header":       whole[:HeaderLen-1],
		"payload cut short":  whole[:len(whole)-1],
		"zero-filled tail":   make([]byte, 64),
		"length over MaxLen": append(huge, make([]byte, 16)...),
	}
	for name, data := range torn {
		if _, size, err := Next(data, 1); !errors.Is(err, ErrTorn) || size != 0 {
			t.Errorf("%s: size %d, err %v; want ErrTorn", name, size, err)
		}
	}
	if _, _, err := Next(Append(nil, []byte("ab")), 3); !errors.Is(err, ErrTorn) {
		t.Errorf("payload under the minimum: err %v, want ErrTorn", err)
	}

	flipped := append([]byte(nil), whole...)
	flipped[HeaderLen+2] ^= 0x10
	if _, size, err := Next(flipped, 1); !errors.Is(err, ErrChecksum) || size != len(whole) {
		t.Errorf("bit flip: size %d, err %v; want ErrChecksum with size %d", size, err, len(whole))
	}
}
