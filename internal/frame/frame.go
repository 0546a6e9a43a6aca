// Package frame is the CRC-guarded record framing shared by the append-only
// files in this repository: the verdict store's log (internal/store) and the
// sweep record log behind checkpoints and shards (internal/detect).
//
// A frame is a u32 little-endian payload length, the u32 little-endian
// CRC32 (IEEE) of the payload, then the payload. Readers walk a file with
// Next and classify what a crash or a flipped bit can leave behind: a frame
// whose header or length cannot be trusted (ErrTorn) ends the readable
// prefix, while a frame whose framing is intact but whose payload fails its
// checksum (ErrChecksum) can be skipped on its own.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

const (
	// HeaderLen is the fixed per-frame prefix: u32 length + u32 CRC32.
	HeaderLen = 8
	// MaxLen bounds a single payload; a length field beyond it is treated
	// as corruption, not as a 4 GB allocation request.
	MaxLen = 1 << 26 // 64 MB
)

var (
	// ErrTorn: the bytes do not start with a plausible frame — fewer than
	// HeaderLen bytes, or a length that is implausible or runs past the
	// end. A crash mid-append leaves exactly this; frame boundaries are
	// lost from here on.
	ErrTorn = errors.New("frame: torn or implausible frame")
	// ErrChecksum: the frame's bounds are intact but its payload does not
	// match its CRC. The frame's size is still valid, so a reader can skip
	// just this frame.
	ErrChecksum = errors.New("frame: checksum mismatch")
)

// Append appends payload to dst as one frame and returns the extended
// slice.
func Append(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Next splits the first frame off data, returning its payload (aliasing
// data) and the frame's total size in bytes. Payloads shorter than min are
// implausible for the caller's record format and count as torn: a run of
// zero bytes (what some filesystems leave past a crash) would otherwise
// parse as a stream of valid empty frames. On ErrChecksum size is valid and
// the payload is returned unchecked; on ErrTorn both are zero.
func Next(data []byte, min int) (payload []byte, size int, err error) {
	if len(data) < HeaderLen {
		return nil, 0, ErrTorn
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < min || n > MaxLen || n > len(data)-HeaderLen {
		return nil, 0, ErrTorn
	}
	payload = data[HeaderLen : HeaderLen+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return payload, HeaderLen + n, ErrChecksum
	}
	return payload, HeaderLen + n, nil
}
