package oracle

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Payload layout, little-endian. Byte 0 is the class index the gateway's
// byte0 classifier reads; the rest identifies the datagram and lets the
// receiver prove it intact:
//
//	0      class index       1   magic 0xB7      2..3   class id
//	4..7   flow              8..15  sequence     16..23 due time (ns)
//	24..27 payload length    28..31 checksum     32..   fill
//
// The checksum covers every byte but its own four. The fill is a pattern
// derived from the flow, so a datagram spliced from two flows fails it.
const (
	HeaderLen = 32
	magic     = 0xB7
)

// Header is the decoded identity of one datagram.
type Header struct {
	ClassIdx uint8  // position of Class in the gateway's sorted class list
	Class    uint16 // class (leaf session) id
	Flow     uint32
	Seq      uint64
	Due      int64 // ns on the sender's clock: when the datagram was due to be sent
}

// Errors from Decode.
var (
	ErrShort    = errors.New("oracle: datagram shorter than its header")
	ErrMagic    = errors.New("oracle: bad magic byte")
	ErrLength   = errors.New("oracle: length field disagrees with datagram")
	ErrChecksum = errors.New("oracle: checksum mismatch")
)

// Fill writes the flow's fill pattern into b after the header.
func Fill(b []byte, flow uint32) {
	x := flow*2654435761 + 1
	for i := HeaderLen; i < len(b); i++ {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
}

// FillSum is the checksum contribution of b's fill, so a sender that
// rewrites only the header of a reused buffer need not rehash the fill.
func FillSum(b []byte) uint64 {
	if len(b) <= HeaderLen {
		return 0
	}
	return sum64(b[HeaderLen:])
}

// Encode writes h, the length and the checksum into b, whose fill must
// already be in place with fillSum = FillSum(b).
func Encode(b []byte, h Header, fillSum uint64) {
	b[0] = h.ClassIdx
	b[1] = magic
	binary.LittleEndian.PutUint16(b[2:], h.Class)
	binary.LittleEndian.PutUint32(b[4:], h.Flow)
	binary.LittleEndian.PutUint64(b[8:], h.Seq)
	binary.LittleEndian.PutUint64(b[16:], uint64(h.Due))
	binary.LittleEndian.PutUint32(b[24:], uint32(len(b)))
	binary.LittleEndian.PutUint32(b[28:], checksum(b, fillSum))
}

// Decode parses and verifies a datagram.
func Decode(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, ErrShort
	}
	if b[1] != magic {
		return Header{}, ErrMagic
	}
	if n := binary.LittleEndian.Uint32(b[24:]); n != uint32(len(b)) {
		return Header{}, fmt.Errorf("%w: field %d, datagram %d", ErrLength, n, len(b))
	}
	if binary.LittleEndian.Uint32(b[28:]) != checksum(b, FillSum(b)) {
		return Header{}, ErrChecksum
	}
	return Header{
		ClassIdx: b[0],
		Class:    binary.LittleEndian.Uint16(b[2:]),
		Flow:     binary.LittleEndian.Uint32(b[4:]),
		Seq:      binary.LittleEndian.Uint64(b[8:]),
		Due:      int64(binary.LittleEndian.Uint64(b[16:])),
	}, nil
}

func checksum(b []byte, fillSum uint64) uint32 {
	h := sum64(b[:28]) ^ (fillSum * 0x9E3779B97F4A7C15)
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return uint32(h ^ h>>32)
}

// sum64 is a four-lane multiplicative hash: cheap enough to run on every
// datagram at a million datagrams a second, strong enough that a flipped,
// moved or truncated byte changes it.
func sum64(b []byte) uint64 {
	const p = 0x9E3779B97F4A7C15
	a0, a1, a2, a3 := uint64(1), uint64(2), uint64(3), uint64(len(b))
	for len(b) >= 32 {
		a0 = (a0 ^ binary.LittleEndian.Uint64(b)) * p
		a1 = (a1 ^ binary.LittleEndian.Uint64(b[8:])) * p
		a2 = (a2 ^ binary.LittleEndian.Uint64(b[16:])) * p
		a3 = (a3 ^ binary.LittleEndian.Uint64(b[24:])) * p
		a0 ^= a0 >> 31
		a1 ^= a1 >> 31
		a2 ^= a2 >> 31
		a3 ^= a3 >> 31
		b = b[32:]
	}
	for i, c := range b {
		a0 = (a0 ^ uint64(c)<<(8*(i&7))) * p
		a0 ^= a0 >> 31
	}
	h := a0 ^ a1*3 ^ a2*5 ^ a3*7
	h ^= h >> 33
	return h * p
}
