package oracle

import (
	"errors"
	"testing"
)

func encoded(size int, h Header) []byte {
	b := make([]byte, size)
	Fill(b, h.Flow)
	Encode(b, h, FillSum(b))
	return b
}

func TestCodecRoundTrip(t *testing.T) {
	for _, size := range []int{HeaderLen, 33, 64, 500, 1400} {
		h := Header{ClassIdx: 3, Class: 1003, Flow: 77, Seq: 1<<40 + 5, Due: -12345}
		got, err := Decode(encoded(size, h))
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if got != h {
			t.Fatalf("size %d: decoded %+v, want %+v", size, got, h)
		}
	}
}

// Every single-bit flip anywhere in the datagram is caught.
func TestCodecDetectsEveryBitFlip(t *testing.T) {
	b := encoded(100, Header{Class: 2, Flow: 9, Seq: 4, Due: 99})
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			b[i] ^= 1 << bit
			if _, err := Decode(b); err == nil {
				t.Fatalf("flip of byte %d bit %d not detected", i, bit)
			}
			b[i] ^= 1 << bit
		}
	}
}

func TestCodecRejectsTruncationAndSplice(t *testing.T) {
	b := encoded(200, Header{Flow: 1, Seq: 2})
	if _, err := Decode(b[:150]); !errors.Is(err, ErrLength) {
		t.Fatalf("truncated datagram: %v, want ErrLength", err)
	}
	if _, err := Decode(b[:10]); !errors.Is(err, ErrShort) {
		t.Fatalf("short datagram: %v, want ErrShort", err)
	}
	// Header of flow 1 over the fill of flow 2.
	other := encoded(200, Header{Flow: 2, Seq: 2})
	copy(other, b[:HeaderLen])
	if _, err := Decode(other); !errors.Is(err, ErrChecksum) {
		t.Fatalf("spliced datagram: %v, want ErrChecksum", err)
	}
}

// Rewriting the header of a reused buffer with a cached fill sum gives the
// same bytes as encoding from scratch.
func TestCodecHeaderRewrite(t *testing.T) {
	b := encoded(300, Header{Flow: 5, Seq: 0})
	sum := FillSum(b)
	h := Header{Flow: 5, Seq: 1, Due: 42}
	Encode(b, h, sum)
	if got, err := Decode(b); err != nil || got != h {
		t.Fatalf("rewritten header: %+v, %v", got, err)
	}
}
