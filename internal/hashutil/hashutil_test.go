package hashutil

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// The local FNV-1a must agree with the stdlib byte for byte: the
// plan-cache fingerprint and the executor's string join-key hash both
// lean on this single implementation, so equivalence with hash/fnv pins
// the algorithm against accidental edits.
func TestSum64MatchesStdlib(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		b := make([]byte, rnd.Intn(64))
		rnd.Read(b)
		ref := fnv.New64a()
		ref.Write(b)
		if got, want := Sum64(b), ref.Sum64(); got != want {
			t.Fatalf("Sum64(%v) = %#x, stdlib fnv-1a = %#x", b, got, want)
		}
	}
}

// Streaming writes in any chunking must equal a single Sum64 over the
// concatenation, and the string/byte variants must match the byte one.
func TestHash64Streaming(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		b := make([]byte, 1+rnd.Intn(64))
		rnd.Read(b)
		h := New64()
		for off := 0; off < len(b); {
			n := 1 + rnd.Intn(len(b)-off)
			h.Write(b[off : off+n])
			off += n
		}
		if got, want := h.Sum64(), Sum64(b); got != want {
			t.Fatalf("chunked Write = %#x, Sum64 = %#x", got, want)
		}

		hs := New64()
		hs.WriteString(string(b))
		if got, want := hs.Sum64(), Sum64(b); got != want {
			t.Fatalf("WriteString = %#x, Sum64 = %#x", got, want)
		}

		hb := New64()
		for _, c := range b {
			hb.WriteByte(c)
		}
		if got, want := hb.Sum64(), Sum64(b); got != want {
			t.Fatalf("WriteByte loop = %#x, Sum64 = %#x", got, want)
		}
	}
}
